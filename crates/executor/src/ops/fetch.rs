//! Typed adaptive gather instances (`map_fetch_*`), shared by the join
//! operators. One instance per output column — the Fig. 4(d) primitive.

use ma_primitives::{MapFetch, MapFetchStr};
use ma_vector::{DataType, Vector};

use crate::adaptive::HeurKind;
use crate::{ExecError, NodeScope, PrimInstance};

pub(crate) enum FetchInst {
    I16(PrimInstance<MapFetch<i16>>),
    I32(PrimInstance<MapFetch<i32>>),
    I64(PrimInstance<MapFetch<i64>>),
    F64(PrimInstance<MapFetch<f64>>),
    Str(PrimInstance<MapFetchStr>),
}

impl FetchInst {
    pub(crate) fn create(ty: DataType, scope: &NodeScope) -> Result<Self, ExecError> {
        let sig = format!("map_fetch_{}_col", ty.sig_name());
        Ok(match ty {
            DataType::I16 => FetchInst::I16(scope.instance(&sig, &sig, HeurKind::None)?),
            DataType::I32 => FetchInst::I32(scope.instance(&sig, &sig, HeurKind::None)?),
            DataType::I64 => FetchInst::I64(scope.instance(&sig, &sig, HeurKind::None)?),
            DataType::F64 => FetchInst::F64(scope.instance(&sig, &sig, HeurKind::None)?),
            DataType::Str => FetchInst::Str(scope.instance(&sig, &sig, HeurKind::None)?),
        })
    }

    /// Dense gather: `out[j] = src[idx[j]]`.
    pub(crate) fn fetch(&mut self, src: &Vector, idx: &[u32]) -> Vector {
        let n = idx.len();
        match self {
            FetchInst::I16(inst) => {
                let s = src.as_i16();
                let mut out = vec![0i16; n];
                inst.invoke(n as u64, |f| f(&mut out, s, idx, None));
                Vector::I16(out)
            }
            FetchInst::I32(inst) => {
                let s = src.as_i32();
                let mut out = vec![0i32; n];
                inst.invoke(n as u64, |f| f(&mut out, s, idx, None));
                Vector::I32(out)
            }
            FetchInst::I64(inst) => {
                let s = src.as_i64();
                let mut out = vec![0i64; n];
                inst.invoke(n as u64, |f| f(&mut out, s, idx, None));
                Vector::I64(out)
            }
            FetchInst::F64(inst) => {
                let s = src.as_f64();
                let mut out = vec![0f64; n];
                inst.invoke(n as u64, |f| f(&mut out, s, idx, None));
                Vector::F64(out)
            }
            FetchInst::Str(inst) => {
                let s = src.as_str_vec();
                let mut out = s.writable_like(n);
                inst.invoke(n as u64, |f| f(&mut out, s, idx, None));
                Vector::Str(out)
            }
        }
    }
}
