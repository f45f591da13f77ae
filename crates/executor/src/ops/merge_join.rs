//! Merge join over sorted inputs, driven by the flavored
//! `mergejoin_i64_col_i64_col` kernel (Fig. 4c / Fig. 5).
//!
//! The left side must be key-sorted with *unique* keys (e.g. `orders` by
//! `o_orderkey`); the right side key-sorted, possibly with duplicates (e.g.
//! `lineitem` by `l_orderkey`). TPC-H generates both clustered this way,
//! which is exactly the setting in which Vectorwise's plans pick merge
//! joins for Q4/Q12.

use std::sync::Arc;

use ma_primitives::MergeJoinFn;
use ma_vector::{DataChunk, DataType, SelVec, Vector};

use crate::adaptive::HeurKind;
use crate::ops::fetch::FetchInst;
use crate::ops::{normalize_keys_i64, BoxOp, FrozenStore, Operator, RowStore};
use crate::{ExecError, NodeScope, PrimInstance};

/// Inner merge join: output = right columns (gathered at matches) ++ left
/// payload columns (fetched by match index).
pub struct MergeJoin {
    left: Option<BoxOp>,
    right: BoxOp,
    left_key: usize,
    right_key: usize,
    payload_idx: Vec<usize>,
    types: Vec<DataType>,

    kernel: PrimInstance<MergeJoinFn>,
    right_fetch: Vec<FetchInst>,
    payload_fetch: Vec<FetchInst>,

    lkeys: Vec<i64>,
    payload: Option<FrozenStore>,
    cursor: usize,
    // scratch
    rkeys: Vec<i64>,
}

impl MergeJoin {
    /// Builds the operator; `payload` lists left-side columns appended to
    /// the output.
    pub fn new(
        left: BoxOp,
        right: BoxOp,
        left_key: usize,
        right_key: usize,
        payload: Vec<usize>,
        scope: &NodeScope,
    ) -> Result<Self, ExecError> {
        let left_types = left.out_types().to_vec();
        let right_types = right.out_types().to_vec();
        if left_key >= left_types.len() || right_key >= right_types.len() {
            return Err(ExecError::Plan("merge join key out of range".into()));
        }
        let payload_types: Vec<DataType> = payload
            .iter()
            .map(|&i| {
                left_types
                    .get(i)
                    .copied()
                    .ok_or_else(|| ExecError::Plan(format!("payload column {i} out of range")))
            })
            .collect::<Result<_, _>>()?;
        let types: Vec<DataType> = right_types
            .iter()
            .copied()
            .chain(payload_types.iter().copied())
            .collect();

        let kernel = scope.instance("mergejoin_i64_col_i64_col", "mergejoin", HeurKind::None)?;
        let right_fetch = right_types
            .iter()
            .map(|&t| FetchInst::create(t, scope))
            .collect::<Result<_, _>>()?;
        let payload_fetch = payload_types
            .iter()
            .map(|&t| FetchInst::create(t, scope))
            .collect::<Result<_, _>>()?;

        Ok(MergeJoin {
            left: Some(left),
            right,
            left_key,
            right_key,
            payload_idx: payload,
            types,
            kernel,
            right_fetch,
            payload_fetch,
            lkeys: Vec::new(),
            payload: None,
            cursor: 0,
            rkeys: Vec::new(),
        })
    }

    fn materialize_left(&mut self) -> Result<(), ExecError> {
        let mut child = self.left.take().expect("materialize once");
        let left_types = child.out_types().to_vec();
        let payload_types: Vec<DataType> =
            self.payload_idx.iter().map(|&i| left_types[i]).collect();
        let mut payload = RowStore::new(payload_types);
        let mut scratch = Vec::new();
        let mut last: Option<i64> = None;
        while let Some(chunk) = child.next()? {
            let positions = chunk.live_positions();
            normalize_keys_i64(chunk.column(self.left_key), &mut scratch);
            for &p in &positions {
                let k = scratch[p];
                if let Some(prev) = last {
                    debug_assert!(prev < k, "merge join left keys must be sorted and unique");
                }
                last = Some(k);
                self.lkeys.push(k);
            }
            payload.append(&chunk, &self.payload_idx);
        }
        self.payload = Some(payload.freeze());
        Ok(())
    }
}

impl Operator for MergeJoin {
    fn next(&mut self) -> Result<Option<DataChunk>, ExecError> {
        if self.payload.is_none() {
            self.materialize_left()?;
        }
        loop {
            let Some(chunk) = self.right.next()? else {
                return Ok(None);
            };
            let live = chunk.live_count();
            if live == 0 {
                continue;
            }
            let sel_owned = chunk.sel().cloned();
            let sel = sel_owned.as_ref().map(SelVec::as_slice);
            normalize_keys_i64(chunk.column(self.right_key), &mut self.rkeys);

            let mut rpos = vec![0u32; live];
            let mut lidx = vec![0u32; live];
            let mut cursor = self.cursor;
            let lkeys = &self.lkeys;
            let rkeys = &self.rkeys;
            let k = self.kernel.invoke(live as u64, |f| {
                f(&mut cursor, lkeys, rkeys, sel, &mut rpos, &mut lidx)
            });
            self.cursor = cursor;
            if k == 0 {
                continue;
            }
            rpos.truncate(k);
            lidx.truncate(k);

            let payload = self.payload.as_ref().expect("materialized");
            let mut cols: Vec<Arc<Vector>> = Vec::with_capacity(self.types.len());
            for (ci, inst) in self.right_fetch.iter_mut().enumerate() {
                cols.push(Arc::new(inst.fetch(chunk.column(ci), &rpos)));
            }
            for (pi, inst) in self.payload_fetch.iter_mut().enumerate() {
                cols.push(Arc::new(inst.fetch(payload.col(pi), &lidx)));
            }
            return Ok(Some(DataChunk::new(cols)));
        }
    }

    fn out_types(&self) -> &[DataType] {
        &self.types
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecConfig;
    use crate::expr::{CmpKind, Pred, Value};
    use crate::ops::{collect, total_rows, Scan, Select};
    use crate::QueryContext;
    use ma_primitives::build_dictionary;
    use ma_vector::{ColumnBuilder, Table};

    fn ctx() -> QueryContext {
        QueryContext::new(Arc::new(build_dictionary()), ExecConfig::fixed_default())
    }

    /// Left: unique sorted keys 0,2,4,..., payload = key*10.
    fn left(n: usize) -> BoxOp {
        let mut k = ColumnBuilder::with_capacity(DataType::I64, n);
        let mut p = ColumnBuilder::with_capacity(DataType::I64, n);
        for i in 0..n {
            k.push_i64((i * 2) as i64);
            p.push_i64((i * 20) as i64);
        }
        let t = Arc::new(
            Table::new(
                "l",
                vec![("k".into(), k.finish()), ("p".into(), p.finish())],
            )
            .unwrap(),
        );
        Box::new(Scan::new(t, &["k", "p"], 64).unwrap())
    }

    /// Right: sorted keys 0,1,2,... with duplicates (each key ×2).
    fn right(n: usize) -> BoxOp {
        let mut k = ColumnBuilder::with_capacity(DataType::I64, n);
        let mut v = ColumnBuilder::with_capacity(DataType::I32, n);
        for i in 0..n {
            k.push_i64((i / 2) as i64);
            v.push_i32(i as i32);
        }
        let t = Arc::new(
            Table::new(
                "r",
                vec![("k".into(), k.finish()), ("v".into(), v.finish())],
            )
            .unwrap(),
        );
        Box::new(Scan::new(t, &["k", "v"], 64).unwrap())
    }

    #[test]
    fn joins_sorted_inputs_across_chunks() {
        let c = ctx();
        let mut j = MergeJoin::new(left(100), right(400), 0, 0, vec![1], &c.scope("t")).unwrap();
        assert_eq!(
            j.out_types(),
            &[DataType::I64, DataType::I32, DataType::I64]
        );
        let chunks = collect(&mut j).unwrap();
        // Right keys 0..199; left keys = even 0..198 → 100 matching keys × 2
        // duplicates = 200 rows.
        assert_eq!(total_rows(&chunks), 200);
        for ch in &chunks {
            for p in ch.live_positions() {
                let k = ch.column(0).as_i64()[p];
                assert_eq!(k % 2, 0);
                assert_eq!(ch.column(2).as_i64()[p], k * 10);
            }
        }
    }

    #[test]
    fn respects_right_selection_vector() {
        let c = ctx();
        let pred = Pred::cmp_val(1, CmpKind::Lt, Value::I32(100));
        let sel = Select::new(right(400), &pred, &c.scope("s")).unwrap();
        let mut j = MergeJoin::new(left(100), Box::new(sel), 0, 0, vec![1], &c.scope("t")).unwrap();
        let chunks = collect(&mut j).unwrap();
        // v < 100 → right rows 0..99 → keys 0..49, even keys 0..48 → 25 keys × 2.
        assert_eq!(total_rows(&chunks), 50);
    }

    #[test]
    fn empty_right_side() {
        let c = ctx();
        let pred = Pred::cmp_val(1, CmpKind::Lt, Value::I32(-1));
        let sel = Select::new(right(100), &pred, &c.scope("s")).unwrap();
        let mut j = MergeJoin::new(left(10), Box::new(sel), 0, 0, vec![], &c.scope("t")).unwrap();
        assert!(j.next().unwrap().is_none());
    }
}
