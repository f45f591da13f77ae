//! Selection operator: narrows the selection vector via `sel_*` primitives.

use ma_vector::{DataChunk, DataType, SelVec};

use crate::eval::CompiledPred;
use crate::expr::Pred;
use crate::ops::{BoxOp, Operator};
use crate::{ExecError, NodeScope};

/// Filters tuples by a compiled predicate. Column data is never copied —
/// only the selection vector narrows (§1.1 *Selection Vector*).
pub struct Select {
    child: BoxOp,
    pred: CompiledPred,
    types: Vec<DataType>,
}

impl Select {
    /// Compiles `pred` against the child's schema.
    pub fn new(child: BoxOp, pred: &Pred, scope: &NodeScope) -> Result<Self, ExecError> {
        let types = child.out_types().to_vec();
        let pred = CompiledPred::compile(pred, &types, scope)?;
        Ok(Select { child, pred, types })
    }
}

impl Operator for Select {
    fn next(&mut self) -> Result<Option<DataChunk>, ExecError> {
        loop {
            let Some(chunk) = self.child.next()? else {
                return Ok(None);
            };
            let sel_in = chunk.sel().map(SelVec::as_slice);
            let out = self.pred.apply(&chunk, sel_in);
            if !out.is_empty() {
                return Ok(Some(chunk.with_sel(Some(out))));
            }
            // Whole chunk filtered out: pull the next one.
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
    use crate::expr::{CmpKind, Value};
    use crate::ops::{collect, total_rows, Scan};
    use crate::QueryContext;
    use ma_primitives::build_dictionary;
    use ma_vector::{ColumnBuilder, Table};
    use std::sync::Arc;

    fn ctx() -> QueryContext {
        QueryContext::new(Arc::new(build_dictionary()), ExecConfig::fixed_default())
    }

    fn scan(n: usize) -> BoxOp {
        let mut a = ColumnBuilder::with_capacity(DataType::I32, n);
        for i in 0..n {
            a.push_i32(i as i32);
        }
        let t = Arc::new(Table::new("t", vec![("a".into(), a.finish())]).unwrap());
        Box::new(Scan::new(t, &["a"], 256).unwrap())
    }

    #[test]
    fn filters_and_preserves_columns() {
        let c = ctx();
        let pred = Pred::cmp_val(0, CmpKind::Lt, Value::I32(100));
        let mut sel = Select::new(scan(1000), &pred, &c.scope("t")).unwrap();
        let chunks = collect(&mut sel).unwrap();
        assert_eq!(total_rows(&chunks), 100);
        // Column data untouched; only sel narrows.
        assert_eq!(chunks[0].len(), 256);
        assert_eq!(chunks[0].live_count(), 100);
    }

    #[test]
    fn empty_chunks_are_skipped() {
        let c = ctx();
        // Only rows 900..=999 pass; the first 3 chunks of 256 produce
        // nothing and must be skipped transparently.
        let pred = Pred::cmp_val(0, CmpKind::Ge, Value::I32(900));
        let mut sel = Select::new(scan(1000), &pred, &c.scope("t")).unwrap();
        let chunks = collect(&mut sel).unwrap();
        assert_eq!(total_rows(&chunks), 100);
        assert!(chunks.len() <= 2);
    }

    #[test]
    fn stacked_selects_compose() {
        let c = ctx();
        let p1 = Pred::cmp_val(0, CmpKind::Lt, Value::I32(500));
        let p2 = Pred::cmp_val(0, CmpKind::Ge, Value::I32(400));
        let s1 = Select::new(scan(1000), &p1, &c.scope("s1")).unwrap();
        let mut s2 = Select::new(Box::new(s1), &p2, &c.scope("s2")).unwrap();
        let chunks = collect(&mut s2).unwrap();
        assert_eq!(total_rows(&chunks), 100);
        for ch in &chunks {
            for p in ch.live_positions() {
                let v = ch.column(0).as_i32()[p];
                assert!((400..500).contains(&v));
            }
        }
    }

    #[test]
    fn nothing_passes() {
        let c = ctx();
        let pred = Pred::cmp_val(0, CmpKind::Lt, Value::I32(-5));
        let mut sel = Select::new(scan(100), &pred, &c.scope("t")).unwrap();
        assert!(sel.next().unwrap().is_none());
    }
}
