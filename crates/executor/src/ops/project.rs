//! Projection operator: computes expression columns via `map_*` primitives.

use std::sync::Arc;

use ma_vector::{DataChunk, DataType};

use crate::eval::CompiledExpr;
use crate::expr::Expr;
use crate::ops::{BoxOp, Operator};
use crate::{ExecError, QueryContext};

/// One output column of a projection.
#[derive(Debug, Clone, PartialEq)]
pub enum ProjItem {
    /// Pass an input column through unchanged (shared, not copied).
    Pass(usize),
    /// Compute an expression.
    Expr(Expr),
}

enum CompiledItem {
    Pass(usize),
    Expr(CompiledExpr),
}

/// Non-duplicate-eliminating projection (§1: "typically used to compute
/// expressions as new columns"). Keeps the child's selection vector;
/// computed columns are defined at live positions.
pub struct Project {
    child: BoxOp,
    items: Vec<CompiledItem>,
    types: Vec<DataType>,
}

impl Project {
    /// Compiles the projection list against the child's schema.
    pub fn new(
        child: BoxOp,
        items: Vec<ProjItem>,
        ctx: &QueryContext,
        label: &str,
    ) -> Result<Self, ExecError> {
        let in_types = child.out_types().to_vec();
        let mut compiled = Vec::with_capacity(items.len());
        let mut types = Vec::with_capacity(items.len());
        for (k, item) in items.into_iter().enumerate() {
            match item {
                ProjItem::Pass(i) => {
                    let ty = *in_types
                        .get(i)
                        .ok_or_else(|| ExecError::Plan(format!("column {i} out of range")))?;
                    compiled.push(CompiledItem::Pass(i));
                    types.push(ty);
                }
                ProjItem::Expr(e) => {
                    let ce = CompiledExpr::compile(&e, &in_types, ctx, &format!("{label}#{k}"))?;
                    types.push(ce.out_type());
                    compiled.push(CompiledItem::Expr(ce));
                }
            }
        }
        Ok(Project {
            child,
            items: compiled,
            types,
        })
    }
}

impl Operator for Project {
    fn next(&mut self) -> Result<Option<DataChunk>, ExecError> {
        let Some(chunk) = self.child.next()? else {
            return Ok(None);
        };
        let mut cols = Vec::with_capacity(self.items.len());
        for item in &mut self.items {
            match item {
                CompiledItem::Pass(i) => cols.push(Arc::clone(chunk.column(*i))),
                CompiledItem::Expr(ce) => cols.push(ce.eval(&chunk)?),
            }
        }
        let mut out = DataChunk::new(cols);
        out.set_sel(chunk.sel().cloned());
        Ok(Some(out))
    }

    fn out_types(&self) -> &[DataType] {
        &self.types
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecConfig;
    use crate::expr::{lit_i64, CmpKind, Pred, Value};
    use crate::ops::{collect, Scan, Select};
    use ma_primitives::build_dictionary;
    use ma_vector::{ColumnBuilder, Table};

    fn ctx() -> QueryContext {
        QueryContext::new(Arc::new(build_dictionary()), ExecConfig::fixed_default())
    }

    fn scan(n: usize) -> BoxOp {
        let mut a = ColumnBuilder::with_capacity(DataType::I64, n);
        let mut b = ColumnBuilder::with_capacity(DataType::I64, n);
        for i in 0..n {
            a.push_i64(i as i64);
            b.push_i64((i * 2) as i64);
        }
        let t = Arc::new(
            Table::new(
                "t",
                vec![("a".into(), a.finish()), ("b".into(), b.finish())],
            )
            .unwrap(),
        );
        Box::new(Scan::new(t, &["a", "b"], 128).unwrap())
    }

    #[test]
    fn computes_expressions_and_passes_columns() {
        let c = ctx();
        let mut p = Project::new(
            scan(300),
            vec![
                ProjItem::Pass(0),
                ProjItem::Expr(Expr::Col(0).mul(Expr::Col(1))),
                ProjItem::Expr(Expr::Col(1).add(lit_i64(5))),
            ],
            &c,
            "t",
        )
        .unwrap();
        assert_eq!(
            p.out_types(),
            &[DataType::I64, DataType::I64, DataType::I64]
        );
        let chunks = collect(&mut p).unwrap();
        let ch = &chunks[1]; // rows 128..256
        let i = 10;
        let a = (128 + i) as i64;
        assert_eq!(ch.column(0).as_i64()[i], a);
        assert_eq!(ch.column(1).as_i64()[i], a * (a * 2));
        assert_eq!(ch.column(2).as_i64()[i], a * 2 + 5);
    }

    #[test]
    fn propagates_selection_vector() {
        let c = ctx();
        let pred = Pred::cmp_val(0, CmpKind::Lt, Value::I64(10));
        let sel = Select::new(scan(100), &pred, &c, "s").unwrap();
        let mut p = Project::new(
            Box::new(sel),
            vec![ProjItem::Expr(Expr::Col(0).mul(lit_i64(3)))],
            &c,
            "p",
        )
        .unwrap();
        let chunks = collect(&mut p).unwrap();
        assert_eq!(chunks.len(), 1);
        let ch = &chunks[0];
        assert_eq!(ch.live_count(), 10);
        for pnum in ch.live_positions() {
            assert_eq!(ch.column(0).as_i64()[pnum], (pnum as i64) * 3);
        }
    }

    #[test]
    fn pass_shares_column_data() {
        let c = ctx();
        let mut p = Project::new(scan(10), vec![ProjItem::Pass(1)], &c, "t").unwrap();
        let ch = p.next().unwrap().unwrap();
        assert_eq!(ch.column(0).as_i64()[4], 8);
    }

    #[test]
    fn bad_pass_index_rejected() {
        let c = ctx();
        assert!(Project::new(scan(10), vec![ProjItem::Pass(9)], &c, "t").is_err());
    }
}
