//! Named expressions, predicates, aggregates and sort keys.
//!
//! Query authors reference columns **by name**: [`NamedExpr`],
//! [`NamedPred`], `Agg<String>` and `SortKey<String>` are the types of
//! [`crate::expr`] over `String` column references. The
//! [`crate::plan::PlanBuilder`] resolves them against the input node's
//! [`Schema`] while the plan is built — names become indices through
//! [`Expr::try_map_cols`] / [`Agg::try_map_col`], then the positional form
//! goes through the one typing pass ([`Expr::type_of`], [`Pred::check`],
//! [`Agg::type_of`]) — so every name/type mistake surfaces as a typed
//! [`PlanError`] before an operator exists.

use ma_vector::{DataType, Schema};

use crate::expr::{Agg, Expr, Pred, SortKey};
use crate::plan::PlanError;

/// A projection expression over named columns.
pub type NamedExpr = Expr<String>;

/// A selection predicate over named columns.
pub type NamedPred = Pred<String>;

/// Column reference by name — the entry point of most expressions.
pub fn col(name: impl Into<String>) -> NamedExpr {
    Expr::Col(name.into())
}

/// `substring(col from start+1 for len)`.
pub fn substr(name: impl Into<String>, start: usize, len: usize) -> NamedExpr {
    Expr::Substr {
        col: name.into(),
        start,
        len,
    }
}

impl Expr<String> {
    /// Resolves against `schema`, returning the positional expression and
    /// its output type.
    pub(crate) fn resolve(&self, schema: &Schema) -> Result<(Expr, DataType), PlanError> {
        let e = self.try_map_cols(&mut |name| resolve_col(schema, name))?;
        let ty = e.type_of(schema)?;
        Ok((e, ty))
    }
}

impl Pred<String> {
    /// Resolves against `schema`, producing a positional predicate.
    pub(crate) fn resolve(&self, schema: &Schema) -> Result<Pred, PlanError> {
        let p = self.try_map_cols(&mut |name| resolve_col(schema, name))?;
        p.check(schema)?;
        Ok(p)
    }
}

impl Agg<String> {
    /// Resolves against `schema`, returning the positional aggregate and
    /// its output type.
    pub(crate) fn resolve(&self, schema: &Schema) -> Result<(Agg, DataType), PlanError> {
        let a = self.try_map_col(&mut |name| resolve_col(schema, name))?;
        let ty = a.type_of(schema)?;
        Ok((a, ty))
    }

    /// The output column name: the override, or `sum_<col>` / `count`.
    pub(crate) fn out_name(&self) -> String {
        match (&self.name, &self.of) {
            (Some(name), _) => name.clone(),
            (None, Some((func, _, col))) => format!("{}_{col}", func.name()),
            (None, None) => "count".into(),
        }
    }
}

/// Sum of an `i64` column (128-bit accumulation).
pub fn sum_i64(column: impl Into<String>) -> Agg<String> {
    Agg::sum_i64(column)
}
/// Sum of an `f64` column.
pub fn sum_f64(column: impl Into<String>) -> Agg<String> {
    Agg::sum_f64(column)
}
/// `COUNT(*)` over live tuples.
pub fn count() -> Agg<String> {
    Agg::count()
}
/// Minimum of an `i64` column.
pub fn min_i64(column: impl Into<String>) -> Agg<String> {
    Agg::min_i64(column)
}
/// Maximum of an `i64` column.
pub fn max_i64(column: impl Into<String>) -> Agg<String> {
    Agg::max_i64(column)
}
/// Minimum of an `f64` column.
pub fn min_f64(column: impl Into<String>) -> Agg<String> {
    Agg::min_f64(column)
}
/// Maximum of an `f64` column.
pub fn max_f64(column: impl Into<String>) -> Agg<String> {
    Agg::max_f64(column)
}

/// Ascending sort key.
pub fn asc(col: impl Into<String>) -> SortKey<String> {
    SortKey::asc(col)
}

/// Descending sort key.
pub fn desc(col: impl Into<String>) -> SortKey<String> {
    SortKey::desc(col)
}

/// Resolves `name` against `schema`: typed errors for unknown or
/// ambiguous names.
pub(crate) fn resolve_col(schema: &Schema, name: &str) -> Result<usize, PlanError> {
    if schema.is_ambiguous(name) {
        return Err(PlanError::AmbiguousColumn(name.to_string()));
    }
    schema
        .index_of(name)
        .ok_or_else(|| PlanError::UnknownColumn {
            name: name.to_string(),
            schema: schema.to_string(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{lit_f64, lit_i64, CmpKind, Value};
    use ma_vector::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("k", DataType::I32),
            Field::new("v", DataType::I64),
            Field::new("s", DataType::Str),
            Field::new("f", DataType::F64),
        ])
    }

    #[test]
    fn expr_resolution_and_typing() {
        let s = schema();
        let (e, ty) = col("v").mul(lit_i64(5)).resolve(&s).unwrap();
        assert_eq!(ty, DataType::I64);
        assert_eq!(e, Expr::Col(1).mul(lit_i64(5)));
        let (_, ty) = col("k").cast(DataType::F64).resolve(&s).unwrap();
        assert_eq!(ty, DataType::F64);
    }

    #[test]
    fn const_only_valid_as_arith_rhs() {
        let s = schema();
        // rhs constant: fine (the compiler's col_val form).
        assert!(col("v").sub(lit_i64(1)).resolve(&s).is_ok());
        // Bare constant and constant-as-lhs are rejected at build time
        // with a typed error (the compiler would reject them later with
        // a stringly ExecError).
        assert!(matches!(lit_i64(2).resolve(&s), Err(PlanError::Invalid(_))));
        assert!(matches!(
            lit_f64(1.0).sub(col("f")).resolve(&s),
            Err(PlanError::Invalid(_))
        ));
        // ... and casting a constant is equally invalid.
        assert!(matches!(
            lit_i64(2).cast(DataType::F64).resolve(&s),
            Err(PlanError::Invalid(_))
        ));
    }

    #[test]
    fn expr_unknown_column() {
        assert!(matches!(
            col("v").add(col("nope")).resolve(&schema()),
            Err(PlanError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn expr_type_mismatches() {
        let s = schema();
        // i64 + f64 without a cast
        assert!(matches!(
            col("v").add(col("f")).resolve(&s),
            Err(PlanError::TypeMismatch { .. })
        ));
        // arithmetic directly on i32
        assert!(matches!(
            col("k").add(col("k")).resolve(&s),
            Err(PlanError::TypeMismatch { .. })
        ));
        // substr over a non-string
        assert!(matches!(
            substr("v", 0, 2).resolve(&s),
            Err(PlanError::TypeMismatch { .. })
        ));
        // narrowing cast
        assert!(matches!(
            col("v").cast(DataType::I32).resolve(&s),
            Err(PlanError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn pred_resolution_and_typing() {
        let s = schema();
        let p = NamedPred::cmp_val("k", CmpKind::Lt, Value::I32(7))
            .resolve(&s)
            .unwrap();
        assert_eq!(p, Pred::cmp_val(0, CmpKind::Lt, Value::I32(7)));
        // const type must match the column type exactly
        assert!(matches!(
            NamedPred::cmp_val("k", CmpKind::Lt, Value::I64(7)).resolve(&s),
            Err(PlanError::TypeMismatch { .. })
        ));
        // string IN over a non-string column
        assert!(matches!(
            NamedPred::in_str("v", ["a"]).resolve(&s),
            Err(PlanError::TypeMismatch { .. })
        ));
        // string ordering comparison unsupported
        assert!(matches!(
            NamedPred::cmp_val("s", CmpKind::Lt, Value::Str("x".into())).resolve(&s),
            Err(PlanError::TypeMismatch {
                found: DataType::Str,
                ..
            })
        ));
        // col-col across types
        assert!(matches!(
            NamedPred::cmp_col("k", CmpKind::Eq, "v").resolve(&s),
            Err(PlanError::TypeMismatch { .. })
        ));
        // an empty conjunction
        assert!(matches!(
            NamedPred::And(vec![]).resolve(&s),
            Err(PlanError::Invalid(_))
        ));
    }

    #[test]
    fn ambiguous_name_rejected() {
        let s = Schema::new(vec![
            Field::new("x", DataType::I64),
            Field::new("x", DataType::I64),
        ]);
        assert!(matches!(
            col("x").resolve(&s),
            Err(PlanError::AmbiguousColumn(_))
        ));
    }

    #[test]
    fn agg_resolution() {
        let s = schema();
        assert_eq!(
            sum_i64("v").resolve(&s).unwrap(),
            (Agg::sum_i64(1), DataType::I64)
        );
        assert_eq!(
            max_f64("f").named("top").resolve(&s).unwrap(),
            (Agg::max_f64(3).named("top"), DataType::F64)
        );
        assert_eq!(count().resolve(&s).unwrap(), (Agg::count(), DataType::I64));
        assert_eq!(sum_i64("v").out_name(), "sum_v");
        assert_eq!(count().out_name(), "count");
        assert_eq!(sum_i64("v").named("total").out_name(), "total");
        assert!(matches!(
            min_i64("nope").resolve(&s),
            Err(PlanError::UnknownColumn { .. })
        ));
        // aggregate over a non-numeric column
        assert!(matches!(
            sum_f64("s").resolve(&s),
            Err(PlanError::TypeMismatch { .. })
        ));
        // aggregate needing a cast first
        assert!(matches!(
            sum_i64("k").resolve(&s),
            Err(PlanError::TypeMismatch { .. })
        ));
    }
}
