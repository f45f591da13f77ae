//! The fluent, schema-tracking plan builder.
//!
//! Every method resolves the names it is given against the current node's
//! [`Schema`] immediately and records the first failure; [`PlanBuilder::build`]
//! returns either the finished [`LogicalPlan`] or that typed [`PlanError`].
//! Deferring the `Result` to `build()` keeps query text free of `?` noise
//! while still failing at plan-build time, never at lowering time.
//!
//! Column lists accept an `"source as alias"` form wherever a column is
//! carried into an output schema, so reused subplans (self-joins,
//! two-phase aggregates) can keep their names unambiguous.

use std::sync::Arc;

use ma_vector::{DataType, Field, Schema, Table};

use crate::expr::{Agg, Expr, SortKey, Value};
use crate::ops::{JoinKind, ProjItem};
use crate::plan::expr::{resolve_col, NamedExpr, NamedPred};
use crate::plan::{Catalog, LogicalPlan, PlanError};

/// Fluent builder over [`LogicalPlan`] — see the [module docs](crate::plan).
pub struct PlanBuilder {
    state: Result<LogicalPlan, PlanError>,
}

/// Splits a `"source as alias"` column spec (plain names pass through).
fn parse_alias(spec: &str) -> (&str, &str) {
    match spec.split_once(" as ") {
        Some((src, alias)) => (src.trim(), alias.trim()),
        None => (spec, spec),
    }
}

fn integer(ty: DataType) -> bool {
    matches!(ty, DataType::I16 | DataType::I32 | DataType::I64)
}

/// True when the merge key traces — through order-preserving nodes
/// (Filter narrows the selection vector; Project must pass the key
/// through unchanged) — to the base table's **first column**, which is by
/// convention its clustering key (every table this engine generates or
/// materializes is stored in first-column order). Such a chain emits the
/// key in sorted order, and the physical planner protects that order:
/// either with a sequential scan, or by sharding into morsel fragments
/// (each internally key-sorted) re-merged by a
/// [`crate::ops::MergeExchange`] ([`crate::plan::plan_physical`] plans
/// the merge only over chains this test accepts).
pub(crate) fn clustered_key_chain(plan: &LogicalPlan, key: usize) -> bool {
    match plan {
        LogicalPlan::Scan { table, cols, .. } => {
            cols.get(key).map(String::as_str) == table.column_names().first().map(String::as_str)
        }
        LogicalPlan::Filter { input, .. } => clustered_key_chain(input, key),
        LogicalPlan::Project { input, items, .. } => match items.get(key) {
            Some(ProjItem::Pass(i)) => clustered_key_chain(input, *i),
            _ => false, // a computed key has no stored order
        },
        _ => false,
    }
}

/// A merge-join input must arrive sorted by the join key: either a
/// [`clustered_key_chain`], or an explicit `sort` whose primary key is
/// the join key ascending. Everything else — hash aggregates/joins (hash
/// or arrival order), computed keys, non-clustering columns,
/// differently-keyed sorts — would make the merge join silently drop
/// matches, so it is a typed error at `build()`.
fn check_merge_input(side: &str, plan: &LogicalPlan, key: usize) -> Result<(), PlanError> {
    let ok = match plan {
        LogicalPlan::Sort { keys, .. } => keys.first().is_some_and(|k| k.col == key && !k.desc),
        other => clustered_key_chain(other, key),
    };
    if ok {
        Ok(())
    } else {
        Err(PlanError::Invalid(format!(
            "{side} merge-join input is not sorted by the join key: the key must \
             pass through from the scanned table's clustering (first) column, or \
             the input must be sorted ascending by it"
        )))
    }
}

/// Rejects an output schema with duplicate column names.
fn check_unique(fields: &[Field]) -> Result<(), PlanError> {
    for (i, f) in fields.iter().enumerate() {
        if fields[..i].iter().any(|g| g.name == f.name) {
            return Err(PlanError::DuplicateColumn(f.name.clone()));
        }
    }
    Ok(())
}

/// Resolves and types `aggs` against `schema`, appending one output field
/// per aggregate to `fields`.
fn resolve_aggs(
    aggs: &[Agg<String>],
    schema: &Schema,
    fields: &mut Vec<Field>,
) -> Result<Vec<Agg>, PlanError> {
    aggs.iter()
        .map(|a| {
            let (agg, ty) = a.resolve(schema)?;
            fields.push(Field::new(a.out_name(), ty));
            Ok(agg)
        })
        .collect()
}

impl PlanBuilder {
    /// Starts a plan by scanning `table` from `catalog`. The catalog's
    /// [`Catalog::row_count`] is captured on the scan node as the
    /// planner's cardinality anchor — a metadata-backed catalog can
    /// answer it without materializing the table.
    pub fn scan(catalog: &dyn Catalog, table: &str, cols: &[&str]) -> PlanBuilder {
        let (Some(t), Some(rows)) = (catalog.lookup(table), catalog.row_count(table)) else {
            return PlanBuilder {
                state: Err(PlanError::UnknownTable(table.to_string())),
            };
        };
        Self::scan_table(t, rows, cols)
    }

    /// Starts a plan by scanning an in-memory table directly (temporary
    /// tables of multi-phase queries) — the table itself supplies the
    /// row count a catalog would.
    pub fn from_table(table: Arc<Table>, cols: &[&str]) -> PlanBuilder {
        let rows = table.rows();
        Self::scan_table(table, rows, cols)
    }

    fn scan_table(table: Arc<Table>, base_rows: usize, cols: &[&str]) -> PlanBuilder {
        let state = (|| {
            let mut src = Vec::with_capacity(cols.len());
            let mut fields = Vec::with_capacity(cols.len());
            for spec in cols {
                let (name, alias) = parse_alias(spec);
                let col = table.column(name).map_err(|_| PlanError::UnknownColumn {
                    name: name.to_string(),
                    schema: format!("table {}", table.name()),
                })?;
                src.push(name.to_string());
                fields.push(Field::new(alias, col.data_type()));
            }
            check_unique(&fields)?;
            Ok(LogicalPlan::Scan {
                table,
                cols: src,
                base_rows,
                schema: Schema::new(fields),
            })
        })();
        PlanBuilder { state }
    }

    fn and_then(self, f: impl FnOnce(LogicalPlan) -> Result<LogicalPlan, PlanError>) -> Self {
        PlanBuilder {
            state: self.state.and_then(f),
        }
    }

    /// Filters by `pred`; `label` names the selection's primitive
    /// instances in statistics.
    pub fn filter(self, pred: NamedPred, label: &str) -> Self {
        let label = label.to_string();
        self.and_then(|input| {
            let schema = input.schema().clone();
            let pred = pred.resolve(&schema)?;
            Ok(LogicalPlan::Filter {
                input: Box::new(input),
                pred,
                label,
                schema,
            })
        })
    }

    /// Projects to `(name, expression)` output columns. Bare column
    /// references lower to zero-copy pass-throughs.
    pub fn project(self, items: Vec<(&str, NamedExpr)>, label: &str) -> Self {
        let label = label.to_string();
        let items: Vec<(String, NamedExpr)> =
            items.into_iter().map(|(n, e)| (n.to_string(), e)).collect();
        self.and_then(|input| {
            let in_schema = input.schema();
            let mut proj = Vec::with_capacity(items.len());
            let mut fields = Vec::with_capacity(items.len());
            for (name, expr) in &items {
                match expr {
                    Expr::Col(c) => {
                        let i = resolve_col(in_schema, c)?;
                        proj.push(ProjItem::Pass(i));
                        fields.push(Field::new(name, in_schema.field(i).ty));
                    }
                    other => {
                        let (e, ty) = other.resolve(in_schema)?;
                        proj.push(ProjItem::Expr(e));
                        fields.push(Field::new(name, ty));
                    }
                }
            }
            check_unique(&fields)?;
            Ok(LogicalPlan::Project {
                input: Box::new(input),
                items: proj,
                label,
                schema: Schema::new(fields),
            })
        })
    }

    /// Keeps (and reorders) the named columns — a pure pass-through
    /// projection. Accepts `"source as alias"` specs.
    pub fn keep(self, cols: &[&str]) -> Self {
        let specs: Vec<String> = cols.iter().map(|s| s.to_string()).collect();
        self.and_then(|input| {
            let in_schema = input.schema();
            let mut proj = Vec::with_capacity(specs.len());
            let mut fields = Vec::with_capacity(specs.len());
            for spec in &specs {
                let (name, alias) = parse_alias(spec);
                let i = resolve_col(in_schema, name)?;
                proj.push(ProjItem::Pass(i));
                fields.push(Field::new(alias, in_schema.field(i).ty));
            }
            check_unique(&fields)?;
            Ok(LogicalPlan::Project {
                input: Box::new(input),
                items: proj,
                label: "keep".into(),
                schema: Schema::new(fields),
            })
        })
    }

    /// Grouped hash aggregation over `keys`. Output schema: the key
    /// columns (aliasable) followed by one column per [`Agg`].
    pub fn hash_agg(self, keys: &[&str], aggs: Vec<Agg<String>>, label: &str) -> Self {
        let label = label.to_string();
        let keys: Vec<String> = keys.iter().map(|s| s.to_string()).collect();
        self.and_then(|input| {
            if keys.is_empty() {
                return Err(PlanError::Invalid(
                    "hash_agg requires group keys; use stream_agg".into(),
                ));
            }
            let in_schema = input.schema();
            let mut key_idx = Vec::with_capacity(keys.len());
            let mut fields = Vec::with_capacity(keys.len() + aggs.len());
            for spec in &keys {
                let (name, alias) = parse_alias(spec);
                let i = resolve_col(in_schema, name)?;
                let ty = in_schema.field(i).ty;
                if ty == DataType::F64 {
                    return Err(PlanError::TypeMismatch {
                        context: format!("group key {name}"),
                        expected: "an integer or string column".into(),
                        found: ty,
                    });
                }
                key_idx.push(i);
                fields.push(Field::new(alias, ty));
            }
            let aggs = resolve_aggs(&aggs, in_schema, &mut fields)?;
            check_unique(&fields)?;
            Ok(LogicalPlan::HashAgg {
                input: Box::new(input),
                keys: key_idx,
                aggs,
                label,
                schema: Schema::new(fields),
            })
        })
    }

    /// Ungrouped aggregation producing a single row.
    pub fn stream_agg(self, aggs: Vec<Agg<String>>, label: &str) -> Self {
        let label = label.to_string();
        self.and_then(|input| {
            let mut fields = Vec::with_capacity(aggs.len());
            let aggs = resolve_aggs(&aggs, input.schema(), &mut fields)?;
            check_unique(&fields)?;
            Ok(LogicalPlan::StreamAgg {
                input: Box::new(input),
                aggs,
                label,
                schema: Schema::new(fields),
            })
        })
    }

    /// Hash-joins `self` (the probe side) against `build`. `on` pairs are
    /// `(probe_col, build_col)`; keys must be integer columns. `payload`
    /// names build columns appended to the output (inner joins only;
    /// aliasable). For left-single joins use
    /// [`PlanBuilder::left_single_join`].
    pub fn hash_join(
        self,
        build: PlanBuilder,
        on: &[(&str, &str)],
        payload: &[&str],
        kind: JoinKind,
        bloom: bool,
        label: &str,
    ) -> Self {
        if kind == JoinKind::LeftSingle {
            return PlanBuilder {
                state: Err(PlanError::Invalid(
                    "use left_single_join for LeftSingle (it needs defaults)".into(),
                )),
            };
        }
        self.join_impl(build, on, payload, &[], kind, bloom, label)
    }

    /// Left-single join (`customer ⟕ per-customer counts`): at most one
    /// build match per probe tuple; unmatched tuples receive the given
    /// default payload values. `payload` pairs are `(build_col_spec,
    /// default)`.
    pub fn left_single_join(
        self,
        build: PlanBuilder,
        on: &[(&str, &str)],
        payload: &[(&str, Value)],
        label: &str,
    ) -> Self {
        let cols: Vec<&str> = payload.iter().map(|(c, _)| *c).collect();
        let defaults: Vec<Value> = payload.iter().map(|(_, v)| v.clone()).collect();
        self.join_impl(
            build,
            on,
            &cols,
            &defaults,
            JoinKind::LeftSingle,
            false,
            label,
        )
    }

    #[allow(clippy::too_many_arguments)] // internal fan-in of the two join fronts
    fn join_impl(
        self,
        build: PlanBuilder,
        on: &[(&str, &str)],
        payload: &[&str],
        defaults: &[Value],
        kind: JoinKind,
        bloom: bool,
        label: &str,
    ) -> Self {
        let label = label.to_string();
        let on: Vec<(String, String)> = on
            .iter()
            .map(|(p, b)| (p.to_string(), b.to_string()))
            .collect();
        let payload: Vec<String> = payload.iter().map(|s| s.to_string()).collect();
        let defaults = defaults.to_vec();
        self.and_then(move |probe| {
            let build = build.build()?;
            if on.is_empty() {
                return Err(PlanError::Invalid(
                    "join needs at least one key pair".into(),
                ));
            }
            let (probe_schema, build_schema) = (probe.schema(), build.schema());
            let mut probe_keys = Vec::with_capacity(on.len());
            let mut build_keys = Vec::with_capacity(on.len());
            for (p, b) in &on {
                let pi = resolve_col(probe_schema, p)?;
                let bi = resolve_col(build_schema, b)?;
                for (side, name, ty) in [
                    ("probe", p, probe_schema.field(pi).ty),
                    ("build", b, build_schema.field(bi).ty),
                ] {
                    if !integer(ty) {
                        return Err(PlanError::TypeMismatch {
                            context: format!("{side} join key {name}"),
                            expected: "an integer column".into(),
                            found: ty,
                        });
                    }
                }
                probe_keys.push(pi);
                build_keys.push(bi);
            }
            let mut payload_idx = Vec::with_capacity(payload.len());
            let mut fields: Vec<Field> = match kind {
                JoinKind::Inner | JoinKind::LeftSingle => probe_schema.fields().to_vec(),
                JoinKind::Semi | JoinKind::Anti => {
                    if !payload.is_empty() {
                        return Err(PlanError::Invalid(format!(
                            "{kind:?} join keeps probe columns only; payload is not allowed"
                        )));
                    }
                    probe_schema.fields().to_vec()
                }
            };
            for (k, spec) in payload.iter().enumerate() {
                let (name, alias) = parse_alias(spec);
                let i = resolve_col(build_schema, name)?;
                let ty = build_schema.field(i).ty;
                if kind == JoinKind::LeftSingle {
                    if ty == DataType::Str {
                        return Err(PlanError::TypeMismatch {
                            context: format!("left-single payload {name}"),
                            expected: "a numeric column".into(),
                            found: ty,
                        });
                    }
                    if defaults[k].data_type() != ty {
                        return Err(PlanError::TypeMismatch {
                            context: format!("left-single default for {name}"),
                            expected: ty.to_string(),
                            found: defaults[k].data_type(),
                        });
                    }
                }
                payload_idx.push(i);
                fields.push(Field::new(alias, ty));
            }
            check_unique(&fields)?;
            Ok(LogicalPlan::HashJoin {
                build: Box::new(build),
                probe: Box::new(probe),
                build_keys,
                probe_keys,
                payload: payload_idx,
                kind,
                bloom,
                defaults,
                label,
                schema: Schema::new(fields),
            })
        })
    }

    /// Merge-joins `self` (the streaming, possibly-duplicated right side)
    /// against `left` (unique keys, materialized). `on` is `(right_col,
    /// left_col)`; both inputs must arrive key-sorted. The builder
    /// enforces this structurally: each input must be a
    /// Filter/Project chain over a (key-clustered) scan — whose row order
    /// the physical planner then protects by keeping its scans
    /// sequential — or a `sort` whose primary key is the join key
    /// ascending. Order-destroying inputs (hash aggregates, hash joins,
    /// differently-keyed sorts) are a typed [`PlanError`] at `build()`.
    /// Output: right columns, then the named `left` payload columns
    /// (aliasable).
    pub fn merge_join(
        self,
        left: PlanBuilder,
        on: (&str, &str),
        payload: &[&str],
        label: &str,
    ) -> Self {
        let label = label.to_string();
        let (rk, lk) = (on.0.to_string(), on.1.to_string());
        let payload: Vec<String> = payload.iter().map(|s| s.to_string()).collect();
        self.and_then(move |right| {
            let left = left.build()?;
            let (right_schema, left_schema) = (right.schema(), left.schema());
            let ri = resolve_col(right_schema, &rk)?;
            let li = resolve_col(left_schema, &lk)?;
            for (side, name, ty) in [
                ("right", &rk, right_schema.field(ri).ty),
                ("left", &lk, left_schema.field(li).ty),
            ] {
                if !integer(ty) {
                    return Err(PlanError::TypeMismatch {
                        context: format!("{side} merge-join key {name}"),
                        expected: "an integer column".into(),
                        found: ty,
                    });
                }
            }
            check_merge_input("right", &right, ri)?;
            check_merge_input("left", &left, li)?;
            let mut fields = right_schema.fields().to_vec();
            let mut payload_idx = Vec::with_capacity(payload.len());
            for spec in &payload {
                let (name, alias) = parse_alias(spec);
                let i = resolve_col(left_schema, name)?;
                payload_idx.push(i);
                fields.push(Field::new(alias, left_schema.field(i).ty));
            }
            check_unique(&fields)?;
            Ok(LogicalPlan::MergeJoin {
                left: Box::new(left),
                right: Box::new(right),
                left_key: li,
                right_key: ri,
                payload: payload_idx,
                label,
                schema: Schema::new(fields),
            })
        })
    }

    /// Sorts by `keys` (leftmost primary).
    pub fn sort(self, keys: &[SortKey<String>]) -> Self {
        self.sort_limit(keys, None)
    }

    /// Sorts by `keys` and keeps the first `n` rows (top-N).
    pub fn top_n(self, keys: &[SortKey<String>], n: usize) -> Self {
        self.sort_limit(keys, Some(n))
    }

    pub(crate) fn sort_limit(self, keys: &[SortKey<String>], limit: Option<usize>) -> Self {
        let keys = keys.to_vec();
        self.and_then(move |input| {
            let schema = input.schema().clone();
            let keys = keys
                .iter()
                .map(|k| k.try_map_col(&mut |name| resolve_col(&schema, name)))
                .collect::<Result<Vec<_>, PlanError>>()?;
            Ok(LogicalPlan::Sort {
                input: Box::new(input),
                keys,
                limit,
                schema,
            })
        })
    }

    /// The current node's output schema, or `None` once an error has been
    /// recorded. The text front end peeks at this between stages to coerce
    /// integer literals to the column type they meet (the builder itself
    /// requires exact [`crate::expr::Value`] types).
    pub fn peek_schema(&self) -> Option<&Schema> {
        self.state.as_ref().ok().map(|p| p.schema())
    }

    /// Finishes the plan, surfacing the first recorded error.
    pub fn build(self) -> Result<LogicalPlan, PlanError> {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{asc, col, count, lit_i64, sum_i64};
    use crate::CmpKind;
    use ma_vector::ColumnBuilder;
    use std::collections::HashMap;

    fn table(name: &str, n: usize) -> Arc<Table> {
        let mut k = ColumnBuilder::with_capacity(DataType::I32, n);
        let mut v = ColumnBuilder::with_capacity(DataType::I64, n);
        let mut s = ColumnBuilder::with_capacity(DataType::Str, n);
        let mut f = ColumnBuilder::with_capacity(DataType::F64, n);
        for i in 0..n {
            k.push_i32((i % 7) as i32);
            v.push_i64(i as i64);
            s.push_str(["a", "b", "c"][i % 3]);
            f.push_f64(i as f64);
        }
        Arc::new(
            Table::new(
                name,
                vec![
                    ("k".into(), k.finish()),
                    ("v".into(), v.finish()),
                    ("s".into(), s.finish()),
                    ("f".into(), f.finish()),
                ],
            )
            .unwrap(),
        )
    }

    fn catalog() -> HashMap<String, Arc<Table>> {
        let mut c = HashMap::new();
        c.insert("t".to_string(), table("t", 100));
        c.insert("d".to_string(), table("d", 10));
        c
    }

    #[test]
    fn schema_tracks_through_pipeline() {
        let plan = PlanBuilder::scan(&catalog(), "t", &["k", "v as val", "s"])
            .filter(
                NamedPred::cmp_val("val", CmpKind::Lt, Value::I64(50)),
                "sel",
            )
            .hash_agg(&["s"], vec![count(), sum_i64("val").named("total")], "agg")
            .sort(&[asc("s")])
            .build()
            .unwrap();
        assert_eq!(plan.schema().names(), vec!["s", "count", "total"]);
        assert_eq!(
            plan.schema().types(),
            vec![DataType::Str, DataType::I64, DataType::I64]
        );
    }

    #[test]
    fn unknown_table_and_column() {
        assert!(matches!(
            PlanBuilder::scan(&catalog(), "nope", &["k"]).build(),
            Err(PlanError::UnknownTable(_))
        ));
        assert!(matches!(
            PlanBuilder::scan(&catalog(), "t", &["zzz"]).build(),
            Err(PlanError::UnknownColumn { .. })
        ));
        // Errors stick: later stages do not panic or mask them.
        assert!(matches!(
            PlanBuilder::scan(&catalog(), "t", &["zzz"])
                .filter(NamedPred::str_eq("s", "a"), "sel")
                .sort(&[asc("s")])
                .build(),
            Err(PlanError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn join_key_type_mismatch() {
        let c = catalog();
        // String probe key.
        let err = PlanBuilder::scan(&c, "t", &["s", "v"])
            .hash_join(
                PlanBuilder::scan(&c, "d", &["k"]),
                &[("s", "k")],
                &[],
                JoinKind::Semi,
                false,
                "j",
            )
            .build();
        assert!(
            matches!(err, Err(PlanError::TypeMismatch { .. })),
            "{err:?}"
        );
        // f64 build key.
        let err = PlanBuilder::scan(&c, "t", &["k"])
            .hash_join(
                PlanBuilder::scan(&c, "d", &["f"]),
                &[("k", "f")],
                &[],
                JoinKind::Semi,
                false,
                "j",
            )
            .build();
        assert!(
            matches!(err, Err(PlanError::TypeMismatch { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn aggregate_over_non_numeric_column() {
        let err = PlanBuilder::scan(&catalog(), "t", &["k", "s"])
            .hash_agg(&["k"], vec![sum_i64("s")], "agg")
            .build();
        assert!(
            matches!(err, Err(PlanError::TypeMismatch { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn duplicate_output_columns_rejected() {
        let c = catalog();
        assert!(matches!(
            PlanBuilder::scan(&c, "t", &["k", "v as k"]).build(),
            Err(PlanError::DuplicateColumn(_))
        ));
        // Join payload colliding with a probe column.
        let err = PlanBuilder::scan(&c, "t", &["k", "v"])
            .hash_join(
                PlanBuilder::scan(&c, "d", &["k", "v"]),
                &[("k", "k")],
                &["v"],
                JoinKind::Inner,
                false,
                "j",
            )
            .build();
        assert!(matches!(err, Err(PlanError::DuplicateColumn(_))), "{err:?}");
        // ... fixed by an alias.
        let ok = PlanBuilder::scan(&c, "t", &["k", "v"])
            .hash_join(
                PlanBuilder::scan(&c, "d", &["k", "v"]),
                &[("k", "k")],
                &["v as dv"],
                JoinKind::Inner,
                false,
                "j",
            )
            .build()
            .unwrap();
        assert_eq!(ok.schema().names(), vec!["k", "v", "dv"]);
    }

    #[test]
    fn semi_join_payload_rejected() {
        let c = catalog();
        assert!(matches!(
            PlanBuilder::scan(&c, "t", &["k"])
                .hash_join(
                    PlanBuilder::scan(&c, "d", &["k", "v"]),
                    &[("k", "k")],
                    &["v"],
                    JoinKind::Semi,
                    false,
                    "j",
                )
                .build(),
            Err(PlanError::Invalid(_))
        ));
    }

    #[test]
    fn merge_join_rejects_order_destroying_inputs() {
        let c = catalog();
        // Hash aggregate output arrives in hash/first-seen order, not key
        // order: typed error at build().
        let err = PlanBuilder::scan(&c, "t", &["k", "v"])
            .hash_agg(&["k"], vec![sum_i64("v")], "agg")
            .merge_join(
                PlanBuilder::scan(&c, "d", &["k as dk", "v as dv"]),
                ("k", "dk"),
                &["dv"],
                "mj",
            )
            .build();
        assert!(matches!(err, Err(PlanError::Invalid(_))), "{err:?}");
        // ... as does an order-destroying *left* side.
        let err = PlanBuilder::scan(&c, "t", &["k", "v"])
            .merge_join(
                PlanBuilder::scan(&c, "d", &["k as dk", "v as dv"]).hash_agg(
                    &["dk"],
                    vec![sum_i64("dv")],
                    "agg",
                ),
                ("k", "dk"),
                &[],
                "mj",
            )
            .build();
        assert!(matches!(err, Err(PlanError::Invalid(_))), "{err:?}");
        // Clustering-key (first-column) joins over plain scans are the
        // blessed shape...
        let ok = PlanBuilder::scan(&c, "t", &["k", "v"])
            .merge_join(
                PlanBuilder::scan(&c, "d", &["k as dk", "v as dv"]),
                ("k", "dk"),
                &["dv"],
                "mj",
            )
            .build();
        assert!(ok.is_ok(), "{ok:?}");
        // ... but a non-clustering key column has no stored order.
        let err = PlanBuilder::scan(&c, "t", &["k", "v"])
            .merge_join(
                PlanBuilder::scan(&c, "d", &["k as dk", "v as dv"]),
                ("v", "dv"),
                &[],
                "mj",
            )
            .build();
        assert!(matches!(err, Err(PlanError::Invalid(_))), "{err:?}");
        // An explicit ascending sort on the join key re-establishes order
        // and is accepted; sorting by anything else is not.
        let sorted_ok = PlanBuilder::scan(&c, "t", &["k", "v"])
            .merge_join(
                PlanBuilder::scan(&c, "d", &["k as dk", "v as dv"]).sort(&[asc("dk")]),
                ("k", "dk"),
                &["dv"],
                "mj",
            )
            .build();
        assert!(sorted_ok.is_ok(), "{sorted_ok:?}");
        let err = PlanBuilder::scan(&c, "t", &["k", "v"])
            .merge_join(
                PlanBuilder::scan(&c, "d", &["k as dk", "v as dv"]).sort(&[asc("dv")]),
                ("k", "dk"),
                &["dv"],
                "mj",
            )
            .build();
        assert!(matches!(err, Err(PlanError::Invalid(_))), "{err:?}");
    }

    #[test]
    fn left_single_default_type_checked() {
        let c = catalog();
        let err = PlanBuilder::scan(&c, "t", &["k"])
            .left_single_join(
                PlanBuilder::scan(&c, "d", &["k", "v"]),
                &[("k", "k")],
                &[("v", Value::I32(0))],
                "j",
            )
            .build();
        assert!(
            matches!(err, Err(PlanError::TypeMismatch { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn project_mixes_pass_and_compute() {
        let plan = PlanBuilder::scan(&catalog(), "t", &["k", "v"])
            .project(
                vec![("v", col("v")), ("v2", col("v").mul(lit_i64(2)))],
                "proj",
            )
            .build()
            .unwrap();
        let LogicalPlan::Project { items, schema, .. } = &plan else {
            panic!("expected project");
        };
        assert!(matches!(items[0], ProjItem::Pass(1)));
        assert!(matches!(items[1], ProjItem::Expr(_)));
        assert_eq!(schema.names(), vec!["v", "v2"]);
    }
}
