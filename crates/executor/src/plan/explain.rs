//! `EXPLAIN`-style rendering of logical and physical plans.
//!
//! [`LogicalPlan`] implements [`std::fmt::Display`] as an indented tree.
//! Every line shows the node, its parameters mapped back to column
//! *names*, and the resolved output schema. Scans additionally carry the
//! structural verdict: `(shardable)` when the pipeline above is
//! order-insensitive (so the planner may shard it across workers),
//! `(ordered)` when an ancestor merge join constrains it.
//!
//! [`explain_physical`] renders the [`PhysicalPlan`] the planner makes
//! for a concrete [`ExecConfig`] — the same tree, annotated from the
//! plan's own nodes: `HashAgg (partitioned ×P)` / `HashJoin (partitioned
//! ×P)` where an [`Exchange::HashPartition`] routes the operator,
//! `HashJoin (in fragment ×N, shared build)` where the join probes inside
//! the `N` worker fragments of a sharded chain, and a `Merge ×N` line
//! above each ordered chain that shards into `(morsel)` scans re-merged
//! by an [`Exchange::Merge`].

use std::fmt;

use ma_vector::Schema;

use crate::config::ExecConfig;
use crate::expr::{Agg, CmpKind, CmpRhs, Expr, Pred, Value};
use crate::ops::{JoinKind, ProjItem};
use crate::plan::{plan_physical, Exchange, LogicalPlan, PhysNode};

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_node(f, self, None, 0, None, "shardable")
    }
}

/// Renders the physical plan of `plan` under `config` (worker count,
/// partition knobs): operators the planner partitions are annotated
/// `(partitioned ×P)`, joins probing in worker fragments `(in fragment ×N,
/// shared build)`, and ordered chains it shards render under a `Merge ×N`
/// node with `(morsel)` scans.
pub fn explain_physical(plan: &LogicalPlan, config: &ExecConfig) -> String {
    struct Physical<'p, 'a>(&'p PhysNode<'a>);
    impl fmt::Display for Physical<'_, '_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            fmt_node(f, self.0.logical, Some(self.0), 0, None, "shardable")
        }
    }
    match plan_physical(plan, config) {
        Ok(phys) => Physical(&phys.root).to_string(),
        Err(e) => format!("{plan}-- no physical plan: {e}\n"),
    }
}

/// Renders `plan` and its subtree; with `phys` (the node implementing
/// `plan`) the physical annotations too. `scan_mode` is what a scan
/// reached from here shows: `shardable` until a merge join makes its
/// streaming inputs `ordered` (sorts, aggregates and join builds reset
/// it), `morsel` beneath a merging exchange.
fn fmt_node(
    f: &mut fmt::Formatter<'_>,
    plan: &LogicalPlan,
    phys: Option<&PhysNode<'_>>,
    mut indent: usize,
    mut tag: Option<&str>,
    mut scan_mode: &'static str,
) -> fmt::Result {
    let exchange = phys.map(|p| &p.exchange);
    if let Some(Exchange::Merge { producers, key, .. }) = exchange {
        write!(f, "{:indent$}", "", indent = indent * 2)?;
        if let Some(t) = tag.take() {
            write!(f, "{t}: ")?;
        }
        let schema = plan.schema();
        writeln!(
            f,
            "Merge \u{d7}{producers} on {} -> {schema}",
            schema.field(*key).name
        )?;
        indent += 1;
        scan_mode = "morsel";
    }
    // How the planner parallelized an aggregate or join.
    let verdict = match exchange {
        Some(Exchange::HashPartition { partitions, .. }) => {
            format!("(partitioned \u{d7}{partitions}) ")
        }
        _ => match phys.map_or(1, |p| p.fragments) {
            1 => String::new(),
            n => format!("(in fragment \u{d7}{n}, shared build) "),
        },
    };
    let child = |i: usize| phys.and_then(|p| p.children.get(i));
    write!(f, "{:indent$}", "", indent = indent * 2)?;
    if let Some(t) = tag {
        write!(f, "{t}: ")?;
    }
    match plan {
        LogicalPlan::Scan {
            table,
            cols,
            schema,
            ..
        } => {
            // Per-column storage codecs, so the plan shows which scans
            // decode through flavored primitives (`enc=[col:codec, ..]`).
            let encs: Vec<String> = cols
                .iter()
                .filter_map(|name| {
                    let i = table.column_index(name).ok()?;
                    let e = table.column_at(i).encoding()?;
                    Some(format!("{name}:{e}"))
                })
                .collect();
            if encs.is_empty() {
                writeln!(f, "Scan {} ({scan_mode}) -> {schema}", table.name())
            } else {
                writeln!(
                    f,
                    "Scan {} ({scan_mode}) enc=[{}] -> {schema}",
                    table.name(),
                    encs.join(", ")
                )
            }
        }
        LogicalPlan::Filter {
            input,
            pred,
            schema,
            ..
        } => {
            writeln!(
                f,
                "Filter {} -> {schema}",
                render_pred(pred, input.schema())
            )?;
            fmt_node(f, input, child(0), indent + 1, None, scan_mode)
        }
        LogicalPlan::Project {
            input,
            items,
            schema,
            ..
        } => {
            let parts: Vec<String> = items
                .iter()
                .zip(schema.fields())
                .map(|(item, field)| match item {
                    ProjItem::Pass(i) if input.schema().field(*i).name == field.name => {
                        field.name.clone()
                    }
                    ProjItem::Pass(i) => {
                        format!("{}={}", field.name, input.schema().field(*i).name)
                    }
                    ProjItem::Expr(e) => {
                        format!("{}={}", field.name, render_expr(e, input.schema()))
                    }
                })
                .collect();
            writeln!(f, "Project [{}] -> {schema}", parts.join(", "))?;
            fmt_node(f, input, child(0), indent + 1, None, scan_mode)
        }
        LogicalPlan::HashAgg {
            input,
            keys,
            aggs,
            schema,
            ..
        } => {
            let key_names: Vec<&str> = keys
                .iter()
                .map(|&i| input.schema().field(i).name.as_str())
                .collect();
            writeln!(
                f,
                "HashAgg {verdict}keys=[{}] aggs=[{}] -> {schema}",
                key_names.join(", "),
                render_aggs(aggs, keys.len(), input.schema(), schema)
            )?;
            fmt_node(f, input, child(0), indent + 1, None, "shardable")
        }
        LogicalPlan::StreamAgg {
            input,
            aggs,
            schema,
            ..
        } => {
            writeln!(
                f,
                "StreamAgg [{}] -> {schema}",
                render_aggs(aggs, 0, input.schema(), schema)
            )?;
            fmt_node(f, input, child(0), indent + 1, None, "shardable")
        }
        LogicalPlan::HashJoin {
            build,
            probe,
            build_keys,
            probe_keys,
            payload,
            kind,
            bloom,
            schema,
            ..
        } => {
            let kind_name = match kind {
                JoinKind::Inner => "inner",
                JoinKind::Semi => "semi",
                JoinKind::Anti => "anti",
                JoinKind::LeftSingle => "left-single",
            };
            let on: Vec<String> = probe_keys
                .iter()
                .zip(build_keys)
                .map(|(&p, &b)| {
                    format!(
                        "{} = {}",
                        probe.schema().field(p).name,
                        build.schema().field(b).name
                    )
                })
                .collect();
            let pay: Vec<&str> = payload
                .iter()
                .map(|&i| build.schema().field(i).name.as_str())
                .collect();
            write!(f, "HashJoin {verdict}{kind_name} on ({})", on.join(", "))?;
            if !pay.is_empty() {
                write!(f, " payload=[{}]", pay.join(", "))?;
            }
            if *bloom {
                write!(f, " bloom")?;
            }
            writeln!(f, " -> {schema}")?;
            // Build materializes (resets order); probe streams (inherits).
            fmt_node(f, build, child(0), indent + 1, Some("build"), "shardable")?;
            fmt_node(f, probe, child(1), indent + 1, Some("probe"), scan_mode)
        }
        LogicalPlan::MergeJoin {
            left,
            right,
            left_key,
            right_key,
            payload,
            schema,
            ..
        } => {
            let pay: Vec<&str> = payload
                .iter()
                .map(|&i| left.schema().field(i).name.as_str())
                .collect();
            write!(
                f,
                "MergeJoin on ({} = {})",
                right.schema().field(*right_key).name,
                left.schema().field(*left_key).name
            )?;
            if !pay.is_empty() {
                write!(f, " payload=[{}]", pay.join(", "))?;
            }
            writeln!(f, " -> {schema}")?;
            // Order-sensitive: both inputs stream in key order until an
            // order-resetting node below takes over.
            fmt_node(f, left, child(0), indent + 1, Some("left"), "ordered")?;
            fmt_node(f, right, child(1), indent + 1, Some("right"), "ordered")
        }
        LogicalPlan::Sort {
            input,
            keys,
            limit,
            schema,
        } => {
            let ks: Vec<String> = keys
                .iter()
                .map(|k| {
                    format!(
                        "{} {}",
                        input.schema().field(k.col).name,
                        if k.desc { "desc" } else { "asc" }
                    )
                })
                .collect();
            write!(f, "Sort [{}]", ks.join(", "))?;
            if let Some(l) = limit {
                write!(f, " limit={l}")?;
            }
            writeln!(f, " -> {schema}")?;
            fmt_node(f, input, child(0), indent + 1, None, "shardable")
        }
    }
}

fn render_aggs(aggs: &[Agg], key_count: usize, input: &Schema, out: &Schema) -> String {
    aggs.iter()
        .enumerate()
        .map(|(i, agg)| {
            let out_name = &out.field(key_count + i).name;
            match agg.of {
                Some((func, ty, c)) => {
                    let (func, ty, col) = (func.name(), ty.data_type(), &input.field(c).name);
                    format!("{out_name}={func}_{ty}({col})")
                }
                None => format!("{out_name}=count(*)"),
            }
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn render_value(v: &Value) -> String {
    match v {
        Value::I16(x) => x.to_string(),
        Value::I32(x) => x.to_string(),
        Value::I64(x) => x.to_string(),
        Value::F64(x) => x.to_string(),
        Value::Str(s) => format!("'{s}'"),
    }
}

fn cmp_symbol(op: CmpKind) -> &'static str {
    match op {
        CmpKind::Lt => "<",
        CmpKind::Le => "<=",
        CmpKind::Gt => ">",
        CmpKind::Ge => ">=",
        CmpKind::Eq => "=",
        CmpKind::Ne => "<>",
    }
}

/// Renders a resolved predicate with indices mapped back to names.
pub(crate) fn render_pred(pred: &Pred, schema: &Schema) -> String {
    match pred {
        Pred::Cmp { col, op, rhs } => {
            let lhs = &schema.field(*col).name;
            let rhs = match rhs {
                CmpRhs::Const(v) => render_value(v),
                CmpRhs::Col(i) => schema.field(*i).name.clone(),
            };
            format!("{lhs} {} {rhs}", cmp_symbol(*op))
        }
        Pred::Like {
            col,
            pattern,
            negated,
        } => {
            let not = if *negated { "NOT " } else { "" };
            format!("{} {not}LIKE '{pattern}'", schema.field(*col).name)
        }
        Pred::InStr { col, values } => {
            let vs: Vec<String> = values.iter().map(|v| format!("'{v}'")).collect();
            format!("{} IN ({})", schema.field(*col).name, vs.join(", "))
        }
        Pred::And(ps) => ps
            .iter()
            .map(|p| paren_composite(p, schema))
            .collect::<Vec<_>>()
            .join(" AND "),
        Pred::Or(ps) => ps
            .iter()
            .map(|p| paren_composite(p, schema))
            .collect::<Vec<_>>()
            .join(" OR "),
    }
}

fn paren_composite(p: &Pred, schema: &Schema) -> String {
    match p {
        Pred::And(_) | Pred::Or(_) => format!("({})", render_pred(p, schema)),
        _ => render_pred(p, schema),
    }
}

/// Renders a resolved expression with indices mapped back to names.
pub(crate) fn render_expr(expr: &Expr, schema: &Schema) -> String {
    match expr {
        Expr::Col(i) => schema.field(*i).name.clone(),
        Expr::Const(v) => render_value(v),
        Expr::Arith { op, lhs, rhs } => {
            let sym = match op {
                crate::expr::ArithKind::Add => "+",
                crate::expr::ArithKind::Sub => "-",
                crate::expr::ArithKind::Mul => "*",
                crate::expr::ArithKind::Div => "/",
            };
            format!(
                "({} {sym} {})",
                render_expr(lhs, schema),
                render_expr(rhs, schema)
            )
        }
        Expr::Cast { to, inner } => format!("{to}({})", render_expr(inner, schema)),
        Expr::Substr { col, start, len } => {
            format!("substr({}, {start}, {len})", schema.field(*col).name)
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::ops::JoinKind;
    use crate::plan::{asc, col, count, lit_f64, sum_f64, NamedPred, PlanBuilder};
    use ma_vector::{ColumnBuilder, DataType, Table};
    use std::collections::HashMap;
    use std::sync::Arc;

    fn catalog() -> HashMap<String, Arc<Table>> {
        let mk = |name: &str| {
            let mut k = ColumnBuilder::with_capacity(DataType::I32, 4);
            let mut s = ColumnBuilder::with_capacity(DataType::Str, 4);
            let mut x = ColumnBuilder::with_capacity(DataType::F64, 4);
            for i in 0..4 {
                k.push_i32(i as i32);
                s.push_str(["a", "b", "c", "d"][i]);
                x.push_f64(i as f64);
            }
            Arc::new(
                Table::new(
                    name,
                    vec![
                        ("k".into(), k.finish()),
                        ("s".into(), s.finish()),
                        ("x".into(), x.finish()),
                    ],
                )
                .unwrap(),
            )
        };
        let mut c = HashMap::new();
        c.insert("t".to_string(), mk("t"));
        c.insert("d".to_string(), mk("d"));
        c
    }

    #[test]
    fn renders_full_tree_with_schemas() {
        let c = catalog();
        let plan = PlanBuilder::scan(&c, "t", &["k", "s", "x"])
            .filter(NamedPred::in_str("s", ["a", "b"]), "sel")
            .hash_join(
                PlanBuilder::scan(&c, "d", &["k as dk", "x as dx"]),
                &[("k", "dk")],
                &["dx"],
                JoinKind::Inner,
                true,
                "j",
            )
            .project(
                vec![("s", col("s")), ("y", col("x").mul(lit_f64(2.0)))],
                "p",
            )
            .hash_agg(&["s"], vec![count(), sum_f64("y")], "agg")
            .sort(&[asc("s")])
            .build()
            .unwrap();
        let text = plan.to_string();
        let expected = "\
Sort [s asc] -> (s:str, count:i64, sum_y:f64)
  HashAgg keys=[s] aggs=[count=count(*), sum_y=sum_f64(y)] -> (s:str, count:i64, sum_y:f64)
    Project [s, y=(x * 2)] -> (s:str, y:f64)
      HashJoin inner on (k = dk) payload=[dx] bloom -> (k:i32, s:str, x:f64, dx:f64)
        build: Scan d (shardable) -> (dk:i32, dx:f64)
        probe: Filter s IN ('a', 'b') -> (k:i32, s:str, x:f64)
          Scan t (shardable) -> (k:i32, s:str, x:f64)
";
        assert_eq!(text, expected);
    }

    #[test]
    fn merge_join_marks_scans_ordered() {
        let c = catalog();
        let plan = PlanBuilder::scan(&c, "t", &["k", "s"])
            .merge_join(
                PlanBuilder::scan(&c, "d", &["k as dk", "s as ds"]),
                ("k", "dk"),
                &["ds"],
                "mj",
            )
            .build()
            .unwrap();
        let text = plan.to_string();
        assert!(text.contains("left: Scan d (ordered)"), "{text}");
        assert!(text.contains("right: Scan t (ordered)"), "{text}");
        assert!(!text.contains("shardable"), "{text}");
    }

    #[test]
    fn physical_rendering_shows_partition_verdict() {
        use crate::config::ExecConfig;
        let c = catalog();
        let plan = PlanBuilder::scan(&c, "t", &["k", "x"])
            .hash_agg(&["k"], vec![count(), sum_f64("x")], "agg")
            .build()
            .unwrap();
        // Structural rendering carries no physical verdict.
        assert!(!plan.to_string().contains("partitioned"), "{plan}");
        // 4 workers + a trivial group threshold: the planner partitions.
        let mut cfg = ExecConfig::fixed_default();
        cfg.worker_threads = 4;
        cfg.agg_min_partition_groups = 1;
        let text = super::explain_physical(&plan, &cfg);
        assert!(
            text.contains("HashAgg (partitioned \u{d7}4) keys=[k]"),
            "{text}"
        );
        // A single-worker config renders the same tree unannotated.
        let text1 = super::explain_physical(&plan, &ExecConfig::fixed_default());
        assert_eq!(text1, plan.to_string());
    }

    #[test]
    fn pred_rendering_covers_all_forms() {
        use crate::expr::{CmpKind, Value};
        let c = catalog();
        let plan = PlanBuilder::scan(&c, "t", &["k", "s", "x"])
            .filter(
                NamedPred::Or(vec![
                    NamedPred::And(vec![
                        NamedPred::cmp_val("k", CmpKind::Ge, Value::I32(1)),
                        NamedPred::not_like("s", "%z%"),
                    ]),
                    NamedPred::cmp_col("x", CmpKind::Lt, "x"),
                ]),
                "sel",
            )
            .build()
            .unwrap();
        let text = plan.to_string();
        assert!(
            text.contains("Filter (k >= 1 AND s NOT LIKE '%z%') OR x < x"),
            "{text}"
        );
    }
}
