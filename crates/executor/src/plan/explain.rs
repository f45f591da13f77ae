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
//! plan's own nodes: `HashAgg (partitioned ×P)` where an
//! [`Exchange::HashPartition`] routes the aggregate's input, `HashAgg
//! (two-phase ×N)` where it tops a sharded chain as a partial in each of
//! its `N` worker fragments plus one combine, and `HashJoin (in fragment
//! ×N, shared build)` where the join probes inside those fragments. Ordered chains never
//! shard, so their scans stay `(ordered)`. A scan right under a Filter
//! shows its zone-map `guards=[..]` and the `zone_preds=[..]`, the
//! Filter conjuncts it evaluates itself.
//!
//! Both views are one walk. [`PhysicalPlan::render`] is that walk with
//! caller-supplied lines under each node's own line: `repro analyze`
//! prints each node's facts and priced stages there
//! ([`PhysicalPlan::render_analysis`]), `repro mem` its stages and memory
//! trackers.

use std::fmt;
use std::num::NonZeroUsize;

use ma_vector::Schema;

use crate::config::ExecConfig;
use crate::cost::CostReport;
use crate::expr::{Agg, CmpKind, CmpRhs, Expr, Pred, Value};
use crate::ops::{JoinKind, KeyDomain, ProjItem, ZoneGuard, ZonePred};
use crate::plan::lower::zone_conjuncts;
use crate::plan::{plan_physical, Exchange, LogicalPlan, PhysNode, PhysicalPlan};

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = &mut Walk(f, &|_| Vec::new());
        fmt_node(w, self, None, 0, None, "shardable", &[])
    }
}

/// Renders the physical plan of `plan` under `config` (worker count,
/// partition knobs): aggregates the planner partitions are annotated
/// `(partitioned ×P)`, two-phase ones `(two-phase ×N)`, and joins probing
/// in worker fragments `(in fragment ×N, shared build)`.
pub fn explain_physical(plan: &LogicalPlan, config: &ExecConfig) -> String {
    match plan_physical(plan, config) {
        Ok(phys) => phys.to_string(),
        Err(e) => format!("{plan}-- no physical plan: {e}\n"),
    }
}

impl fmt::Display for PhysicalPlan<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render(&|_| Vec::new()))
    }
}

impl fmt::Debug for PhysicalPlan<'_> {
    /// Debug output reuses the physical EXPLAIN rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl PhysicalPlan<'_> {
    /// The plan as [`fmt::Display`] renders it, with the lines `note`
    /// returns for each node printed under that node's own line, one
    /// indentation step in and marked `·`. `Display` is this walk with no
    /// notes.
    pub fn render(&self, note: Note<'_>) -> String {
        let (mut out, root) = (String::new(), &self.root);
        let w = &mut Walk(&mut out, note);
        // Writing into a `String` cannot fail.
        let _ = fmt_node(
            w,
            root.logical,
            Some((root, None)),
            0,
            None,
            "shardable",
            &[],
        );
        out
    }

    /// The `repro analyze` view: under each node its id and proven row
    /// bound, the bytes `report` prices each of its stages at (per
    /// instance × instances), and each output column's domain, NDV bound
    /// and distinctness.
    pub fn render_analysis(&self, report: &CostReport) -> String {
        self.render(&|node| {
            let mut lines = vec![format!("n{} rows\u{2264}{}", node.id.0, node.rows)];
            lines.extend(report.stages(node.id).map(ToString::to_string));
            let fields = node.logical.schema().fields();
            lines.extend(fields.iter().zip(&node.cols).map(|(field, fact)| {
                let distinct = if fact.distinct { " distinct" } else { "" };
                format!(
                    "{}: {} ndv\u{2264}{}{distinct}",
                    field.name, fact.domain, fact.ndv
                )
            }));
            lines
        })
    }
}

/// The lines a rendering prints under each physical node's own line.
type Note<'n> = &'n dyn Fn(&PhysNode<'_>) -> Vec<String>;

/// The one plan printer's output and its notes (none for a logical
/// plan's structural view).
struct Walk<'w, 'n>(&'w mut dyn fmt::Write, Note<'n>);

/// A zone guard as the comparison it stands for: `lo <= col <= hi`, with
/// an unbounded side left out and `col = v` for a point.
fn render_guard(g: &ZoneGuard, col: &str) -> String {
    match (g.lo, g.hi) {
        (lo, hi) if lo == hi => format!("{col} = {lo}"),
        (i128::MIN, hi) => format!("{col} <= {hi}"),
        (lo, i128::MAX) => format!("{col} >= {lo}"),
        (lo, hi) => format!("{lo} <= {col} <= {hi}"),
    }
}

/// One dense key domain: `lo <= key <= hi`, or `key: N codes`.
fn render_key_domain(d: &KeyDomain, key: &str) -> String {
    match d {
        KeyDomain::Int { lo, hi } => format!("{lo} <= {key} <= {hi}"),
        KeyDomain::Dict(d) => format!("{key}: {} codes", d.views.len()),
    }
}

/// Renders the line of scan `plan` after its indentation; with `phys`
/// (the node implementing it) its zone-map guards too, and `owned`, the
/// zone conjuncts it takes from the Filter above it.
fn fmt_scan(
    f: &mut dyn fmt::Write,
    plan: &LogicalPlan,
    phys: Option<&PhysNode<'_>>,
    scan_mode: &'static str,
    owned: &[ZonePred],
) -> fmt::Result {
    let LogicalPlan::Scan {
        table,
        cols,
        schema,
        ..
    } = plan
    else {
        unreachable!("fmt_scan renders scans");
    };
    // Per-column storage codecs, so the plan shows which scans decode
    // through flavored primitives (`enc=[col:codec, ..]`).
    let encs: Vec<String> = cols
        .iter()
        .filter_map(|name| {
            let i = table.column_index(name).ok()?;
            let e = table.column_at(i).encoding()?;
            Some(format!("{name}:{e}"))
        })
        .collect();
    write!(f, "Scan {} ({scan_mode}) ", table.name())?;
    if !encs.is_empty() {
        write!(f, "enc=[{}] ", encs.join(", "))?;
    }
    // The zone-map guards the planner gave the scan.
    let guards: Vec<String> = phys
        .map_or(&[][..], |p| &p.guards[..])
        .iter()
        .map(|g| render_guard(g, &cols[g.col]))
        .collect();
    if !guards.is_empty() {
        write!(f, "guards=[{}] ", guards.join(", "))?;
    }
    // The Filter conjuncts the scan evaluates itself.
    if !owned.is_empty() {
        let preds: Vec<String> = owned.iter().map(|z| render_pred(&z.pred, schema)).collect();
        write!(f, "zone_preds=[{}] ", preds.join(", "))?;
    }
    writeln!(f, "-> {schema}")
}

/// Renders `plan` and its subtree; with `phys` (the node implementing
/// `plan`, and the sharded chain its parent places it in) the physical
/// annotations too, and the node's notes under its line. `scan_mode` is what a scan reached from here shows: `shardable`
/// until a merge join makes its streaming inputs `ordered` (sorts,
/// aggregates and join builds reset it). `owned` are the zone conjuncts
/// a scan takes from the physical Filter above it.
fn fmt_node(
    w: &mut Walk<'_, '_>,
    plan: &LogicalPlan,
    phys: Option<(&PhysNode<'_>, Option<NonZeroUsize>)>,
    indent: usize,
    tag: Option<&str>,
    scan_mode: &'static str,
    owned: &[ZonePred],
) -> fmt::Result {
    let chains = phys.map(|(p, within)| p.chains(within));
    let fragments = chains.and_then(|(own, _)| own).map_or(1, NonZeroUsize::get);
    let phys = phys.map(|(p, _)| p);
    // How the planner parallelized an aggregate or join.
    let verdict = match phys.map(|p| (&p.exchange, p.two_phase())) {
        Some((Exchange::HashPartition { partitions, .. }, _)) => {
            format!("(partitioned \u{d7}{partitions}) ")
        }
        Some((_, true)) => format!("(two-phase \u{d7}{fragments}) "),
        _ => match fragments {
            1 => String::new(),
            n => format!("(in fragment \u{d7}{n}, shared build) "),
        },
    };
    let f = &mut *w.0;
    write!(f, "{:indent$}", "", indent = indent * 2)?;
    if let Some(t) = tag {
        write!(f, "{t}: ")?;
    }
    // The inputs beneath, with their tags and scan modes, and the zone
    // conjuncts a scan right beneath a physical Filter owns.
    let mut owned_below = Vec::new();
    let inputs: Vec<(&LogicalPlan, Option<&str>, &'static str)> = match plan {
        LogicalPlan::Scan { .. } => {
            fmt_scan(f, plan, phys, scan_mode, owned)?;
            Vec::new()
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
            if let (Some(_), LogicalPlan::Scan { schema, .. }) = (phys, &**input) {
                owned_below = zone_conjuncts(pred, &schema.types()).0;
            }
            vec![(input, None, scan_mode)]
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
            vec![(input, None, scan_mode)]
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
            write!(f, "HashAgg {verdict}keys=[{}] ", key_names.join(", "))?;
            // The key domains a dense key table indexes.
            let dense = phys.map_or(&[][..], |p| &p.dense_keys[..]);
            if !dense.is_empty() {
                let domains: Vec<String> = dense
                    .iter()
                    .zip(&key_names)
                    .map(|(d, name)| render_key_domain(d, name))
                    .collect();
                write!(f, "dense=[{}] ", domains.join(", "))?;
            }
            writeln!(
                f,
                "aggs=[{}] -> {schema}",
                render_aggs(aggs, keys.len(), input.schema(), schema)
            )?;
            vec![(input, None, "shardable")]
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
            vec![(input, None, "shardable")]
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
            vec![
                (build, Some("build"), "shardable"),
                (probe, Some("probe"), scan_mode),
            ]
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
            vec![
                (left, Some("left"), "ordered"),
                (right, Some("right"), "ordered"),
            ]
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
            vec![(input, None, "shardable")]
        }
    };
    if let Some(p) = phys {
        for line in (w.1)(p) {
            writeln!(w.0, "{:pad$}\u{b7} {line}", "", pad = (indent + 1) * 2)?;
        }
    }
    for (i, (input, tag, mode)) in inputs.into_iter().enumerate() {
        let child = phys.and_then(|p| Some((p.children.get(i)?, chains?.1[i])));
        fmt_node(w, input, child, indent + 1, tag, mode, &owned_below)?;
    }
    Ok(())
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
        // A single-worker config renders the same tree with no parallel
        // verdict, only the dense key table `k`'s interval gives it.
        let text1 = super::explain_physical(&plan, &ExecConfig::fixed_default());
        let dense = plan
            .to_string()
            .replace("keys=[k] ", "keys=[k] dense=[0 <= k <= 3] ");
        assert_eq!(text1, dense);

        // Over a scan that shards (1024 rows, 16-row vectors), 4 groups ×
        // 4 fragments × 2 ≤ 1024 input rows: a partial per fragment plus
        // one combine. An explicit partition count still routes.
        let mut k = ColumnBuilder::with_capacity(DataType::I32, 1024);
        (0..1024).for_each(|i| k.push_i32(i % 4));
        let big = Arc::new(Table::new("big", vec![("k".into(), k.finish())]).unwrap());
        let c = HashMap::from([("big".to_string(), big)]);
        let plan = PlanBuilder::scan(&c, "big", &["k"])
            .hash_agg(&["k"], vec![count()], "agg")
            .build()
            .unwrap();
        let mut cfg = ExecConfig::fixed_default().with_workers(4);
        cfg.vector_size = 16;
        let text = super::explain_physical(&plan, &cfg);
        assert!(
            text.contains("HashAgg (two-phase \u{d7}4) keys=[k] dense=[0 <= k <= 3]"),
            "{text}"
        );
        cfg.agg_partitions = 4;
        let text = super::explain_physical(&plan, &cfg);
        assert!(text.contains("HashAgg (partitioned \u{d7}4)"), "{text}");
    }

    #[test]
    fn notes_land_under_their_own_node() {
        use crate::config::ExecConfig;
        use crate::expr::{CmpKind, Value};
        use crate::plan::plan_physical;
        // A join probing in the worker fragments of a sharded scan, under
        // a two-phase aggregate: 4 groups × 2 fragments × 2 ≤ 1024 rows.
        let mut k = ColumnBuilder::with_capacity(DataType::I32, 1024);
        (0..1024).for_each(|i| k.push_i32(i % 4));
        let big = Arc::new(Table::new("big", vec![("k".into(), k.finish())]).unwrap());
        let mut c = catalog();
        c.insert("big".to_string(), big);
        let plan = PlanBuilder::scan(&c, "big", &["k"])
            .filter(NamedPred::cmp_val("k", CmpKind::Ge, Value::I32(1)), "sel")
            .hash_join(
                PlanBuilder::scan(&c, "d", &["k as dk", "x as dx"]),
                &[("k", "dk")],
                &["dx"],
                JoinKind::Inner,
                false,
                "j",
            )
            .hash_agg(&["k"], vec![count()], "agg")
            .build()
            .unwrap();
        let mut cfg = ExecConfig::fixed_default().with_workers(2);
        cfg.vector_size = 16;
        let phys = plan_physical(&plan, &cfg).unwrap();
        let bare = phys.to_string();
        assert!(bare.contains("HashAgg (two-phase \u{d7}2)"), "{bare}");
        assert!(
            bare.contains("HashJoin (in fragment \u{d7}2, shared build)"),
            "{bare}"
        );
        assert_eq!(phys.render(&|_| Vec::new()), bare);

        // Every node line is followed by its own note, one step in, in
        // pre-order; without the notes the text is `Display`'s.
        let text = phys.render(&|node| vec![format!("id={}", node.id.0)]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2 * phys.nodes().len(), "{text}");
        for (id, pair) in lines.chunks(2).enumerate() {
            let pad = pair[0].len() - pair[0].trim_start().len();
            assert_eq!(
                pair[1],
                format!("{:w$}\u{b7} id={id}", "", w = pad + 2),
                "{text}"
            );
        }
        let kept: Vec<&str> = lines.iter().step_by(2).copied().collect();
        assert_eq!(kept.join("\n") + "\n", bare);
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
