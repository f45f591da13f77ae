//! Plan-verifier sweep: every TPC-H query × a worker/partition/vector-size
//! configuration matrix.
//!
//! The verifier (`ma_executor::verify`) re-checks, independently of
//! lowering, that each plan is schema-consistent, label-unique and places
//! its exchanges legally under the given configuration. This sweep proves
//! those invariants hold for all 22 queries across every parallelism
//! shape the planner can take: sequential, sharded, merge-sharded,
//! joins probing in the worker fragments, partition-follows-workers,
//! partitioning disabled, and fixed odd partition counts that disagree
//! with the worker count.
//!
//! The same sweep is the planner's translation validation: for every
//! query × configuration, what `lower` registers with the context is
//! exactly what the `PhysicalPlan` says, and what `cost` prices is exactly
//! that.
//!
//! It also pins the global stats-label discipline: labels are unique
//! *within* each plan (a duplicate would silently merge two nodes'
//! adaptive statistics — `verify` rejects it) and, thanks to the `QN/`
//! prefix convention, unique *across* queries too, so a whole-benchmark
//! stats dump never aliases two primitives.

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use ma_executor::{
    cost, lower, plan_physical, verify, Exchange, ExecConfig, LogicalPlan, PhysicalPlan,
    QueryContext,
};
use ma_tpch::queries::query_plan;
use ma_tpch::{Params, TpchData};

/// Shared database: big enough (scale 0.01 ≈ 60k lineitem rows) that the
/// sharding and partitioning verdicts actually fire under the matrix's
/// multi-worker configurations.
fn db() -> &'static TpchData {
    static DB: OnceLock<TpchData> = OnceLock::new();
    DB.get_or_init(|| TpchData::generate(0.01, 0xDBD1))
}

fn config(workers: usize, agg_p: usize, vsize: usize) -> ExecConfig {
    let mut cfg = ExecConfig::fixed_default();
    cfg.worker_threads = workers;
    cfg.agg_partitions = agg_p;
    cfg.vector_size = vsize;
    cfg
}

/// Counts exchange nodes (and joins probing in worker fragments) in a
/// physical plan so the sweep can prove it exercised non-sequential
/// shapes (a vacuously-sequential sweep would pass trivially).
fn count_exchanges(phys: &PhysicalPlan<'_>, tally: &mut (usize, usize, usize, usize)) {
    for node in phys.nodes() {
        if matches!(node.logical, LogicalPlan::HashJoin { .. }) && node.fragments > 1 {
            tally.3 += 1;
        }
        match node.exchange {
            Exchange::None => {}
            Exchange::Parallel { .. } => tally.0 += 1,
            Exchange::Merge { .. } => tally.1 += 1,
            Exchange::HashPartition { .. } => tally.2 += 1,
        }
    }
}

/// Translation validation of one plan under one configuration.
///
/// *Cost prices exactly what the IR says:* `cost` lists, per node in
/// pre-order, the node's exchange stage (if any) priced as
/// `buffered_chunks × chunk_bytes`, then the operator stage with the
/// node's instance count and per-instance bytes. *Instantiate builds
/// exactly what the IR says:* the multiset of `(label, bound)` trackers
/// `lower` registers equals the tracked nodes of the physical plan,
/// expanded by instance count — so every exchange is priced from the very
/// chunk bound its tracker carries. A join probing in the fragments is one
/// table (one tracker, priced `x1`, no exchange stage of its own) read by
/// `fragments` probers, each registering its own probe-hash instance.
fn assert_lowering_matches_plan(q: usize, plan: &LogicalPlan, cfg: &ExecConfig) {
    let phys = plan_physical(plan, cfg).unwrap();
    let report = cost(plan, cfg);
    let mut ops = report.ops.iter();
    let mut expected: Vec<(String, u64)> = Vec::new();
    let mut probers: Vec<(String, usize)> = Vec::new();
    for node in phys.nodes() {
        if let LogicalPlan::HashJoin { label, .. } = node.logical {
            // No join routes: one table, `fragments` probers.
            assert!(
                !matches!(node.exchange, Exchange::HashPartition { .. }),
                "Q{q}: {label} is hash-partitioned"
            );
            probers.push((format!("{label}/map_hash"), node.fragments));
        }
        let tracked = match node.logical {
            LogicalPlan::HashAgg { label, .. } | LogicalPlan::HashJoin { label, .. } => {
                Some(label.as_str())
            }
            LogicalPlan::Sort { .. } => Some("sort"),
            _ => None,
        };
        let exchange = match node.exchange {
            Exchange::None => None,
            Exchange::Parallel { .. } => Some("exchange/parallel".to_string()),
            Exchange::Merge { .. } => Some("exchange/merge".to_string()),
            Exchange::HashPartition { .. } => {
                Some(format!("{}/exchange", tracked.expect("a labeled consumer")))
            }
        };
        if let Some(label) = exchange {
            let chunk = node.exchange.chunk_bytes();
            let op = ops.next().expect("an exchange stage");
            assert_eq!(
                (op.kind, op.per_instance_bytes),
                ("exchange", node.exchange.buffered_chunks() * chunk),
                "Q{q}: cost of {label} (node {})",
                node.id.0
            );
            expected.push((label, chunk));
        }
        let op = ops.next().expect("an operator stage");
        assert_eq!(
            (op.instances, op.per_instance_bytes),
            (node.instances(), node.instance_bytes),
            "Q{q}: cost of {} {} (node {})",
            op.kind,
            op.label,
            node.id.0
        );
        if let Some(label) = tracked {
            expected
                .extend((0..node.instances()).map(|_| (label.to_string(), node.instance_bytes)));
        }
    }
    assert!(
        ops.next().is_none(),
        "Q{q}: cost lists a stage the plan lacks"
    );

    static DICT: OnceLock<Arc<ma_core::PrimitiveDictionary>> = OnceLock::new();
    let dict = DICT.get_or_init(|| Arc::new(ma_primitives::build_dictionary()));
    let ctx = QueryContext::new(Arc::clone(dict), cfg.clone());
    drop(lower(plan, &ctx).unwrap());
    let mut registered: Vec<(String, u64)> = ctx
        .mem_reports()
        .into_iter()
        .map(|r| (r.label, r.bound))
        .collect();
    registered.sort();
    expected.sort();
    assert_eq!(registered, expected, "Q{q}: trackers vs physical plan");
    let reports = ctx.reports();
    for (label, want) in probers {
        let got = reports.iter().filter(|r| r.label == label).count();
        assert_eq!(got, want, "Q{q}: {label} instances vs physical plan");
    }
}

/// The `agg_partitions` regimes swept at every worker count: follow the
/// workers, never partition, a fixed odd count.
const PARTITION_REGIMES: [usize; 3] = [0, 1, 3];

/// Collects every *registry-visible* stats label in a plan: the labels of
/// nodes that instantiate primitives. Pass-only projections compile to
/// zero instances, so their labels never reach the stats registry and are
/// skipped — the same rule `verify` applies for its per-plan uniqueness
/// check.
fn collect_labels(plan: &LogicalPlan, out: &mut Vec<String>) {
    use ma_executor::ops::ProjItem;
    match plan {
        LogicalPlan::Scan { .. } => {}
        LogicalPlan::Project {
            input,
            items,
            label,
            ..
        } => {
            if items.iter().any(|i| matches!(i, ProjItem::Expr(_))) {
                out.push(label.clone());
            }
            collect_labels(input, out);
        }
        LogicalPlan::Filter { input, label, .. }
        | LogicalPlan::HashAgg { input, label, .. }
        | LogicalPlan::StreamAgg { input, label, .. } => {
            out.push(label.clone());
            collect_labels(input, out);
        }
        LogicalPlan::HashJoin {
            build,
            probe,
            label,
            ..
        } => {
            out.push(label.clone());
            collect_labels(build, out);
            collect_labels(probe, out);
        }
        LogicalPlan::MergeJoin {
            left, right, label, ..
        } => {
            out.push(label.clone());
            collect_labels(left, out);
            collect_labels(right, out);
        }
        LogicalPlan::Sort { input, .. } => collect_labels(input, out),
    }
}

/// All 22 queries verify under every configuration in the matrix, and the
/// matrix provably exercises all three exchange kinds.
#[test]
fn all_queries_verify_across_config_matrix() {
    let db = db();
    let params = Params::default();
    let mut tally = (0usize, 0usize, 0usize, 0usize);
    let mut checked = 0usize;
    for q in 1..=22 {
        let plan = query_plan(q, db, &params)
            .unwrap_or_else(|e| panic!("Q{q}: plan construction failed: {e}"))
            .build()
            .unwrap_or_else(|e| panic!("Q{q}: build failed: {e}"));
        for workers in [1, 2, 4] {
            for agg_p in PARTITION_REGIMES {
                for vsize in [64, 1024] {
                    let cfg = config(workers, agg_p, vsize);
                    verify(&plan, &cfg).unwrap_or_else(|e| {
                        panic!(
                            "Q{q} failed verification (workers={workers}, \
                             agg_partitions={agg_p}, vector_size={vsize}): {e}"
                        )
                    });
                    count_exchanges(&plan_physical(&plan, &cfg).unwrap(), &mut tally);
                    assert_lowering_matches_plan(q, &plan, &cfg);
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, 22 * 9 * 2);
    let (parallel, merge, partition, in_fragment) = tally;
    assert!(
        in_fragment > 0,
        "matrix never probed a join in the fragments"
    );
    assert!(parallel > 0, "matrix never produced a Parallel exchange");
    assert!(merge > 0, "matrix never produced a Merge exchange");
    assert!(
        partition > 0,
        "matrix never produced a HashPartition exchange"
    );
}

/// Names become indices in one place, and that place is invertible:
/// over every `Filter` / `Project` / `HashAgg` / `StreamAgg` / `Sort` node
/// of the 22 plans, mapping the positional trees, aggregates and sort keys
/// back to names through the node's input schema and resolving them again
/// — through the builder, over an empty table with that schema — yields
/// the identical positional form and output types.
#[test]
fn expression_trees_round_trip_through_names() {
    use ma_executor::ops::ProjItem;
    use ma_executor::plan::PlanBuilder;
    use ma_vector::{ColumnBuilder, Schema, Table};

    fn over(schema: &Schema) -> PlanBuilder {
        let cols = schema
            .fields()
            .iter()
            .map(|f| {
                (
                    f.name.clone(),
                    ColumnBuilder::with_capacity(f.ty, 0).finish(),
                )
            })
            .collect();
        let names = schema.names();
        PlanBuilder::from_table(Arc::new(Table::new("in", cols).unwrap()), &names)
    }
    fn check(q: usize, plan: &LogicalPlan, seen: &mut [usize; 4]) {
        plan.children().for_each(|c| check(q, c, seen));
        let name =
            |input: &LogicalPlan, i: &usize| Ok::<_, ()>(input.schema().field(*i).name.clone());
        match plan {
            LogicalPlan::Filter { input, pred, .. } => {
                let named = pred.try_map_cols(&mut |i| name(input, i)).unwrap();
                let again = over(input.schema()).filter(named, "f").build();
                match again {
                    Ok(LogicalPlan::Filter { pred: p, .. }) => assert_eq!(&p, pred, "Q{q}"),
                    other => panic!("Q{q}: {other:?}"),
                }
                seen[0] += 1;
            }
            LogicalPlan::Project {
                input,
                items,
                schema,
                ..
            } => {
                for (item, field) in items.iter().zip(schema.fields()) {
                    let ProjItem::Expr(e) = item else { continue };
                    let named = e.try_map_cols(&mut |i| name(input, i)).unwrap();
                    let again = over(input.schema())
                        .project(vec![("x", named)], "p")
                        .build();
                    match again {
                        Ok(LogicalPlan::Project { items, schema, .. }) => {
                            assert_eq!(items, std::slice::from_ref(item), "Q{q}");
                            assert_eq!(schema.field(0).ty, field.ty, "Q{q}");
                        }
                        other => panic!("Q{q}: {other:?}"),
                    }
                    seen[1] += 1;
                }
            }
            LogicalPlan::HashAgg {
                input,
                keys,
                aggs,
                schema,
                ..
            } => {
                // Key names pass through unless the plan aliased them.
                let specs: Vec<String> = (keys.iter().zip(schema.fields()))
                    .map(|(k, out)| format!("{} as {}", name(input, k).unwrap(), out.name))
                    .collect();
                let specs: Vec<&str> = specs.iter().map(String::as_str).collect();
                let named = aggs.iter().map(|a| a.try_map_col(&mut |i| name(input, i)));
                let named = named.collect::<Result<_, _>>().unwrap();
                match over(input.schema()).hash_agg(&specs, named, "a").build() {
                    Ok(LogicalPlan::HashAgg {
                        keys: k,
                        aggs: a,
                        schema: s,
                        ..
                    }) => assert_eq!((&k, &a, &s), (keys, aggs, schema), "Q{q}"),
                    other => panic!("Q{q}: {other:?}"),
                }
                seen[2] += 1;
            }
            LogicalPlan::StreamAgg {
                input,
                aggs,
                schema,
                ..
            } => {
                let named = aggs.iter().map(|a| a.try_map_col(&mut |i| name(input, i)));
                let named = named.collect::<Result<_, _>>().unwrap();
                match over(input.schema()).stream_agg(named, "a").build() {
                    Ok(LogicalPlan::StreamAgg {
                        aggs: a, schema: s, ..
                    }) => assert_eq!((&a, &s), (aggs, schema), "Q{q}"),
                    other => panic!("Q{q}: {other:?}"),
                }
                seen[2] += 1;
            }
            LogicalPlan::Sort {
                input, keys, limit, ..
            } => {
                let named = keys.iter().map(|k| k.try_map_col(&mut |i| name(input, i)));
                let named: Vec<_> = named.collect::<Result<_, _>>().unwrap();
                let again = match limit {
                    Some(n) => over(input.schema()).top_n(&named, *n),
                    None => over(input.schema()).sort(&named),
                };
                match again.build() {
                    Ok(LogicalPlan::Sort { keys: k, .. }) => assert_eq!(&k, keys, "Q{q}"),
                    other => panic!("Q{q}: {other:?}"),
                }
                seen[3] += 1;
            }
            _ => {}
        }
    }
    let mut seen = [0; 4];
    for q in 1..=22 {
        let plan = query_plan(q, db(), &Params::default())
            .and_then(|pb| Ok(pb.build()?))
            .unwrap_or_else(|e| panic!("Q{q}: {e}"));
        check(q, &plan, &mut seen);
    }
    // filters, computed expressions, aggregations, sorts
    assert!(
        seen[0] >= 30 && seen[1] >= 20 && seen[2] >= 22 && seen[3] >= 10,
        "{seen:?}"
    );
}

/// `plan_physical` interprets each logical node exactly once, pinned on
/// the two deepest join trees: a helper that re-derived a subtree's row
/// bound per decision (as every `*_bound` helper once did) would make
/// planning quadratic in plan depth again.
#[test]
fn planning_runs_the_analyzer_once_per_node() {
    fn nodes(plan: &LogicalPlan) -> u64 {
        1 + plan.children().map(nodes).sum::<u64>()
    }
    let cfg = config(4, 0, 1024);
    for q in [5, 9] {
        let plan = query_plan(q, db(), &Params::default())
            .and_then(|pb| Ok(pb.build()?))
            .unwrap_or_else(|e| panic!("Q{q}: {e}"));
        let before = ma_executor::analyze::transfer_count();
        let phys = plan_physical(&plan, &cfg).unwrap();
        let transfers = ma_executor::analyze::transfer_count() - before;
        assert!(nodes(&plan) >= 15, "Q{q} is no longer a deep plan");
        assert_eq!(transfers, nodes(&plan), "Q{q}");
        assert_eq!(phys.nodes().len() as u64, nodes(&plan), "Q{q}");
    }
}

/// All 22 TPC-H plans must pass the abstract-interpretation pass with
/// **zero findings** — not just zero hazards. The only division in the
/// workload (Q1's averages) divides by a count that is provably ≥ 1, and
/// every sum's statically-derived bound fits the i64 accumulator at this
/// scale, so any error here is an analyzer regression (an unsound
/// transfer function or lost narrowing), not a workload property.
#[test]
fn all_queries_analyze_cleanly() {
    let db = db();
    let params = Params::default();
    for q in 1..=22 {
        let plan = query_plan(q, db, &params)
            .unwrap_or_else(|e| panic!("Q{q}: {e}"))
            .build()
            .unwrap_or_else(|e| panic!("Q{q}: {e}"));
        let a = ma_executor::analyze(&plan);
        assert!(
            a.errors.is_empty(),
            "Q{q} analysis reported findings: {:?}",
            a.errors
        );
        // The derived facts must be non-degenerate: a real row bound and
        // a fact per output column.
        assert_eq!(a.facts.cols.len(), plan.schema().len(), "Q{q}");
        assert!(a.facts.rows > 0, "Q{q} proved itself empty");
    }
}

/// All 22 plans get a *finite* proven peak-byte bound from the memory/
/// cost pass under every matrix configuration, with zero findings under
/// the default 1 GiB budget. Finiteness is the load-bearing half: the
/// pass saturates to "unbounded" when a width or cardinality estimate
/// escapes it, and an unbounded plan would make the byte-accounting
/// oracle (`actual ≤ proven`) vacuously true. The work bound must be
/// finite and positive for the same reason.
#[test]
fn all_queries_get_finite_byte_bounds() {
    // Saturation sentinel mirrored from `ma_executor::cost` (rendered as
    // "unbounded"); anything at or above it means the pass gave up.
    const SAT: u64 = u64::MAX >> 8;
    let db = db();
    let params = Params::default();
    for q in 1..=22 {
        let plan = query_plan(q, db, &params)
            .unwrap_or_else(|e| panic!("Q{q}: {e}"))
            .build()
            .unwrap_or_else(|e| panic!("Q{q}: {e}"));
        for workers in [1, 2, 4] {
            for agg_p in PARTITION_REGIMES {
                for vsize in [64, 1024] {
                    let cfg = config(workers, agg_p, vsize);
                    let report = ma_executor::cost(&plan, &cfg);
                    assert!(
                        report.peak_bytes > 0 && report.peak_bytes < SAT,
                        "Q{q} peak bound degenerate (workers={workers}, \
                         agg_partitions={agg_p}, vector_size={vsize}): {} ({})",
                        report.peak_bytes,
                        ma_executor::cost::fmt_bytes(report.peak_bytes)
                    );
                    assert!(
                        report.total_work > 0 && report.total_work < SAT,
                        "Q{q} work bound degenerate: {}",
                        report.total_work
                    );
                    assert!(
                        report.findings.is_empty(),
                        "Q{q} over default budget (workers={workers}): {:?}",
                        report.findings
                    );
                }
            }
        }
    }
}

/// Stats labels are globally unique across all 22 first-phase plans: the
/// `QN/` prefix convention means a whole-benchmark stats dump can never
/// alias two different primitives. (Within-plan uniqueness of
/// instantiating nodes is `verify`'s job, covered by the matrix sweep.)
#[test]
fn stats_labels_unique_across_all_queries() {
    let db = db();
    let params = Params::default();
    let mut seen: HashSet<String> = HashSet::new();
    let mut total = 0usize;
    for q in 1..=22 {
        let plan = query_plan(q, db, &params)
            .unwrap_or_else(|e| panic!("Q{q}: {e}"))
            .build()
            .unwrap_or_else(|e| panic!("Q{q}: {e}"));
        let mut labels = Vec::new();
        collect_labels(&plan, &mut labels);
        assert!(!labels.is_empty(), "Q{q} has no labeled nodes");
        for l in labels {
            let prefix = format!("Q{q}/");
            assert!(
                l.starts_with(&prefix),
                "Q{q} label {l:?} missing its {prefix:?} namespace prefix"
            );
            assert!(seen.insert(l.clone()), "label {l:?} reused across queries");
            total += 1;
        }
    }
    assert!(total >= 100, "expected a rich label set, found {total}");
}
