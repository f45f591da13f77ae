//! Parallel-execution determinism: every TPC-H query must produce the same
//! *result set* no matter how many scan workers run it, and per-worker
//! primitive statistics must merge to the single-threaded totals.
//!
//! Chunk *order* is allowed to differ (a morsel union interleaves worker
//! streams), so rows are compared sort-normalized: each row serialized with
//! floats rounded well above f64 ulp noise (parallel aggregation reorders
//! float additions), then the sorted row lists compared exactly.

use std::sync::{Arc, OnceLock};

use micro_adaptivity::executor::{ExecConfig, FlavorAxis, QueryContext};
use micro_adaptivity::primitives::build_dictionary;
use micro_adaptivity::tpch::queries::QueryOutput;
use micro_adaptivity::tpch::{run_query, Params, TpchData};
use micro_adaptivity::vector::Vector;

const SF: f64 = 0.05;

fn db() -> &'static TpchData {
    static DB: OnceLock<TpchData> = OnceLock::new();
    DB.get_or_init(|| TpchData::generate(SF, 0x9A8A11E1))
}

fn run(q: usize, config: ExecConfig) -> (QueryOutput, QueryContext) {
    let ctx = QueryContext::new(Arc::new(build_dictionary()), config);
    let out =
        run_query(q, db(), &ctx, &Params::default()).unwrap_or_else(|e| panic!("Q{q} failed: {e}"));
    (out, ctx)
}

/// Rows of a result store, serialized and sorted. Floats are rounded to 6
/// significant digits: far coarser than the ulp-level differences parallel
/// float summation introduces, far finer than any genuine result change.
fn normalized_rows(out: &QueryOutput) -> Vec<String> {
    let store = &out.store;
    let mut rows = Vec::with_capacity(store.rows());
    for r in 0..store.rows() {
        let mut row = String::new();
        for c in 0..store.types().len() {
            match store.col(c) {
                Vector::I16(v) => row.push_str(&format!("{}|", v[r])),
                Vector::I32(v) => row.push_str(&format!("{}|", v[r])),
                Vector::I64(v) => row.push_str(&format!("{}|", v[r])),
                Vector::F64(v) => row.push_str(&format!("{:.6e}|", v[r])),
                Vector::Str(s) => {
                    row.push_str(s.get(r));
                    row.push('|');
                }
            }
        }
        rows.push(row);
    }
    rows.sort_unstable();
    rows
}

#[test]
fn every_query_is_worker_count_invariant_under_fixed_flavors() {
    // 1 worker runs single aggregate and join instances; 2 and 4 workers
    // run hash-partitioned aggregation AND joins probing inside the
    // worker fragments over shared builds (both planner defaults when
    // workers shard), with Q12's merge-join inputs sharded behind merging
    // exchanges — results must be identical either way.
    for q in 1..=22 {
        let (one, _) = run(q, ExecConfig::fixed_default());
        for workers in [2, 4] {
            let (par, _) = run(q, ExecConfig::fixed_default().with_workers(workers));
            assert_eq!(one.rows, par.rows, "Q{q} row count at {workers} workers");
            let tol = 1e-9 * one.checksum.abs().max(1.0);
            assert!(
                (one.checksum - par.checksum).abs() <= tol,
                "Q{q} checksum at {workers} workers: {} vs {}",
                one.checksum,
                par.checksum
            );
            assert_eq!(
                normalized_rows(&one),
                normalized_rows(&par),
                "Q{q} sort-normalized rows differ between 1 and {workers} workers"
            );
        }
    }
}

/// The planner must actually engage partitioned aggregation on the
/// aggregation-heavy queries (one private `HashAggregate` per partition,
/// all under the plan node's label), and per-partition statistics must
/// merge to the single-thread totals for tuple counts (call counts differ:
/// routing splits chunks).
#[test]
fn partitioned_aggregation_engages_with_private_instances() {
    let (_, ctx1) = run(1, ExecConfig::fixed_default());
    let (_, ctx4) = run(1, ExecConfig::fixed_default().with_workers(4));
    let count_instances =
        |ctx: &QueryContext, label: &str| ctx.reports().iter().filter(|r| r.label == label).count();
    assert_eq!(count_instances(&ctx1, "Q1/agg/aggr_count"), 1);
    assert_eq!(
        count_instances(&ctx4, "Q1/agg/aggr_count"),
        4,
        "Q1's aggregate should run one instance per partition"
    );
    let agg_tuples = |ctx: &QueryContext| {
        ctx.merged_reports()
            .into_iter()
            .filter(|r| r.signature.starts_with("aggr_") || r.signature.starts_with("hash_"))
            .map(|r| (r.label, r.signature, r.tuples))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        agg_tuples(&ctx1),
        agg_tuples(&ctx4),
        "merged per-partition aggregate tuple totals must equal single-thread totals"
    );
}

/// Forcing `agg_partitions = 1` disables partitioning even on sharded
/// scans — and the results still match, so the partitioned and single
/// paths are interchangeable.
#[test]
fn partitioning_can_be_disabled_per_config() {
    for (q, probe_label) in [(1, "Q1/agg/aggr_count"), (10, "Q10/agg/aggr_sum_f64")] {
        let (single, ctx_s) = run(
            q,
            ExecConfig::fixed_default()
                .with_workers(4)
                .with_agg_partitions(1),
        );
        let (part, _) = run(q, ExecConfig::fixed_default().with_workers(4));
        assert_eq!(
            normalized_rows(&single),
            normalized_rows(&part),
            "Q{q} partitioned vs single aggregation"
        );
        let agg_instances = ctx_s
            .reports()
            .iter()
            .filter(|r| r.label == probe_label)
            .count();
        assert_eq!(agg_instances, 1, "Q{q} should run a single aggregate");
    }
}

/// The planner must actually parallelize the probes of the join-heavy
/// queries: one prober per worker fragment (visible as per-fragment
/// probe-hash and bloom instances under the plan node's label) over
/// **one** build table per join, with merged `hash_*`/fetch tuple totals
/// equal to the single-thread run.
#[test]
fn partitioned_join_builds_engage_with_private_instances() {
    let (_, ctx1) = run(3, ExecConfig::fixed_default());
    let (_, ctx4) = run(3, ExecConfig::fixed_default().with_workers(4));
    let count_instances =
        |ctx: &QueryContext, label: &str| ctx.reports().iter().filter(|r| r.label == label).count();
    for label in [
        "Q3/join_orders/map_hash",
        "Q3/join_orders/sel_bloomfilter",
        "Q3/join_cust/map_hash",
    ] {
        assert_eq!(count_instances(&ctx1, label), 1, "{label} single-thread");
        assert_eq!(
            count_instances(&ctx4, label),
            4,
            "{label}: expected one prober per worker fragment"
        );
    }
    let join_tuples = |ctx: &QueryContext| {
        ctx.merged_reports()
            .into_iter()
            .filter(|r| r.label.starts_with("Q3/join_"))
            .map(|r| (r.label, r.signature, r.tuples))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        join_tuples(&ctx1),
        join_tuples(&ctx4),
        "merged per-fragment join tuple totals must equal single-thread totals"
    );
    // Q9's five-join lineitem pipeline: every join probes in the 4
    // fragments and builds its table once.
    let (_, ctx4) = run(9, ExecConfig::fixed_default().with_workers(4));
    assert_eq!(count_instances(&ctx4, "Q9/join_part/map_hash"), 4);
    let tables = |label: &str| {
        let trackers = ctx4.mem_reports();
        trackers.iter().filter(|r| r.label == label).count()
    };
    assert_eq!(tables("Q9/join_part"), 1, "one shared build table");
    assert_eq!(tables("Q9/join_part/exchange"), 0, "no routing exchange");
}

#[test]
fn adaptive_runs_are_worker_count_invariant() {
    // Flavor choices race across workers, but flavors are extensionally
    // equal — results must not move. Exercise the paper's full flavor set.
    for q in [1, 3, 6, 9, 12, 18, 21] {
        let base = ExecConfig::adaptive(FlavorAxis::All).with_seed(q as u64);
        let (one, _) = run(q, base.clone());
        let (four, _) = run(q, base.with_workers(4));
        assert_eq!(one.rows, four.rows, "Q{q} rows");
        assert_eq!(
            normalized_rows(&one),
            normalized_rows(&four),
            "Q{q} adaptive rows differ between 1 and 4 workers"
        );
    }
}

#[test]
fn two_parallel_runs_agree_with_each_other() {
    // Morsel scheduling differs run to run; results must not.
    for q in [1, 6, 13] {
        let (a, _) = run(q, ExecConfig::fixed_default().with_workers(4));
        let (b, _) = run(q, ExecConfig::fixed_default().with_workers(4));
        assert_eq!(normalized_rows(&a), normalized_rows(&b), "Q{q} unstable");
    }
}

/// Per-worker flavor statistics, merged over the shared registry, must
/// equal the single-threaded totals: vector-aligned morsels make the chunk
/// boundary multiset thread-count-invariant, and under fixed flavors every
/// call lands on flavor 0, so calls/tuples/flavor-calls line up exactly.
/// The one exception is `sel_bloomfilter`, which lives *inside* joins:
/// a join downstream of another operator sees chunks whose boundaries
/// depend on what that operator emitted (an inner join re-chunks its
/// matches per fragment), so its bloom filter may see differently sized
/// calls — tuple totals still merge exactly, call counts need not.
#[test]
fn merged_worker_stats_equal_single_thread_totals() {
    for q in [1, 4, 6, 10] {
        let (_, ctx1) = run(q, ExecConfig::fixed_default());
        let (_, ctx4) = run(q, ExecConfig::fixed_default().with_workers(4));
        let sel_only = |ctx: &QueryContext| {
            ctx.merged_reports()
                .into_iter()
                .filter(|r| r.signature.starts_with("sel_"))
                .collect::<Vec<_>>()
        };
        let one = sel_only(&ctx1);
        let four = sel_only(&ctx4);
        assert_eq!(one.len(), four.len(), "Q{q} instance groups");
        for (a, b) in one.iter().zip(&four) {
            assert_eq!(a.label, b.label, "Q{q}");
            assert_eq!(a.signature, b.signature, "Q{q}");
            assert_eq!(a.tuples, b.tuples, "Q{q} {} tuples", a.label);
            if a.signature != "sel_bloomfilter" {
                assert_eq!(a.calls, b.calls, "Q{q} {} calls", a.label);
                assert_eq!(
                    a.flavor_calls, b.flavor_calls,
                    "Q{q} {} flavor calls",
                    a.label
                );
            }
        }
    }
}

#[test]
fn parallel_scan_reads_every_lineitem_row_once() {
    // A raw count(*) through the sharded scan path: Q1-style aggregation
    // over all of lineitem must see exactly the table's row count.
    let (out, _) = run(1, ExecConfig::fixed_default().with_workers(4));
    let counts = out.store.col(9).as_i64();
    let total: i64 = counts.iter().sum();
    let expected = db().lineitem.column("l_shipdate").unwrap().len();
    // Q1 filters by shipdate cutoff, so total ≤ rows but must be > 90%
    // of the table (the cutoff keeps all but the last ~3 months).
    assert!(total as usize <= expected);
    assert!(
        total as usize > expected * 9 / 10,
        "Q1 aggregated {total} of {expected} rows"
    );
}
