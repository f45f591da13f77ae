//! Seed-pinned regressions from differential-fuzzer triage, plus a
//! moderate fixed-seed sweep.
//!
//! Every failure the fuzzer (`ma_tpch::fuzz`) finds lands here as a
//! minimized, deterministic reproduction — regenerated from its `(seed,
//! case)` pair or pinned as shrunk DSL text — so the bug stays fixed.
//! The big sweeps run in release mode (`repro fuzz`, the `fuzz-smoke`
//! CI job); this file keeps a small always-on sweep for `cargo test`.

use std::sync::Arc;

use ma_executor::frontend::{self, parse};
use ma_tpch::fuzz::Fuzzer;
use ma_tpch::TpchData;

fn fuzzer(sf: f64) -> Fuzzer {
    Fuzzer::new(Arc::new(TpchData::generate(sf, 0xDBD1)))
}

/// Seed 0xF022 case 820 (found in the first 10k-case sweep): the
/// generator emitted `merge join` downstream of a payload-free `join
/// semi` fallback, which had skipped clearing its clustered-column
/// tracking — the builder correctly rejects a merge join whose right
/// key arrives through a hash join, so the generated query failed to
/// compile. The generator now mirrors the builder exactly: *any* hash
/// join ends the clustered-key chain.
#[test]
fn semi_join_fallback_ends_clustered_chain() {
    let db = Arc::new(TpchData::generate(0.002, 0xDBD1));
    let fz = Fuzzer::new(Arc::clone(&db));
    // The original (unshrunk) generation stream must compile again.
    let ast = fz.generate(0xF022, 820);
    frontend::compile(&ast, db.as_ref())
        .unwrap_or_else(|e| panic!("case 820 no longer compiles: {e}\n{ast}"))
        .build()
        .unwrap_or_else(|e| panic!("case 820 no longer builds: {e}\n{ast}"));
    // And the shrunk reproduction stays a *typed* builder error when
    // written by hand: a merge join behind a hash join is illegal.
    let text = "from nation [n_nationkey] \
                | join semi (from nation [n_nationkey]) on n_nationkey = n_nationkey \
                | merge join (from part [p_partkey]) on n_nationkey = p_partkey";
    let ast = parse(text).expect("parses");
    let err = frontend::compile(&ast, db.as_ref())
        .and_then(|pb| {
            pb.build().map_err(|err| frontend::FrontendError::Plan {
                err,
                span: Default::default(),
            })
        })
        .expect_err("merge join behind a hash join must be rejected");
    assert!(
        err.to_string().contains("not sorted by the join key"),
        "unexpected error: {err}"
    );
}

/// Seed 0xF022 cases 3263, 4718, 8183 (second 10k-case sweep): all
/// three queries aggregate `min`/`max` over provably empty input (an
/// anti join against a superset, or a semi join against an empty or
/// disjoint build side), so every configuration correctly returns the
/// ±inf fold identity — but the oracle's relative-tolerance check
/// computed `inf - inf = NaN` and flagged the *equal* infinities as a
/// divergence. `floats_close` now tests bitwise equality first.
#[test]
fn equal_infinities_are_not_a_divergence() {
    let fz = fuzzer(0.002);
    // Minimized reproductions from the sweep, in shrunk-DSL form. Each
    // pipeline's final aggregation runs over zero rows at every scale
    // factor: every s_nationkey exists in nation (anti ⇒ empty); no
    // n_nationkey exceeds 24 (semi vs empty ⇒ empty); acctbal cents
    // never collide with nation keys 0..24 (semi vs disjoint ⇒ empty).
    for text in [
        "from supplier [s_nationkey] \
         | join anti (from nation [n_nationkey]) on s_nationkey = n_nationkey \
         | select e1 = f64(i64(s_nationkey) - i64(s_nationkey) + 14) \
         | agg [max(e1) as a3]",
        "from supplier [s_acctbal] \
         | select s_acctbal = s_acctbal, e0 = f64(s_acctbal / 3) \
         | join semi (from nation [n_nationkey]) on s_acctbal = n_nationkey \
         | agg [max(e0) as a3]",
        "from part [p_size, p_retailprice] \
         | agg by [p_size] [min(p_retailprice) as a1, count as a2] \
         | select a2 = a2, e4 = f64(a1 - i64(p_size)) \
         | join semi (from nation [n_nationkey] | where n_nationkey > 24) \
                on a2 = n_nationkey \
         | agg [min(e4) as a6]",
    ] {
        fz.check_text(text)
            .unwrap_or_else(|f| panic!("{text}\n  {f}"));
    }
}

/// Seed 0xBC8F cases 799 and 1617 (third 10k-case sweep, the first
/// with the bounds-soundness oracle): the analyzer's `Or` transfer
/// function combined branch NDV caps with `max()`, but rows surviving
/// an OR are the *union* of the branch row-sets, so value sets add —
/// an equality (NDV ≤ 1) OR'd with a two-element in-list (NDV ≤ 2)
/// passed three distinct values while the analysis claimed ≤ 2, and
/// the post-execution soundness check flagged both cases (`Unsound`).
/// The transfer now sums branch caps (clamped to the input's own cap).
#[test]
fn or_branches_sum_their_ndv_caps() {
    let db = Arc::new(TpchData::generate(0.002, 0xDBD1));
    let fz = Fuzzer::new(Arc::clone(&db));
    // The shrunk reproductions: three distinct values survive each OR.
    let text = "from nation [n_comment] \
                | where n_comment = \"platelets regular platelets deposits dependencies courts deposits silent\" \
                  or n_comment in (\"bold even final dugouts packages pinto bold quickly\", \
                                   \"dependencies requests slyly courts ideas unusual somas platelets\")";
    fz.check_text(text)
        .unwrap_or_else(|f| panic!("{text}\n  {f}"));
    let truck = "from lineitem [l_shipmode] \
                 | where l_shipmode = \"TRUCK\" or l_shipmode in (\"MAIL\", \"RAIL\")";
    fz.check_text(truck)
        .unwrap_or_else(|f| panic!("{truck}\n  {f}"));
    // The analysis itself must now claim a cap of at least 3 here …
    let plan = frontend::compile(&parse(text).expect("parses"), db.as_ref())
        .expect("compiles")
        .build()
        .expect("builds");
    let a = ma_executor::analyze(&plan);
    assert!(a.errors.is_empty(), "{:?}", a.errors);
    assert!(
        a.facts.cols[0].ndv >= 3,
        "OR of =const and a 2-element in-list must cap NDV at 1 + 2, got {}",
        a.facts.cols[0].ndv
    );
    // … and the same addition applies to integer equality branches,
    // while staying clamped to the width of the hulled interval.
    let plan = frontend::compile(
        &parse("from nation [n_nationkey] | where n_nationkey = 1 or n_nationkey = 2")
            .expect("parses"),
        db.as_ref(),
    )
    .expect("compiles")
    .build()
    .expect("builds");
    let a = ma_executor::analyze(&plan);
    assert!(a.errors.is_empty(), "{:?}", a.errors);
    assert_eq!(
        a.facts.cols[0].ndv, 2,
        "k = 1 OR k = 2 passes exactly two distinct values"
    );
}

/// Seed 0xBEEF cases 78 and 131 (fourth 10k-case sweep, the first with
/// the byte-accounting oracle): aggregations whose group count *exactly
/// reaches* the analyzer's proven bound — NDV stats are exact, so this
/// is the common case, not a corner — tripped `MemBound`. The clamped
/// reservation treated zero remaining room as "bound might be unsound,
/// reserve for every live tuple", ballooning a 64-slot group table to
/// 4096 slots (65 KiB recorded against a 1.4 KiB proven bound) from the
/// second chunk on. Zero room now reserves zero (probing only *present*
/// keys terminates at any load factor), and a typed post-pass guard
/// rejects the query if the group count ever exceeds the proven bound.
#[test]
fn exactly_reached_group_bound_keeps_the_clamped_reservation() {
    let fz = fuzzer(0.01);
    // Shrunk reproductions: low-NDV group keys (5 market segments,
    // 7 order years) that all appear within the first vector, so every
    // later chunk runs an insertcheck pass with zero remaining room.
    for text in [
        "from customer [c_mktsegment] | agg by [c_mktsegment] [count as a1]",
        "from orders [o_orderyear] | agg by [o_orderyear] [count as a3]",
    ] {
        fz.check_text(text)
            .unwrap_or_else(|f| panic!("{text}\n  {f}"));
    }
}

/// A small deterministic differential sweep on every `cargo test` run.
/// The heavy sweeps (500 release-mode cases in CI, 10k+ in triage) use
/// the same code at bigger scale.
#[test]
fn fixed_seed_differential_sweep() {
    let fz = fuzzer(0.002);
    let report = fz.run(0xF022, 24, |_, _| {});
    assert!(
        report.ok(),
        "divergences: {:#?}",
        report
            .failures
            .iter()
            .map(|f| format!(
                "case {} (seed {:#x}): {}\n  minimized: {}",
                f.case, f.seed, f.detail, f.minimized
            ))
            .collect::<Vec<_>>()
    );
}

/// The fuzzer has to *reach* the one parallel join shape for its
/// comparison against the one-worker reference to mean anything: at SF
/// 0.002 lineitem holds ~12k rows, enough for two morsels of 16 × 64-row
/// vectors, so under `4w/auto/v64` the fixed-seed sweep above must plan
/// hash joins that probe in the worker fragments over a shared build.
#[test]
fn fixed_seed_sweep_reaches_a_shared_build() {
    let db = Arc::new(TpchData::generate(0.002, 0xDBD1));
    let fz = Fuzzer::new(Arc::clone(&db));
    let matrix = ma_tpch::fuzz::config_matrix();
    let (_, cfg) = matrix
        .iter()
        .find(|(name, _)| name == "4w/auto/v64")
        .expect("the most parallel planner-chosen configuration");
    let mut shared_builds = 0;
    for case in 0..24 {
        let plan = frontend::compile(&fz.generate(0xF022, case), db.as_ref())
            .unwrap_or_else(|e| panic!("case {case} no longer compiles: {e}"))
            .build()
            .unwrap_or_else(|e| panic!("case {case} no longer builds: {e}"));
        let phys = ma_executor::plan_physical(&plan, cfg).expect("plans");
        let nodes = phys.fragments().into_iter();
        shared_builds += nodes
            .filter(|(n, _)| matches!(n.logical, ma_executor::LogicalPlan::HashJoin { .. }))
            .filter(|&(_, fragments)| fragments >= 2)
            .count();
    }
    assert!(
        shared_builds > 0,
        "no generated join probes in the fragments under 4w/auto/v64"
    );
}
