//! Behavioural integration tests for Micro Adaptivity itself: the bandit
//! must avoid catastrophic flavors, track non-stationary optima, and cost
//! little when there is nothing to learn.

use std::sync::Arc;

use micro_adaptivity::core::policy::VwGreedyParams;
use micro_adaptivity::core::{simulate_instance, PolicyKind};
use micro_adaptivity::executor::ops::{collect, Scan, Select};
use micro_adaptivity::executor::{
    BoxOp, CmpKind, ExecConfig, FlavorAxis, Pred, QueryContext, Value,
};
use micro_adaptivity::machsim::{fig10_trace, Fig10Spec};
use micro_adaptivity::primitives::build_dictionary;
use micro_adaptivity::vector::{ColumnBuilder, DataType, Table};

/// A table whose selectivity for `v < 500` changes phase mid-scan.
fn phased_table(n: usize) -> Arc<Table> {
    let mut col = ColumnBuilder::with_capacity(DataType::I32, n);
    let mut state = 7u64;
    for i in 0..n {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let r = (state >> 40) as i32 % 1000;
        // First 40%: ~100% selective; middle 40%: ~50%; last 20%: ~0%.
        let v = if i < n * 2 / 5 {
            r / 100
        } else if i < n * 4 / 5 {
            r
        } else {
            500 + r / 2
        };
        col.push_i32(v);
    }
    Arc::new(Table::new("t", vec![("v".into(), col.finish())]).unwrap())
}

fn run_selection_once(table: &Arc<Table>, config: ExecConfig) -> (u64, usize) {
    let dict = Arc::new(build_dictionary());
    let ctx = QueryContext::new(dict, config);
    let scan: BoxOp = Box::new(Scan::new(Arc::clone(table), &["v"], 1024).unwrap());
    let mut sel = Select::new(
        scan,
        &Pred::cmp_val(0, CmpKind::Lt, Value::I32(500)),
        &ctx,
        "t",
    )
    .unwrap();
    let chunks = collect(&mut sel).unwrap();
    let rows = chunks.iter().map(|c| c.live_count()).sum();
    // The instance publishes its stats when dropped: drop the operator
    // before the tick readout.
    drop(sel);
    (ctx.total_primitive_ticks(), rows)
}

/// Minimum total ticks over several runs. The tick totals are wall-clock
/// rdtsc sums, so one OS preemption mid-run adds millions of spurious
/// ticks; the minimum is the standard noise-robust estimator when
/// comparing implementations on a shared machine.
fn run_selection(table: &Arc<Table>, config: ExecConfig) -> (u64, usize) {
    let mut best: Option<(u64, usize)> = None;
    for _ in 0..3 {
        let (ticks, rows) = run_selection_once(table, config.clone());
        if let Some((_, prev_rows)) = best {
            assert_eq!(rows, prev_rows, "row count must not vary across runs");
        }
        best = Some(match best {
            Some((t, r)) => (t.min(ticks), r),
            None => (ticks, rows),
        });
    }
    best.unwrap()
}

#[test]
fn adaptive_selection_beats_worst_fixed_flavor_on_phased_data() {
    let table = phased_table(2_000_000);
    let (t_br, r1) = run_selection(&table, ExecConfig::fixed("branching"));
    let (t_nb, r2) = run_selection(&table, ExecConfig::fixed("no_branching"));
    let (t_ma, r3) = run_selection(
        &table,
        ExecConfig::adaptive(FlavorAxis::Branching).with_seed(42),
    );
    assert_eq!(r1, r2);
    assert_eq!(r1, r3);
    let worst = t_br.max(t_nb);
    let best = t_br.min(t_nb);
    // "Beat the worst flavor" is only a meaningful claim when the flavors
    // actually differ: on a loaded machine the branching/no_branching gap
    // can collapse into measurement noise, where an adaptive policy can at
    // best match the (≈equal) flavors plus its exploration overhead.
    if worst as f64 > best as f64 * 1.10 {
        assert!(
            t_ma < worst,
            "adaptive ({t_ma}) must beat the worst fixed flavor ({worst})"
        );
    }
    // Always: stay within 25% of the best fixed flavor (it usually beats
    // it; noise margin for CI-grade machines).
    assert!(
        (t_ma as f64) < best as f64 * 1.25,
        "adaptive ({t_ma}) too far from best fixed ({best})"
    );
}

#[test]
fn vw_greedy_is_near_oracle_on_the_paper_demo() {
    let tr = fig10_trace(&Fig10Spec::default(), 0xAB);
    let mut p = PolicyKind::VwGreedy(VwGreedyParams::default()).build(3, 1);
    let r = simulate_instance(&tr, p.as_mut());
    assert!(r.ratio_to_opt() < 1.1, "ratio {}", r.ratio_to_opt());
}

#[test]
fn exploration_overhead_is_bounded_on_stationary_data() {
    // With one clearly-best flavor and no change, Micro Adaptivity's regret
    // is just the periodic exploration — bounded by the
    // EXPLORE_LENGTH/EXPLORE_PERIOD ratio (§3.2).
    let tr =
        micro_adaptivity::machsim::stationary_trace("s", 64 * 1024, 1024, &[3.0, 9.0, 9.0], 0.1, 3);
    let mut p = PolicyKind::VwGreedy(VwGreedyParams::table5_best()).build(3, 2);
    let r = simulate_instance(&tr, p.as_mut());
    // EXPLORE_LENGTH(2)/EXPLORE_PERIOD(1024) · E[regret] ≈ 0.4%; allow 3%.
    assert!(r.ratio_to_opt() < 1.03, "ratio {}", r.ratio_to_opt());
}

#[test]
fn all_policies_agree_on_results_not_costs() {
    // Replaying different policies over the same trace never changes what
    // would be computed — only the cost paid. (Trivially true by
    // construction; this pins the API contract.)
    let tr = fig10_trace(
        &Fig10Spec {
            calls: 8192,
            ..Fig10Spec::default()
        },
        9,
    );
    for kind in [
        PolicyKind::Fixed(0),
        PolicyKind::VwGreedy(VwGreedyParams::table5_best()),
        PolicyKind::EpsGreedy { eps: 0.05 },
        PolicyKind::Ucb1,
    ] {
        let mut p = kind.build(3, 4);
        let r = simulate_instance(&tr, p.as_mut());
        assert_eq!(r.choices.len(), tr.calls());
        assert!(r.policy_ticks >= tr.opt_ticks());
    }
}
