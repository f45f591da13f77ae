//! Flavor anatomy: inspect the Primitive Dictionary and watch vw-greedy
//! learn, call by call.
//!
//! Prints the registered flavor sets for a few signatures, then runs a
//! single adaptive instance over data whose best flavor flips mid-stream,
//! dumping the per-phase choices the bandit makes.
//!
//! ```sh
//! cargo run --release --example flavor_anatomy
//! ```

use std::sync::Arc;

use micro_adaptivity::core::{PolicyKind, SplitMix64, VwGreedyParams};
use micro_adaptivity::executor::{ExecConfig, FlavorAxis, HeurKind, QueryContext};
use micro_adaptivity::primitives::{build_dictionary, SelColVal};

fn main() {
    let dict = Arc::new(build_dictionary());
    println!("Primitive Dictionary: {} signatures\n", dict.len());
    for sig in [
        "sel_lt_i32_col_val",
        "map_mul_i64_col_col",
        "sel_bloomfilter",
        "hash_insertcheck_str_col",
        "mergejoin_i64_col_i64_col",
    ] {
        let set = dict.lookup::<SelColVal<i32>>("sel_lt_i32_col_val").unwrap();
        if sig == "sel_lt_i32_col_val" {
            let flavors: Vec<String> = set
                .infos()
                .iter()
                .map(|i| format!("{}{}", i.name, if i.alias { " (alias)" } else { "" }))
                .collect();
            println!("{sig}:\n  {}", flavors.join(", "));
        } else {
            println!("{sig}:\n  (registered: {})", dict.contains(sig));
        }
    }

    // Watch vw-greedy converge, then react to a mid-stream flip.
    println!("\nvw-greedy(256,32,8) over a selection whose selectivity flips at call 2000:");
    // The engine's own dispatch: a per-query context hands out primitive
    // instances, each with the configured axis' flavor subset and its own
    // bandit (see PolicyKind for the full policy zoo).
    let policy = PolicyKind::VwGreedy(VwGreedyParams {
        explore_period: 256,
        exploit_period: 32,
        explore_length: 8,
    });
    let config = ExecConfig::adaptive_with(FlavorAxis::Branching, policy).with_seed(7);
    let ctx = QueryContext::new(Arc::clone(&dict), config);
    let mut dispatch = ctx
        .instance::<SelColVal<i32>>("sel_lt_i32_col_val", "anatomy/sel", HeurKind::Selection)
        .unwrap();

    let mut rng = SplitMix64::new(99);
    let n = 1024;
    let mut res = vec![0u32; n];
    let mut counts = [[0u64; 2]; 4]; // phase × flavor
    for call in 0..4000u64 {
        // Selectivity ~99% before the flip (branching-friendly),
        // ~50% after (branch-hostile).
        let sel_pct = if call < 2000 { 990 } else { 500 };
        let data: Vec<i32> = (0..n).map(|_| (rng.next_u64() % 1000) as i32).collect();
        dispatch.invoke(n as u64, |f| {
            std::hint::black_box(f(&mut res, &data, sel_pct, None))
        });
        let phase = (call / 1000) as usize;
        counts[phase][dispatch.last_flavor()] += 1;
    }
    for (p, c) in counts.iter().enumerate() {
        println!(
            "  calls {:>4}-{:<4} branching {:>4}  no_branching {:>4}   <- {}",
            p * 1000,
            (p + 1) * 1000 - 1,
            c[0],
            c[1],
            if p < 2 {
                "99% selectivity"
            } else {
                "50% selectivity"
            }
        );
    }
    // An instance publishes its statistics when it is dropped.
    drop(dispatch);
    let report = &ctx.reports()[0];
    println!(
        "\n{} calls, {:.2} ticks/tuple lifetime average",
        report.calls,
        report.avg_cost()
    );
}
