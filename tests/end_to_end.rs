//! Cross-crate integration: dbgen → all 22 query plans → executor, under
//! every engine configuration. The core guarantee: **flavor choice never
//! changes results** — only cost.

use std::sync::{Arc, OnceLock};

use micro_adaptivity::executor::{ExecConfig, FlavorAxis};
use micro_adaptivity::tpch::{Runner, TpchData};

fn runner() -> &'static Runner {
    static R: OnceLock<Runner> = OnceLock::new();
    R.get_or_init(|| Runner::new(Arc::new(TpchData::generate(0.004, 0xE2E))))
}

fn assert_close(a: f64, b: f64, what: &str) {
    let tol = 1e-6 * a.abs().max(1.0);
    assert!((a - b).abs() <= tol, "{what}: {a} vs {b}");
}

#[test]
fn all_queries_run_under_stock_engine() {
    for q in 1..=22 {
        let r = runner()
            .run(q, ExecConfig::fixed_default())
            .unwrap_or_else(|e| panic!("Q{q}: {e}"));
        assert!(r.stages.execute > 0, "Q{q} did no work");
        assert!(
            !r.instances.is_empty(),
            "Q{q} created no primitive instances"
        );
    }
}

#[test]
fn adaptive_engine_matches_stock_results_on_all_queries() {
    for q in 1..=22 {
        let base = runner().run(q, ExecConfig::fixed_default()).unwrap();
        let adapt = runner()
            .run(q, ExecConfig::adaptive(FlavorAxis::All).with_seed(q as u64))
            .unwrap();
        assert_eq!(base.rows, adapt.rows, "Q{q} row count");
        assert_close(base.checksum, adapt.checksum, &format!("Q{q} checksum"));
    }
}

#[test]
fn heuristic_engine_matches_stock_results_on_all_queries() {
    for q in 1..=22 {
        let base = runner().run(q, ExecConfig::fixed_default()).unwrap();
        let heur = runner().run(q, ExecConfig::heuristic()).unwrap();
        assert_eq!(base.rows, heur.rows, "Q{q} row count");
        assert_close(base.checksum, heur.checksum, &format!("Q{q} checksum"));
    }
}

#[test]
fn every_fixed_flavor_matches_stock_results() {
    // Forcing any single flavor engine-wide must never change results —
    // the extensional-equivalence contract of a flavor set (§1).
    for flavor in [
        "branching",
        "no_branching",
        "gcc",
        "icc",
        "clang",
        "unroll8",
        "no_unroll",
        "selective",
        "full",
        "fused",
        "fission",
        "by_width",
    ] {
        for q in [1, 4, 6, 12, 13, 16, 21] {
            let base = runner().run(q, ExecConfig::fixed_default()).unwrap();
            let fixed = runner().run(q, ExecConfig::fixed(flavor)).unwrap();
            assert_eq!(base.rows, fixed.rows, "Q{q} fixed({flavor}) rows");
            assert_close(
                base.checksum,
                fixed.checksum,
                &format!("Q{q} fixed({flavor})"),
            );
        }
    }
}

#[test]
fn adaptive_runs_have_deterministic_structure() {
    // Flavor *decisions* react to measured time and are not expected to be
    // bit-identical across runs; the plan structure, per-instance call
    // counts and results are.
    let a = runner()
        .run(6, ExecConfig::adaptive(FlavorAxis::All).with_seed(5))
        .unwrap();
    let b = runner()
        .run(6, ExecConfig::adaptive(FlavorAxis::All).with_seed(5))
        .unwrap();
    assert_eq!(a.rows, b.rows);
    assert!((a.checksum - b.checksum).abs() <= 1e-9 * a.checksum.abs().max(1.0));
    let sa: Vec<_> = a
        .instances
        .iter()
        .map(|i| (i.label.clone(), i.signature.clone(), i.calls, i.tuples))
        .collect();
    let sb: Vec<_> = b
        .instances
        .iter()
        .map(|i| (i.label.clone(), i.signature.clone(), i.calls, i.tuples))
        .collect();
    assert_eq!(sa, sb);
}

#[test]
fn instance_profiles_cover_primitive_families() {
    // A power run exercises every family the paper's flavor sets target.
    let mut seen_families: Vec<&str> = Vec::new();
    for q in [1, 2, 12, 16, 21] {
        let r = runner().run(q, ExecConfig::fixed_default()).unwrap();
        for i in &r.instances {
            for fam in [
                "sel_",
                "map_add",
                "map_mul",
                "map_fetch",
                "map_hash",
                "aggr_",
                "aggr0_",
                "hash_insertcheck",
                "mergejoin",
                "sel_bloomfilter",
            ] {
                if i.signature.starts_with(fam) && !seen_families.contains(&fam) {
                    seen_families.push(fam);
                }
            }
        }
    }
    for fam in [
        "sel_",
        "map_mul",
        "map_fetch",
        "map_hash",
        "aggr_",
        "hash_insertcheck",
        "mergejoin",
        "sel_bloomfilter",
    ] {
        assert!(
            seen_families.contains(&fam),
            "family {fam} never exercised; got {seen_families:?}"
        );
    }
}

#[test]
fn aphs_account_for_all_primitive_ticks() {
    let r = runner().run(1, ExecConfig::fixed_default()).unwrap();
    for i in &r.instances {
        if let Some(aph) = &i.aph {
            assert_eq!(aph.total_calls(), i.calls, "{}", i.label);
            assert_eq!(aph.total_ticks(), i.ticks, "{}", i.label);
            assert_eq!(aph.total_tuples(), i.tuples, "{}", i.label);
        }
    }
}
