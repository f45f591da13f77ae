//! TPC-H based experiments: Table 1, Fig. 2, Fig. 4, Tables 6–10,
//! Table 11, Fig. 11.

use std::sync::Arc;

use ma_core::cycles::ticks_now;
use ma_core::Aph;
use ma_executor::ops::{collect, ProjItem, Project, Scan, Select};
use ma_executor::{
    BoxOp, CmpKind, ExecConfig, FlavorAxis, InstanceReport, Pred, QueryContext, StageProfile, Value,
};
use ma_tpch::{geometric_mean, Runner};

use crate::report::render_aph_series;

/// Table 1: ticks per execution stage for
/// `SELECT l_orderkey FROM lineitem WHERE l_quantity < 40`.
pub fn table1(runner: &Runner) -> String {
    let mut out = String::from(
        "=== Table 1: time per execution stage (SELECT l_orderkey WHERE l_quantity < 40) ===\n",
    );
    let dict = Arc::clone(runner.dictionary());
    let ctx = QueryContext::new(dict, ExecConfig::fixed_default());

    // preprocess: plan construction
    let t0 = ticks_now();
    let scan: BoxOp = Box::new(
        Scan::new(
            Arc::clone(&runner.db().lineitem),
            &["l_quantity", "l_orderkey"],
            ctx.vector_size(),
        )
        .expect("lineitem columns"),
    );
    let sel = Select::new(
        scan,
        &Pred::cmp_val(0, CmpKind::Lt, Value::I32(40)),
        &ctx.scope("T1/sel"),
    )
    .expect("predicate");
    let mut proj: BoxOp = Box::new(
        Project::new(Box::new(sel), vec![ProjItem::Pass(1)], &ctx.scope("T1/out"))
            .expect("projection"),
    );
    let preprocess = ticks_now().saturating_sub(t0);

    // execute: the pull loop
    let t1 = ticks_now();
    let chunks = collect(proj.as_mut()).expect("execution");
    let execute = ticks_now().saturating_sub(t1);

    // postprocess: result counting/assembly
    let t2 = ticks_now();
    let rows: usize = chunks.iter().map(ma_vector::DataChunk::live_count).sum();
    let postprocess = ticks_now().saturating_sub(t2);

    // Instances publish their stats when dropped: drop the plan before
    // the primitive-tick readout.
    drop(proj);
    let stages = StageProfile {
        preprocess,
        execute,
        primitives: ctx.total_primitive_ticks(),
        postprocess,
    };
    out.push_str(&stages.render());
    out.push_str(&format!("({rows} qualifying tuples)\n"));
    out
}

/// Fig. 2: (no-)branching selection APHs across the Q12 date predicate —
/// a long 100% plateau collapsing to 0% at the end, thanks to the
/// date-clustered storage.
pub fn fig02(runner: &Runner) -> String {
    let mut out =
        String::from("=== Figure 2: (No-)Branching cost during the Q12 date selection ===\n");
    let p = runner.params();
    let (ge_day, lt_day) = (p.q12_date, crate::dates_add_year(p.q12_date));
    let mut series = Vec::new();
    for flavor in ["branching", "no_branching"] {
        let ctx = QueryContext::new(Arc::clone(runner.dictionary()), ExecConfig::fixed(flavor));
        let scan: BoxOp = Box::new(
            Scan::new(
                Arc::clone(&runner.db().lineitem),
                &["l_receiptdate"],
                ctx.vector_size(),
            )
            .expect("lineitem"),
        );
        // First conjunct narrows; the second (the plotted instance) then
        // sees ~100% selectivity for most of the query, dropping at the end.
        let sel = Select::new(
            scan,
            &Pred::And(vec![
                Pred::cmp_val(0, CmpKind::Ge, Value::I32(ge_day)),
                Pred::cmp_val(0, CmpKind::Lt, Value::I32(lt_day)),
            ]),
            &ctx.scope("F2"),
        )
        .expect("predicate");
        let mut op: BoxOp = Box::new(sel);
        while op.next().expect("run").is_some() {}
        // Instances publish their stats when dropped: drop the plan
        // before reading reports.
        drop(op);
        let report = ctx
            .reports()
            .into_iter()
            .find(|r| r.signature.starts_with("sel_lt_i32"))
            .expect("the < instance");
        let aph = report.aph.expect("APH collected");
        series.push((flavor.to_string(), aph.series()));
    }
    out.push_str(&render_aph_series(
        "cycles/tuple vs call number",
        &series,
        32,
    ));
    out
}

/// Helper: runs one query under several configs and extracts the APH series
/// of the first instance matching `pick`.
fn aph_for_configs(
    runner: &Runner,
    query: usize,
    configs: &[(&str, ExecConfig)],
    pick: impl Fn(&InstanceReport) -> bool,
) -> Vec<(String, Vec<(u64, f64)>)> {
    configs
        .iter()
        .map(|(name, cfg)| {
            let r = runner.run(query, cfg.clone()).expect("query run");
            let inst = r
                .instances
                .into_iter()
                .find(&pick)
                .unwrap_or_else(|| panic!("Q{query}: no instance matched for {name}"));
            (name.to_string(), inst.aph.expect("APH collected").series())
        })
        .collect()
}

/// A boxed instance-report predicate used by the figure case tables.
type Pick = Box<dyn Fn(&InstanceReport) -> bool>;

/// Fig. 4: compiler-style APHs for five sample primitive instances.
pub fn fig04(runner: &Runner) -> String {
    let mut out = String::from("=== Figure 4: compiler-style differences, sample APHs ===\n");
    let styles = || -> Vec<(&'static str, ExecConfig)> {
        vec![
            ("gcc", ExecConfig::fixed("gcc")),
            ("icc", ExecConfig::fixed("icc")),
            ("clang", ExecConfig::fixed("clang")),
        ]
    };
    let cases: Vec<(&str, usize, Pick)> = vec![
        (
            "(a) Q1 Projection(map_add_f64)",
            1,
            Box::new(|r| r.signature.starts_with("map_add_f64")),
        ),
        (
            "(b) Q1 Aggregation(aggr_sum128_i64)",
            1,
            Box::new(|r| r.signature == "aggr_sum128_i64_col"),
        ),
        (
            "(c) Q12 MergeJoin(mergejoin_i64)",
            12,
            Box::new(|r| r.signature.starts_with("mergejoin")),
        ),
        (
            "(d) Q12 fetch(map_fetch_str)",
            12,
            Box::new(|r| r.signature.starts_with("map_fetch_str")),
        ),
        (
            "(e) Q16 Aggregation(hash_insertcheck_str)",
            16,
            Box::new(|r| r.signature == "hash_insertcheck_str_col"),
        ),
    ];
    for (title, q, pick) in cases {
        let series = aph_for_configs(runner, q, &styles(), pick);
        out.push_str(&render_aph_series(title, &series, 24));
    }
    out
}

/// Whether an instance belongs to the flavor set of `axis` (mirrors the
/// registry's flavor registration).
pub fn affected(axis: FlavorAxis, sig: &str) -> bool {
    let is_numeric_sel =
        sig.starts_with("sel_") && !sig.contains("str") && sig != "sel_bloomfilter";
    let is_arith_map = ["map_add_", "map_sub_", "map_mul_", "map_div_"]
        .iter()
        .any(|p| sig.starts_with(p));
    match axis {
        FlavorAxis::Branching => {
            sig.starts_with("sel_") && !sig.contains("like") && sig != "sel_bloomfilter"
        }
        FlavorAxis::Compiler => {
            is_numeric_sel
                || is_arith_map
                || sig.starts_with("map_fetch_")
                || sig.starts_with("map_hash_")
                || sig.starts_with("aggr_sum")
                || sig.starts_with("aggr0_sum")
                || sig == "aggr_count"
                || sig.starts_with("hash_insertcheck")
                || sig.starts_with("mergejoin")
        }
        FlavorAxis::Fission => sig == "sel_bloomfilter",
        FlavorAxis::FullComputation => {
            is_arith_map && (!sig.starts_with("map_div_") || sig.contains("f64"))
        }
        FlavorAxis::Unrolling => {
            (is_arith_map || is_numeric_sel) && sig.contains("col_val")
                || is_arith_map && sig.contains("col_col")
        }
        FlavorAxis::Default | FlavorAxis::All => true,
    }
}

/// One of Tables 6–10: runs the full workload with each fixed flavor of the
/// set, with Micro Adaptivity on the axis, and reports improvement factors
/// over the baseline plus the bucket-wise OPT.
pub fn flavor_set_table(
    runner: &Runner,
    title: &str,
    axis: FlavorAxis,
    baseline: &'static str,
    alternatives: &[&'static str],
    queries: &[usize],
) -> String {
    let run_fixed = |flavor: &'static str| -> Vec<Vec<InstanceReport>> {
        queries
            .iter()
            .map(|&q| {
                runner
                    .run(q, ExecConfig::fixed(flavor))
                    .unwrap_or_else(|e| panic!("Q{q}: {e}"))
                    .instances
            })
            .collect()
    };
    let base_runs = run_fixed(baseline);
    let alt_runs: Vec<(&str, Vec<Vec<InstanceReport>>)> =
        alternatives.iter().map(|&a| (a, run_fixed(a))).collect();
    let adaptive_runs: Vec<Vec<InstanceReport>> = queries
        .iter()
        .map(|&q| {
            runner
                .run(q, ExecConfig::adaptive(axis))
                .unwrap_or_else(|e| panic!("Q{q}: {e}"))
                .instances
        })
        .collect();

    let affected_ticks = |runs: &[Vec<InstanceReport>]| -> u64 {
        runs.iter()
            .flat_map(|insts| insts.iter())
            .filter(|i| affected(axis, &i.signature))
            .map(|i| i.ticks)
            .sum()
    };
    let total_base: u64 = base_runs
        .iter()
        .flat_map(|insts| insts.iter())
        .map(|i| i.ticks)
        .sum();
    let base_ticks = affected_ticks(&base_runs);
    let pct = base_ticks as f64 / total_base.max(1) as f64 * 100.0;

    // OPT: bucket-wise minimum across the fixed-flavor runs, per instance.
    let mut opt_ticks = 0u64;
    for (qi, base_insts) in base_runs.iter().enumerate() {
        for (ii, bi) in base_insts.iter().enumerate() {
            if !affected(axis, &bi.signature) {
                continue;
            }
            let mut aphs: Vec<&Aph> = Vec::new();
            if let Some(a) = &bi.aph {
                aphs.push(a);
            }
            for (_, ar) in &alt_runs {
                if let Some(inst) = ar[qi].get(ii) {
                    if let (Some(a), true) =
                        (&inst.aph, inst.calls == bi.calls && inst.label == bi.label)
                    {
                        aphs.push(a);
                    }
                }
            }
            opt_ticks += if aphs.len() > 1 {
                Aph::opt_ticks(&aphs)
            } else {
                bi.ticks
            };
        }
    }

    let mut factors: Vec<(String, f64)> = Vec::new();
    for (name, runs) in &alt_runs {
        let t = affected_ticks(runs);
        factors.push((
            format!("Always {name}"),
            base_ticks as f64 / t.max(1) as f64,
        ));
    }
    factors.push((
        "Micro Adaptive".into(),
        base_ticks as f64 / affected_ticks(&adaptive_runs).max(1) as f64,
    ));
    factors.push(("OPT".into(), base_ticks as f64 / opt_ticks.max(1) as f64));

    crate::report::render_factor_table(
        title,
        &format!("Always {baseline} (baseline)"),
        base_ticks,
        pct,
        &factors,
    )
}

/// Table 11: per-query improvement of Heuristics and Micro Adaptivity over
/// the stock engine, plus the geometric mean.
pub fn table11(runner: &Runner, queries: &[usize]) -> String {
    let mut out =
        String::from("=== Table 11: TPC-H per query — heuristics vs Micro Adaptivity ===\n");
    out.push_str(&format!(
        "{:<6} {:>14} {:>12} {:>14}\n",
        "query", "base Mticks", "Heuristics", "MicroAdaptive"
    ));
    let mut hf = Vec::new();
    let mut af = Vec::new();
    // Each (query, config) runs three times; the median execute time is
    // used, like any sane wall-clock comparison.
    let median_run = |q: usize, cfg: &ExecConfig| -> (u64, f64) {
        let mut runs: Vec<_> = (0..3)
            .map(|i| {
                runner
                    .run(q, cfg.clone().with_seed(cfg.seed ^ i))
                    .unwrap_or_else(|e| panic!("Q{q}: {e}"))
            })
            .collect();
        runs.sort_by_key(|r| r.stages.execute);
        let mid = runs.swap_remove(1);
        (mid.stages.execute, mid.checksum)
    };
    for &q in queries {
        let (base_t, base_ck) = median_run(q, &ExecConfig::fixed_default());
        let (heur_t, heur_ck) = median_run(q, &ExecConfig::heuristic());
        let (adapt_t, adapt_ck) = median_run(q, &ExecConfig::adaptive(FlavorAxis::All));
        // Results must agree regardless of configuration.
        let tol = 1e-6 * base_ck.abs().max(1.0);
        assert!(
            (base_ck - heur_ck).abs() <= tol && (base_ck - adapt_ck).abs() <= tol,
            "Q{q}: configs disagree on results"
        );
        let h = base_t as f64 / heur_t.max(1) as f64;
        let a = base_t as f64 / adapt_t.max(1) as f64;
        hf.push(h);
        af.push(a);
        out.push_str(&format!(
            "Q{q:<5} {:>14.1} {:>12.2} {:>14.2}\n",
            base_t as f64 / 1e6,
            h,
            a
        ));
    }
    out.push_str(&format!(
        "{:<6} {:>14} {:>12.2} {:>14.2}\n",
        "GeoAvg",
        "",
        geometric_mean(&hf),
        geometric_mean(&af)
    ));
    out
}

/// Fig. 11: micro-adaptive execution tracking the per-bucket minimum —
/// five sample instances, one per flavor set.
pub fn fig11(runner: &Runner) -> String {
    let mut out = String::from("=== Figure 11: Micro Adaptive sample APHs ===\n");
    let cases: Vec<(&str, usize, FlavorAxis, Vec<&'static str>, Pick)> = vec![
        (
            "(a) Q14 Selection — branching set",
            14,
            FlavorAxis::Branching,
            vec!["branching", "no_branching"],
            Box::new(|r| r.signature.starts_with("sel_ge_i32")),
        ),
        (
            "(b) Q7 Selection — compiler set",
            7,
            FlavorAxis::Compiler,
            vec!["gcc", "icc", "clang"],
            Box::new(|r| r.signature.starts_with("sel_ge_i32")),
        ),
        (
            "(c) Q1 Projection — full computation set",
            1,
            FlavorAxis::FullComputation,
            vec!["selective", "full"],
            Box::new(|r| r.signature.starts_with("map_mul_f64")),
        ),
        (
            "(d) Q21 HashJoin — bloom fission set",
            21,
            FlavorAxis::Fission,
            vec!["fused", "fission"],
            Box::new(|r| r.signature == "sel_bloomfilter"),
        ),
        (
            "(e) Q7 Selection — unrolling set",
            7,
            FlavorAxis::Unrolling,
            vec!["unroll8", "no_unroll"],
            Box::new(|r| r.signature.starts_with("sel_ge_i32")),
        ),
    ];
    for (title, q, axis, flavors, pick) in cases {
        let mut configs: Vec<(&str, ExecConfig)> =
            flavors.iter().map(|&f| (f, ExecConfig::fixed(f))).collect();
        configs.push(("micro adaptive", ExecConfig::adaptive(axis)));
        let series = aph_for_configs(runner, q, &configs, pick);
        out.push_str(&render_aph_series(title, &series, 24));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ma_tpch::TpchData;
    use std::sync::OnceLock;

    fn runner() -> &'static Runner {
        static R: OnceLock<Runner> = OnceLock::new();
        R.get_or_init(|| Runner::new(Arc::new(TpchData::generate(0.004, 0xBE))))
    }

    #[test]
    fn table1_execute_dominates() {
        let txt = table1(runner());
        assert!(txt.contains("preprocess"));
        assert!(txt.contains("qualifying tuples"));
    }

    #[test]
    fn fig02_has_both_flavors() {
        let txt = fig02(runner());
        assert!(txt.contains("branching"));
        assert!(txt.contains("no_branching"));
    }

    #[test]
    fn affected_rules_are_disjoint_where_expected() {
        assert!(affected(FlavorAxis::Branching, "sel_lt_i32_col_val"));
        assert!(!affected(FlavorAxis::Branching, "sel_bloomfilter"));
        assert!(!affected(FlavorAxis::Branching, "sel_like_str_col_val"));
        assert!(affected(FlavorAxis::Fission, "sel_bloomfilter"));
        assert!(!affected(FlavorAxis::Fission, "sel_lt_i32_col_val"));
        assert!(affected(FlavorAxis::FullComputation, "map_mul_i64_col_col"));
        assert!(!affected(
            FlavorAxis::FullComputation,
            "map_div_i64_col_col"
        ));
        assert!(affected(FlavorAxis::FullComputation, "map_div_f64_col_col"));
        assert!(affected(FlavorAxis::Compiler, "mergejoin_i64_col_i64_col"));
        assert!(!affected(FlavorAxis::Compiler, "map_cast_i32_i64"));
        assert!(affected(FlavorAxis::Unrolling, "map_mul_i64_col_col"));
        assert!(!affected(FlavorAxis::Unrolling, "sel_eq_str_col_val"));
    }

    #[test]
    fn flavor_set_table_q6_branching() {
        let txt = flavor_set_table(
            runner(),
            "Table 6 (Q6 only)",
            FlavorAxis::Branching,
            "branching",
            &["no_branching"],
            &[6],
        );
        assert!(txt.contains("Always no_branching"));
        assert!(txt.contains("Micro Adaptive"));
        assert!(txt.contains("OPT"));
    }

    #[test]
    fn table11_subset_runs_and_checks_results() {
        let txt = table11(runner(), &[1, 6]);
        assert!(txt.contains("GeoAvg"));
        assert!(txt.contains("Q1"));
    }
}
