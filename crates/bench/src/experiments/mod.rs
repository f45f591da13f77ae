//! Experiment registry: one entry per paper table/figure.

pub mod ablation;
pub mod agg_scaling;
pub mod compress;
pub mod demo;
pub mod join_scaling;
pub mod micro;
pub mod scaling;
pub mod tpch_exp;

use std::sync::Arc;

use ma_executor::FlavorAxis;
use ma_tpch::{Runner, TpchData};

/// All experiment identifiers, in paper order ("scaling", "agg-scaling",
/// "join-scaling" and "compress" are ours, not the paper's: the
/// parallel-executor thread sweep, the partitioned-aggregation sweep,
/// the join-heavy thread sweep, and the compressed-storage
/// byte/tick comparison).
pub const ALL_EXPERIMENTS: [&str; 18] = [
    "table1",
    "fig1",
    "fig2",
    "fig4",
    "fig5",
    "fig6",
    "table4",
    "fig8",
    "fig10",
    "table5",
    "tables6-10",
    "table11",
    "fig11",
    "ablation",
    "scaling",
    "agg-scaling",
    "join-scaling",
    "compress",
];

/// Runs one experiment by id, returning its report text.
///
/// `sf` scales the TPC-H experiments; micro-benchmarks ignore it. The
/// runner is shared so the database generates once per invocation.
pub fn run_experiment(id: &str, runner: &Runner, seed: u64) -> Option<String> {
    let all_queries: Vec<usize> = (1..=22).collect();
    Some(match id {
        "table1" => tpch_exp::table1(runner),
        "fig1" => micro::fig01(),
        "fig2" => tpch_exp::fig02(runner),
        "fig4" => tpch_exp::fig04(runner),
        "fig5" => micro::fig05(),
        "fig6" => micro::fig06(),
        "table4" => micro::table4(),
        "fig8" => micro::fig08(),
        "fig10" => demo::fig10(seed),
        "table5" => demo::table5(runner, &all_queries, seed),
        "tables6-10" => {
            let mut out = String::new();
            out.push_str(&tpch_exp::flavor_set_table(
                runner,
                "Table 6: (No-)Branching flavors",
                FlavorAxis::Branching,
                "branching",
                &["no_branching"],
                &all_queries,
            ));
            out.push('\n');
            out.push_str(&tpch_exp::flavor_set_table(
                runner,
                "Table 7: Compiler flavors",
                FlavorAxis::Compiler,
                "gcc",
                &["icc", "clang"],
                &all_queries,
            ));
            out.push('\n');
            out.push_str(&tpch_exp::flavor_set_table(
                runner,
                "Table 8: Loop Fission flavors",
                FlavorAxis::Fission,
                "fused",
                &["fission"],
                &all_queries,
            ));
            out.push('\n');
            out.push_str(&tpch_exp::flavor_set_table(
                runner,
                "Table 9: Full Computation flavors",
                FlavorAxis::FullComputation,
                "selective",
                &["full"],
                &all_queries,
            ));
            out.push('\n');
            out.push_str(&tpch_exp::flavor_set_table(
                runner,
                "Table 10: Hand-Unrolling flavors",
                FlavorAxis::Unrolling,
                "unroll8",
                &["no_unroll"],
                &all_queries,
            ));
            out
        }
        "table11" => tpch_exp::table11(runner, &all_queries),
        "fig11" => tpch_exp::fig11(runner),
        "scaling" => scaling::scaling(runner),
        "agg-scaling" => agg_scaling::agg_scaling(runner),
        "join-scaling" => join_scaling::join_scaling(runner),
        "compress" => compress::compress(runner),
        "ablation" => {
            let mut out = ablation::vector_size(runner);
            out.push('\n');
            out.push_str(&ablation::vw_params(seed));
            out.push('\n');
            out.push_str(&ablation::aph_buckets());
            out
        }
        _ => return None,
    })
}

/// Builds the shared runner at a scale factor.
pub fn make_runner(sf: f64, seed: u64) -> Runner {
    Runner::new(Arc::new(TpchData::generate(sf, seed)))
}

/// True when two result checksums agree up to float-reassociation noise
/// (parallel execution reorders f64 additions). The single tolerance every
/// sweep's cross-validation uses.
pub fn checksums_match(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(1.0)
}
