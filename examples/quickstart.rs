//! Quickstart: Micro Adaptivity in ~60 lines.
//!
//! Builds a table whose value distribution *changes mid-scan* (the paper's
//! Fig. 2 situation), runs the same selection query — written once against
//! the named-column `PlanBuilder` API — with each fixed flavor and with
//! Micro Adaptivity, and prints the cost each strategy paid.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use micro_adaptivity::executor::plan::{lower, NamedPred, PlanBuilder};
use micro_adaptivity::executor::{CmpKind, ExecConfig, FlavorAxis, QueryContext, Value};
use micro_adaptivity::primitives::build_dictionary;
use micro_adaptivity::vector::{ColumnBuilder, DataType, Table};

fn main() {
    // 4M rows: the first half is ~99% selective (branch almost always
    // taken), the second half ~50% (branch unpredictable). No single flavor
    // is right for the whole scan.
    let n = 4_000_000;
    let mut col = ColumnBuilder::with_capacity(DataType::I32, n);
    let mut state = 0x9E3779B97F4A7C15u64;
    for i in 0..n {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let r = (state >> 40) as i32 % 1000;
        col.push_i32(if i < n / 2 { r / 100 } else { r });
    }
    let table = Arc::new(Table::new("t", vec![("v".into(), col.finish())]).unwrap());
    let dict = Arc::new(build_dictionary());

    // The query names its column; the physical planner (`lower`) decides
    // everything physical — operator choice, sharding, pushdown.
    let plan = PlanBuilder::from_table(Arc::clone(&table), &["v"])
        .filter(
            NamedPred::cmp_val("v", CmpKind::Lt, Value::I32(500)),
            "quickstart",
        )
        .build()
        .unwrap();

    let run = |name: &str, config: ExecConfig| {
        let ctx = QueryContext::new(Arc::clone(&dict), config);
        let mut op = lower(&plan, &ctx).unwrap();
        let mut rows = 0usize;
        while let Some(chunk) = op.next().unwrap() {
            rows += chunk.live_count();
        }
        // A primitive instance publishes its statistics when it is
        // dropped: drop the pipeline before reading them.
        drop(op);
        let report = &ctx.reports()[0];
        println!(
            "{name:<22} {:>12} ticks  ({} rows, flavors used: {})",
            report.ticks,
            rows,
            report
                .flavor_calls
                .iter()
                .filter(|(_, c)| *c > 0)
                .map(|(f, c)| format!("{f}×{c}"))
                .collect::<Vec<_>>()
                .join(", ")
        );
        report.ticks
    };

    println!("SELECT count(*) WHERE v < 500 over phase-changing data:\n");
    let b = run("always branching", ExecConfig::fixed("branching"));
    let nb = run("always no-branching", ExecConfig::fixed("no_branching"));
    let ma = run(
        "micro adaptive",
        ExecConfig::adaptive(FlavorAxis::Branching),
    );
    println!(
        "\nmicro adaptive vs best fixed: {:.2}x, vs worst fixed: {:.2}x",
        b.min(nb) as f64 / ma as f64,
        b.max(nb) as f64 / ma as f64
    );
}
