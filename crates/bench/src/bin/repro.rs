//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro <experiment|all> [--sf F] [--seed S]
//! repro query "<dsl>" [--sf F] [--limit N]
//! repro fuzz [--cases N] [--seed S] [--sf F]
//! repro analyze <query|all|"dsl"> [--sf F] [--budget BYTES]
//! repro mem <query|all|"dsl"> [--sf F] [--workers N] [--budget BYTES]
//!
//! experiments: table1 fig1 fig2 fig4 fig5 fig6 table4 fig8 fig10 table5
//!              tables6-10 table11 fig11 ablation scaling agg-scaling
//!              compress
//! ```
//!
//! `query` runs one DSL pipeline (see DESIGN.md §10) against freshly
//! generated TPC-H data and prints the result table. `fuzz` runs the
//! differential plan fuzzer — random well-typed queries executed under
//! every worker/partition/vector-size configuration, results compared —
//! and exits nonzero on any divergence, printing the shrunk reproduction
//! and its `(seed, case)` line.
//!
//! TPC-H experiments default to scale factor 0.05 (≈300K lineitems); the
//! micro-benchmarks run on fixed synthetic data. Output goes to stdout;
//! absolute tick counts are host-specific, shapes and factors are the
//! reproduction targets (see EXPERIMENTS.md). The committed benchmark
//! trajectory (`BENCH_<pr>.json`) is written from `perf/`, not from here.

use ma_bench::experiments::{make_runner, run_experiment, ALL_EXPERIMENTS};
use ma_executor::config::DEFAULT_MEMORY_BUDGET;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("query") {
        query_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("fuzz") {
        fuzz_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("analyze") {
        analyze_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("mem") {
        mem_main(&args[1..]);
    }
    let mut ids: Vec<String> = Vec::new();
    let mut sf = 0.05f64;
    let mut seed = 0xC0FFEEu64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sf" => {
                i += 1;
                sf = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--sf needs a number"));
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--help" | "-h" => usage(""),
            other => ids.push(other.to_string()),
        }
        i += 1;
    }
    if ids.is_empty() {
        usage("no experiment given");
    }
    if ids.iter().any(|i| i == "all") {
        ids = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }

    eprintln!("generating TPC-H data at SF {sf} (seed {seed:#x}) ...");
    let runner = make_runner(sf, seed);
    for id in &ids {
        match run_experiment(id, &runner, seed) {
            Some(report) => println!("{report}"),
            None => {
                eprintln!("unknown experiment: {id}");
                usage("");
            }
        }
    }
}

/// `repro query "<dsl>" [--sf F] [--limit N]` — never returns.
fn query_main(args: &[String]) -> ! {
    use ma_vector::Vector;
    let mut text: Option<String> = None;
    let mut sf = 0.01f64;
    let mut limit = 20usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sf" => {
                i += 1;
                sf = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--sf needs a number"));
            }
            "--limit" => {
                i += 1;
                limit = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--limit needs an integer"));
            }
            "--help" | "-h" => usage(""),
            other if text.is_none() => text = Some(other.to_string()),
            _ => usage("query takes exactly one DSL string"),
        }
        i += 1;
    }
    let text = text.unwrap_or_else(|| usage("query needs a DSL string"));
    eprintln!("generating TPC-H data at SF {sf} ...");
    let db = ma_tpch::TpchData::generate(sf, 0xDBD1);
    let plan = match ma_executor::frontend::plan_text(&text, &db) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let ctx = ma_executor::QueryContext::new(
        std::sync::Arc::new(ma_primitives::build_dictionary()),
        ma_executor::ExecConfig::fixed_default(),
    );
    let store = ma_executor::lower(&plan, &ctx)
        .and_then(|mut op| ma_executor::ops::materialize(op.as_mut()))
        .unwrap_or_else(|e| {
            eprintln!("execution error: {e}");
            std::process::exit(1);
        });
    let names: Vec<&str> = plan
        .schema()
        .fields()
        .iter()
        .map(|f| f.name.as_str())
        .collect();
    println!("{}", names.join("\t"));
    let shown = store.rows().min(limit);
    for r in 0..shown {
        let row: Vec<String> = (0..names.len())
            .map(|c| match store.col(c) {
                Vector::I16(v) => v[r].to_string(),
                Vector::I32(v) => v[r].to_string(),
                Vector::I64(v) => v[r].to_string(),
                Vector::F64(v) => format!("{:.4}", v[r]),
                Vector::Str(s) => s.get(r).to_string(),
            })
            .collect();
        println!("{}", row.join("\t"));
    }
    if shown < store.rows() {
        println!("... ({} more rows)", store.rows() - shown);
    }
    eprintln!("{} rows", store.rows());
    std::process::exit(0);
}

/// `repro fuzz [--cases N] [--seed S] [--sf F]` — never returns.
fn fuzz_main(args: &[String]) -> ! {
    let mut cases = 500u64;
    let mut seed = 0xF022u64;
    let mut sf = 0.01f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--cases" => {
                i += 1;
                cases = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--cases needs an integer"));
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--sf" => {
                i += 1;
                sf = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--sf needs a number"));
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown fuzz option: {other}")),
        }
        i += 1;
    }
    eprintln!("generating TPC-H data at SF {sf} ...");
    let db = std::sync::Arc::new(ma_tpch::TpchData::generate(sf, 0xDBD1));
    let fuzzer = ma_tpch::fuzz::Fuzzer::new(db);
    eprintln!("fuzzing {cases} cases from seed {seed:#x} ...");
    let report = fuzzer.run(seed, cases, |done, fails| {
        if done % 50 == 0 || done == cases {
            eprintln!("  {done}/{cases} cases, {fails} failure(s)");
        }
    });
    for f in &report.failures {
        println!("FAIL case {} (seed {:#x})", f.case, f.seed);
        println!("  query:     {}", f.query);
        println!("  minimized: {}", f.minimized);
        println!("  detail:    {}", f.detail);
    }
    if report.ok() {
        println!("OK: {cases} cases, all configurations agree");
        std::process::exit(0);
    }
    eprintln!("FAIL: {} of {cases} cases diverged", report.failures.len());
    std::process::exit(1);
}

/// What `repro analyze` and `repro mem` parse: the target (a TPC-H query
/// number, `all`, or a DSL string), `--sf`, `--budget` and, where the
/// command takes it (`workers` is `Some` default), `--workers`. Returns
/// the target, the generated data, the configuration to plan under and
/// the `--budget`, if given.
fn plan_args(
    cmd: &str,
    args: &[String],
    workers: Option<usize>,
) -> (
    String,
    ma_tpch::TpchData,
    ma_executor::ExecConfig,
    Option<u64>,
) {
    let mut target: Option<String> = None;
    let mut sf = 0.01f64;
    let mut workers_arg = workers;
    let mut budget: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sf" => {
                i += 1;
                sf = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--sf needs a number"));
            }
            "--workers" if workers.is_some() => {
                i += 1;
                workers_arg = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--workers needs an integer")),
                );
            }
            "--budget" => {
                i += 1;
                budget = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--budget needs a byte count")),
                );
            }
            "--help" | "-h" => usage(""),
            other if target.is_none() => target = Some(other.to_string()),
            _ => usage(&format!(
                "{cmd} takes one query number, 'all', or a DSL string"
            )),
        }
        i += 1;
    }
    let target = target.unwrap_or_else(|| {
        usage(&format!(
            "{cmd} needs a query number, 'all', or a DSL string"
        ))
    });
    eprintln!("generating TPC-H data at SF {sf} ...");
    let db = ma_tpch::TpchData::generate(sf, 0xDBD1);
    let mut cfg = ma_executor::ExecConfig::fixed_default();
    if let Some(n) = workers_arg {
        cfg = cfg.with_workers(n);
    }
    (target, db, cfg, budget)
}

/// Calls `each` with the title and plan of every query `target` names:
/// TPC-H query `N`, all 22 for `all`, or else the DSL string itself.
/// Exits 1 on a plan that does not build.
fn for_each_plan(
    target: &str,
    db: &ma_tpch::TpchData,
    mut each: impl FnMut(&str, &ma_executor::LogicalPlan),
) {
    let queries: Vec<usize> = if target == "all" {
        (1..=22).collect()
    } else if let Ok(q) = target.parse::<usize>() {
        vec![q]
    } else {
        let plan = ma_executor::frontend::plan_text(target, db).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });
        return each("query", &plan);
    };
    let params = ma_tpch::Params::default();
    for q in queries {
        let plan = ma_tpch::queries::query_plan(q, db, &params)
            .and_then(|pb| Ok(pb.build()?))
            .unwrap_or_else(|e| {
                eprintln!("Q{q}: {e}");
                std::process::exit(1);
            });
        each(&format!("Q{q}"), &plan);
    }
}

/// `repro analyze <query|all|"dsl"> [--sf F] [--budget BYTES]` — plans
/// each query once and prints that plan with each node's derived facts
/// (row bound, column intervals, NDV caps, distinctness proofs) and the
/// proven bytes of its stages, then the planner's findings and the peak
/// roll-up. Exits nonzero when a finding is a *hazard* (a reachable
/// runtime trap, the same class `verify` rejects) — or, when `--budget`
/// is given explicitly, when any plan's proven peak exceeds it. Never
/// returns.
fn analyze_main(args: &[String]) -> ! {
    let (target, db, cfg, budget) = plan_args("analyze", args, None);
    let mut hazards = 0usize;
    for_each_plan(&target, &db, |title, plan| {
        let phys = ma_executor::plan_physical(plan, &cfg).unwrap_or_else(|e| {
            eprintln!("{title}: {e}");
            std::process::exit(1);
        });
        let cost = ma_executor::cost::report(&phys, budget.unwrap_or(DEFAULT_MEMORY_BUDGET));
        println!("-- {title} --");
        print!("{}", phys.render_analysis(&cost));
        if phys.findings().is_empty() {
            println!("analysis clean: no findings");
        }
        for e in phys.findings() {
            let sev = if e.is_hazard() { "HAZARD" } else { "warning" };
            println!("{sev}: {e}");
        }
        hazards += phys.findings().iter().filter(|e| e.is_hazard()).count();
        println!("{cost}");
        if budget.is_some() {
            hazards += cost.findings.len();
        }
    });
    std::process::exit(if hazards > 0 { 1 } else { 0 });
}

/// `repro mem <query|all|"dsl"> [--sf F] [--workers N] [--budget BYTES]`
/// — the predicted-vs-actual memory sweep: plans each query, executes
/// that plan, and prints it with the proven bytes of each node's stages
/// and, under the same node, every tracked operator instance's recorded
/// high-water resident bytes against the bound the planner registered for
/// it. Exits nonzero if any actual exceeds its proven bound (a cost-model
/// soundness bug). Never returns.
fn mem_main(args: &[String]) -> ! {
    use ma_executor::cost::fmt_bytes;
    let (target, db, cfg, budget) = plan_args("mem", args, Some(2));
    let dict = std::sync::Arc::new(ma_primitives::build_dictionary());
    let mut violations = 0usize;
    for_each_plan(&target, &db, |title, plan| {
        let ctx = ma_executor::QueryContext::new(std::sync::Arc::clone(&dict), cfg.clone());
        let executed = ma_executor::verify(plan, &cfg)
            .map_err(ma_executor::ExecError::from)
            .and_then(|phys| {
                let store = ma_executor::instantiate(&phys, &ctx)
                    .and_then(|mut op| ma_executor::ops::materialize(op.as_mut()))?;
                Ok((phys, store.rows()))
            });
        let (phys, rows) = executed.unwrap_or_else(|e| {
            eprintln!("{title}: execution error: {e}");
            std::process::exit(1);
        });
        let cost = ma_executor::cost::report(&phys, budget.unwrap_or(DEFAULT_MEMORY_BUDGET));
        let reports = ctx.mem_reports();
        println!("-- {title} --");
        print!(
            "{}",
            phys.render(&|node| {
                let stages = cost.stages(node.id).map(ToString::to_string);
                let tracked = reports.iter().filter(|r| r.key.node == node.id).map(|r| {
                    let ok = if r.high_water <= r.bound {
                        "ok"
                    } else {
                        "EXCEEDED"
                    };
                    format!(
                        "n{} {}: bound {} actual {} {ok}",
                        node.id.0,
                        r.label,
                        fmt_bytes(r.bound),
                        fmt_bytes(r.high_water)
                    )
                });
                stages.chain(tracked).collect()
            })
        );
        print!("{cost}");
        println!("  executed: {rows} result rows");
        if reports.is_empty() {
            println!("  (no tracked operator instances in this plan)");
        }
        violations += reports.iter().filter(|r| r.high_water > r.bound).count();
        println!();
    });
    if violations > 0 {
        eprintln!("FAIL: {violations} operator instance(s) exceeded their proven byte bound");
        std::process::exit(1);
    }
    println!("OK: every tracked instance stayed within its proven bound");
    std::process::exit(0);
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("usage: repro <experiment|all> [--sf F] [--seed S]");
    eprintln!("       repro query \"<dsl>\" [--sf F] [--limit N]");
    eprintln!("       repro fuzz [--cases N] [--seed S] [--sf F]");
    eprintln!("       repro analyze <query|all|\"dsl\"> [--sf F] [--budget BYTES]");
    eprintln!("       repro mem <query|all|\"dsl\"> [--sf F] [--workers N] [--budget BYTES]");
    eprintln!("experiments: {}", ALL_EXPERIMENTS.join(" "));
    std::process::exit(2);
}
