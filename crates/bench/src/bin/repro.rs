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
//!              join-scaling
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

/// `repro analyze <query|all|"dsl"> [--budget BYTES]` — runs the
/// abstract-interpretation pass over a plan and prints the derived
/// per-node facts (row bounds, column intervals, NDV caps, distinctness
/// proofs) plus any findings, followed by the memory/cost pass's proven
/// peak-byte report. Exits nonzero when a finding is a *hazard* (a
/// reachable runtime trap, the same class `verify` rejects) — or, when
/// `--budget` is given explicitly, when any plan's proven peak exceeds
/// it. Never returns.
fn analyze_main(args: &[String]) -> ! {
    let mut target: Option<String> = None;
    let mut sf = 0.01f64;
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
            _ => usage("analyze takes one query number, 'all', or a DSL string"),
        }
        i += 1;
    }
    let target =
        target.unwrap_or_else(|| usage("analyze needs a query number, 'all', or a DSL string"));
    eprintln!("generating TPC-H data at SF {sf} ...");
    let db = ma_tpch::TpchData::generate(sf, 0xDBD1);
    let queries: Vec<usize> = if target == "all" {
        (1..=22).collect()
    } else if let Ok(q) = target.parse::<usize>() {
        vec![q]
    } else {
        Vec::new()
    };
    let mut cfg = ma_executor::ExecConfig::fixed_default();
    if let Some(b) = budget {
        cfg = cfg.with_memory_budget(b);
    }
    let budget_is_gate = budget.is_some();
    let mut hazards = 0usize;
    let mut analyze_one = |title: &str, plan: &ma_executor::LogicalPlan| {
        println!("-- {title} --");
        println!("{}", ma_executor::analyze::render(plan));
        let a = ma_executor::analyze(plan);
        if a.errors.is_empty() {
            println!("analysis clean: no findings");
        } else {
            for e in &a.errors {
                let sev = if e.is_hazard() { "HAZARD" } else { "warning" };
                println!("{sev}: {e}");
            }
            hazards += a.errors.iter().filter(|e| e.is_hazard()).count();
        }
        let cost = ma_executor::cost(plan, &cfg);
        print!("{}", ma_executor::cost::render(&cost));
        println!();
        if budget_is_gate {
            hazards += cost.findings.len();
        }
    };
    if queries.is_empty() {
        let plan = match ma_executor::frontend::plan_text(&target, &db) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        };
        analyze_one("query", &plan);
    } else {
        let params = ma_tpch::Params::default();
        for q in queries {
            let pb = ma_tpch::queries::query_plan(q, &db, &params).unwrap_or_else(|e| {
                eprintln!("Q{q}: {e}");
                std::process::exit(1);
            });
            let plan = pb.build().unwrap_or_else(|e| {
                eprintln!("Q{q}: {e}");
                std::process::exit(1);
            });
            analyze_one(&format!("Q{q}"), &plan);
        }
    }
    std::process::exit(if hazards > 0 { 1 } else { 0 });
}

/// `repro mem <query|all|"dsl"> [--sf F] [--workers N] [--budget BYTES]`
/// — the predicted-vs-actual memory sweep: prints the cost pass's proven
/// per-stage byte bounds for each plan, executes it, and compares every
/// tracked operator instance's recorded high-water resident bytes against
/// the bound the planner registered for it. Exits nonzero if any actual
/// exceeds its proven bound (a cost-model soundness bug). Never returns.
fn mem_main(args: &[String]) -> ! {
    let mut target: Option<String> = None;
    let mut sf = 0.01f64;
    let mut workers = 2usize;
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
            "--workers" => {
                i += 1;
                workers = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--workers needs an integer"));
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
            _ => usage("mem takes one query number, 'all', or a DSL string"),
        }
        i += 1;
    }
    let target =
        target.unwrap_or_else(|| usage("mem needs a query number, 'all', or a DSL string"));
    eprintln!("generating TPC-H data at SF {sf} ...");
    let db = ma_tpch::TpchData::generate(sf, 0xDBD1);
    let queries: Vec<usize> = if target == "all" {
        (1..=22).collect()
    } else if let Ok(q) = target.parse::<usize>() {
        vec![q]
    } else {
        Vec::new()
    };
    let mut cfg = ma_executor::ExecConfig::fixed_default().with_workers(workers);
    if let Some(b) = budget {
        cfg = cfg.with_memory_budget(b);
    }
    let dict = std::sync::Arc::new(ma_primitives::build_dictionary());
    let mut violations = 0usize;
    let mut mem_one = |title: &str, plan: &ma_executor::LogicalPlan| {
        println!("-- {title} --");
        let report = ma_executor::cost(plan, &cfg);
        print!("{}", ma_executor::cost::render(&report));
        let ctx = ma_executor::QueryContext::new(std::sync::Arc::clone(&dict), cfg.clone());
        let store = ma_executor::lower(plan, &ctx)
            .and_then(|mut op| ma_executor::ops::materialize(op.as_mut()))
            .unwrap_or_else(|e| {
                eprintln!("{title}: execution error: {e}");
                std::process::exit(1);
            });
        println!("  executed: {} result rows", store.rows());
        let reports = ctx.mem_reports();
        if reports.is_empty() {
            println!("  (no tracked operator instances in this plan)");
        }
        for r in &reports {
            let ok = r.high_water <= r.bound;
            if !ok {
                violations += 1;
            }
            println!(
                "  {:<28} bound {:>12}  actual {:>12}  {}",
                r.label,
                ma_executor::cost::fmt_bytes(r.bound),
                ma_executor::cost::fmt_bytes(r.high_water),
                if ok { "ok" } else { "EXCEEDED" },
            );
        }
        println!();
    };
    if queries.is_empty() {
        let plan = match ma_executor::frontend::plan_text(&target, &db) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        };
        mem_one("query", &plan);
    } else {
        let params = ma_tpch::Params::default();
        for q in queries {
            let pb = ma_tpch::queries::query_plan(q, &db, &params).unwrap_or_else(|e| {
                eprintln!("Q{q}: {e}");
                std::process::exit(1);
            });
            let plan = pb.build().unwrap_or_else(|e| {
                eprintln!("Q{q}: {e}");
                std::process::exit(1);
            });
            mem_one(&format!("Q{q}"), &plan);
        }
    }
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
