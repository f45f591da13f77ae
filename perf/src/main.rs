//! `perf`: the TPC-H power-run benchmark with a layer breakdown.
//!
//! ```sh
//! cargo run --release --manifest-path perf/Cargo.toml -- \
//!     --workload power-enc-w1 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run is one workload: set-up, warm-up rounds, 41 timed rounds of
//! Q1…Q22, every answer checked against a reference computed in set-up.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` records spans
//! around each layer's public functions and reports the per-layer metrics.
//! The last line of standard output is the result as one JSON object;
//! README.md has the metric and workload tables.

mod dsl;
mod engine;
#[cfg(test)]
mod json;
mod kernels;
mod layers;
mod micro;
mod report;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use engine::{run_pass, set_up, Env, Gate, Mode, QUERIES};
use ma_tpch::geometric_mean;
use report::{Header, Metric};
use stats::{median, percentile};
use workload::{RunPlan, Workload, ROUNDS, SETUPS, SMOKE_ROUNDS, SMOKE_SF, WARMUP_ROUNDS};

const USAGE: &str = "usage: perf --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>] \
                     [--smoke] [--out <dir>]\n\
                     workloads: power-enc-w1 power-raw-w1 power-enc-w2 power-tiny";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// SF 0.005, 3 rounds, one set-up: the harness checking itself.
    smoke: bool,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut smoke) = (1u64, 10.0f64, false, false);
    let mut out = PathBuf::from("perf/out");
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload = Some(
                    Workload::by_name(name)
                        .ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?,
                );
            }
            "--seed" => {
                let v = value("--seed")?;
                seed = v.parse().map_err(|_| format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("bad --seconds {v}"))?;
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v}: 0 or 1")),
                };
            }
            "--smoke" => smoke = true,
            "--out" => out = PathBuf::from(value("--out")?),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
        seed,
        seconds,
        trace,
        smoke,
        out,
    })
}

/// What a finished run hands to `main` (and to the smoke test).
struct Outcome {
    gate: Gate,
    result: String,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < w.workers {
        return Err(format!(
            "{} needs {} hardware threads, this host has {nproc}",
            w.name, w.workers
        ));
    }
    let (sf, rounds) = if args.smoke {
        (SMOKE_SF, SMOKE_ROUNDS)
    } else {
        (w.sf, ROUNDS)
    };
    let plan = RunPlan {
        w,
        sf,
        rounds,
        reps: w.reps(args.seconds),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let header = Header {
        plan,
        nproc,
        rustc: report::rustc_version(),
        loc: report::loc_per_crate(Path::new("crates")),
    };
    header.print();

    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let mut gate = Gate::default();
    let metrics = if args.trace {
        let names = report::per_layer_names();
        report::in_order(&names, run_traced(&plan, &args.out, &mut gate)?)?
    } else {
        let setups = if args.smoke { 1 } else { SETUPS };
        report::in_order(&report::END_TO_END, run_untraced(&plan, setups, &mut gate)?)?
    };

    report::print_metrics(&metrics);
    let result = report::result_json(&gate, &metrics);
    let file = args
        .out
        .join(format!("{}.trace{}.json", w.name, u8::from(args.trace)));
    std::fs::write(&file, report::document_json(&header, &result))
        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    Ok(Outcome { gate, result })
}

impl RunPlan {
    /// One set-up: database, reference answers and the warm-up rounds.
    fn set_up_and_warm(&self, gate: &mut Gate) -> Result<Env, String> {
        let env = set_up(&self.w, self.sf, self.seed)?;
        let mut unused = vec![Vec::new(); QUERIES];
        for i in 0..WARMUP_ROUNDS {
            // Warm-up rounds are numbered after the timed ones.
            self.untraced_round(&env, (self.rounds + i) as u32, &mut unused, gate);
        }
        Ok(env)
    }

    /// One untraced round; returns its wall time per pass, in ms.
    fn untraced_round(
        &self,
        env: &Env,
        round: u32,
        per_query: &mut [Vec<f64>],
        gate: &mut Gate,
    ) -> f64 {
        let t = Instant::now();
        for pass in 0..self.reps as u32 {
            run_pass(
                env,
                Mode::Adaptive,
                env.workers,
                round,
                pass,
                per_query,
                gate,
            );
        }
        t.elapsed().as_secs_f64() * 1e3 / self.reps as f64
    }
}

fn query_medians_ms(per_query: &[Vec<f64>]) -> Vec<f64> {
    per_query.iter().map(|ns| median(ns) / 1e6).collect()
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The end-to-end metrics.
fn run_untraced(plan: &RunPlan, setups: usize, gate: &mut Gate) -> Result<Vec<Metric>, String> {
    // Set-up is repeated and its median reported; each database is freed
    // before the next is built, and the last one serves the timed rounds.
    let mut setup_s = Vec::with_capacity(setups);
    let mut env = None;
    for _ in 0..setups {
        drop(env.take());
        let t = Instant::now();
        env = Some(plan.set_up_and_warm(gate)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let env = env.ok_or("no set-up was made")?;
    println!("peak RSS after set-up: {:.1} MiB", peak_rss_mib()?);

    let mut per_query = vec![Vec::new(); QUERIES];
    let round_ms: Vec<f64> = (0..plan.rounds as u32)
        .map(|round| plan.untraced_round(&env, round, &mut per_query, gate))
        .collect();

    println!(
        "power_ms over n = {} rounds; highest percentile with ten samples beyond it: {}",
        round_ms.len(),
        stats::highest_supported_percentile(round_ms.len())
            .map_or("none".to_string(), |p| format!("p{:.0}", p * 100.0))
    );
    Ok(vec![
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("power_ms_p50", median(&round_ms), "ms"),
        Metric::new("power_ms_p75", percentile(&round_ms, 0.75), "ms"),
        Metric::new(
            "query_ms_geomean",
            geometric_mean(&query_medians_ms(&per_query)),
            "ms",
        ),
        Metric::new("peak_rss_mb", peak_rss_mib()?, "MiB"),
        Metric::new(
            "stored_bytes_ratio",
            env.stored_bytes as f64 / env.raw_bytes as f64,
            "ratio",
        ),
    ])
}

/// The per-layer metrics; writes the spans into `out`.
fn run_traced(plan: &RunPlan, out: &Path, gate: &mut Gate) -> Result<Vec<Metric>, String> {
    let env = plan.set_up_and_warm(gate)?;
    let mut tracer = trace::Tracer::new();
    let mut profile = layers::Profile::default();
    let mut per_query = vec![Vec::new(); QUERIES];
    let mut round_ms = Vec::with_capacity(plan.rounds);
    for round in 0..plan.rounds as u32 {
        // Every round runs its passes twice, untraced and traced, and the
        // side that goes first alternates, so that neither always inherits
        // the other's cache state.
        for side in 0..2 {
            if (round + side) % 2 == 0 {
                round_ms.push(plan.untraced_round(&env, round, &mut per_query, gate));
            } else {
                for pass in 0..plan.reps as u32 {
                    layers::traced_pass(&env, &mut tracer, round, pass, &mut profile, gate)?;
                }
            }
        }
    }

    let power_ms_p50 = median(&round_ms);
    let untraced_ms = query_medians_ms(&per_query);
    let traced_ms = query_medians_ms(&profile.query_ns);
    let query_dev = untraced_ms
        .iter()
        .zip(&traced_ms)
        .map(|(u, t)| (t - u).abs() / u * 100.0)
        .fold(0.0, f64::max);

    let mut metrics = profile.metrics();
    for (q, ms) in untraced_ms.iter().enumerate() {
        metrics.push(Metric::new(&format!("q{:02}.ms_p50", q + 1), *ms, "ms"));
    }
    // Traced time is the sum of a pass's `exec.run` spans: the plan-stage
    // calls between them are measured work of their own, not overhead.
    metrics.push(Metric::new(
        "trace.overhead_pct",
        (median(&profile.pass_exec_ns) / 1e6 / power_ms_p50 - 1.0) * 100.0,
        "%",
    ));
    metrics.push(Metric::new("trace.query_dev_pct", query_dev, "%"));
    metrics.extend(micro::factor_metrics(&env, &per_query, gate));
    metrics.extend(micro::exchange_metrics(&env, power_ms_p50, gate)?);
    let (storage, raw_lineitem) = micro::storage_metrics(&env);
    metrics.extend(storage);
    metrics.extend(kernels::kernel_metrics(
        &env.dict,
        &env.db,
        &raw_lineitem,
        &env.params,
    )?);
    metrics.extend(micro::bookkeeping_metrics(&env)?);
    metrics.push(micro::frontend_metric(&env)?);

    let path = out.join(format!("{}.spans.json", plan.w.name));
    tracer
        .write_json(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "{} spans written to {}; exec.prim_share {:.3} (the paper's Table 1: 0.92)",
        tracer.spans().len(),
        path.display(),
        profile.prim_share()
    );
    Ok(metrics)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!("{}", outcome.result);
            if outcome.gate.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "{} of {} query executions failed",
                    outcome.gate.failed, outcome.gate.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(extra: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = extra.iter().map(|s| s.to_string()).collect();
        parse_args(&argv)
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = args(&[
            "--workload",
            "power-tiny",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workload.name, "power-tiny");
        assert_eq!(a.seed, 7);
        assert!(!a.trace);
        assert!(
            args(&["--workload", "power-tiny", "--trace", "1"])
                .unwrap()
                .trace
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "power-tiny", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "power-tiny", "--seed", "x"]).is_err());
        assert!(args(&["--workload", "power-tiny", "--frobnicate"]).is_err());
        assert!(args(&["--workload", "power-tiny", "--trace"]).is_err());
        assert!(args(&["--workload", "power-tiny", "--trace", "2"]).is_err());
    }

    /// `BENCHMARK.json` at the root of the repository, parsed.
    fn benchmark_json() -> json::Value {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names_of(list: &json::Value) -> Vec<String> {
        list.as_array()
            .iter()
            .map(|m| m.get("name").as_str().to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_binary_reports() {
        let b = benchmark_json();
        assert_eq!(names_of(b.get("end_to_end")), report::END_TO_END);
        assert_eq!(names_of(b.get("per_layer")), report::per_layer_names());
        let workloads: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names_of(b.get("workloads")), workloads);
    }

    /// The harness end to end at SF 0.005 with 3 rounds, untraced and
    /// traced: every metric of `BENCHMARK.json` is reported, the result
    /// line parses, and nothing fails.
    #[test]
    fn smoke_run_reports_every_metric() {
        let b = benchmark_json();
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/smoke-test");
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let a = args(&[
                "--workload",
                "power-enc-w1",
                "--seed",
                "3",
                "--trace",
                trace,
                "--smoke",
                "--out",
                out.to_str().unwrap(),
            ])
            .unwrap();
            let outcome = run(&a).unwrap();
            assert_eq!(outcome.gate.failed, 0);
            assert!(outcome.gate.attempted > 0);

            let parsed = json::parse(&outcome.result).expect("the result line parses");
            assert!(parsed.get("correct").as_bool());
            assert_eq!(parsed.get("failed").as_f64(), 0.0);
            let reported = parsed.get("metrics");
            for m in b.get(key).as_array() {
                let name = m.get("name").as_str();
                let got = reported.get(name);
                assert!(got.get("value").as_f64().is_finite(), "{name}");
                assert_eq!(got.get("unit").as_str(), m.get("unit").as_str(), "{name}");
            }
            assert_eq!(reported.as_object().len(), b.get(key).as_array().len());
        }
        let spans = std::fs::read_to_string(out.join("power-enc-w1.spans.json")).unwrap();
        let spans = json::parse(&spans).expect("the span file parses");
        assert!(!spans.get("spans").as_array().is_empty());
    }
}
