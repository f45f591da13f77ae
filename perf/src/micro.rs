//! Per-layer measurements taken outside the traced passes: bandit
//! bookkeeping, the flavor factors, the exchange layer, storage codecs and
//! the DSL front end.

use std::hint::black_box;
use std::time::Instant;

use ma_core::policy::ClampedPolicy;
use ma_core::{ticks_now, PolicyKind, VwGreedyParams};
use ma_executor::config::DEFAULT_REWARD_CLAMP;
use ma_executor::frontend::plan_text;
use ma_executor::ops::{collect, total_rows as chunk_rows};
use ma_executor::plan::{col, sum_i64, PlanBuilder};
use ma_executor::{lower, ExecConfig, FlavorAxis, HeurKind, QueryContext};
use ma_primitives::MapHash;
use ma_tpch::geometric_mean;
use ma_vector::{decode_table, encode_table, DataType, Table};

use crate::dsl::dsl_texts;
use crate::engine::{run_pass, table_bytes, tables, total_rows, Env, Gate, Mode, QUERIES};
use crate::report::Metric;
use crate::stats::median;

/// Repetitions of each measurement below whose median is reported.
const REPEATS: usize = 5;
/// Calls per bookkeeping loop.
const LOOP_CALLS: u32 = 1_000_000;

fn ns_per_call(calls: u32, f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64 / f64::from(calls)
}

fn median_of(n: usize, mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..n).map(|_| f()).collect::<Vec<_>>())
}

/// `policy.choose_observe_ns`, `adaptive.invoke_overhead_ns` and
/// `cycles.ticks_now_ns`: what one primitive call pays for being adaptive.
pub fn bookkeeping_metrics(env: &Env) -> Result<Vec<Metric>, String> {
    // The policy the engine builds per instance: vw-greedy (1024, 8, 2)
    // behind the reward clamp, here over three arms.
    let choose_observe = median_of(REPEATS, || {
        let inner = PolicyKind::VwGreedy(VwGreedyParams::table5_best()).build(3, env.seed);
        let mut policy = ClampedPolicy::new(inner, DEFAULT_REWARD_CLAMP);
        ns_per_call(LOOP_CALLS, || {
            for i in 0..LOOP_CALLS {
                let arm = ma_core::Policy::choose(&mut policy);
                let ticks = 2_000 + 300 * arm as u64 + u64::from(i & 63);
                ma_core::Policy::observe(&mut policy, arm, 1024, ticks);
            }
            black_box(&policy);
        })
    });

    let ctx = QueryContext::new(env.dict.clone(), ExecConfig::adaptive(FlavorAxis::All));
    let mut inst = ctx
        .instance::<MapHash<i64>>("map_hash_i64_col", "perf/empty", HeurKind::None)
        .map_err(|e| e.to_string())?;
    let invoke = median_of(REPEATS, || {
        ns_per_call(LOOP_CALLS, || {
            for _ in 0..LOOP_CALLS {
                inst.invoke(1024, |f| {
                    black_box(f);
                });
            }
        })
    });

    let ticks = median_of(REPEATS, || {
        ns_per_call(LOOP_CALLS, || {
            for _ in 0..LOOP_CALLS {
                black_box(ticks_now());
            }
        })
    });

    Ok(vec![
        Metric::new("policy.choose_observe_ns", choose_observe, "ns"),
        Metric::new("adaptive.invoke_overhead_ns", invoke, "ns"),
        Metric::new("cycles.ticks_now_ns", ticks, "ns"),
    ])
}

/// Passes per engine mode behind each factor.
const FACTOR_PASSES: u32 = 3;
/// Round numbers, for the bandit seeds, of the passes made after the
/// rounds: the factor passes and the one-worker passes.
const FACTOR_ROUND: u32 = u32::MAX;
const ONE_WORKER_ROUND: u32 = u32::MAX - 1;

/// `adaptive.ma_factor_geomean` and `adaptive.heur_factor_geomean`: per
/// query, the stock engine's median latency over the adaptive (heuristic)
/// engine's, then the geometric mean over the 22 queries (Table 11).
/// Diagnostics, not end-to-end metrics: a faster default flavor lowers
/// them without anything getting worse. `adaptive_query_ns` holds the
/// adaptive latencies already sampled by the run.
pub fn factor_metrics(env: &Env, adaptive_query_ns: &[Vec<f64>], gate: &mut Gate) -> Vec<Metric> {
    let mut sample = |mode: Mode| {
        let mut per_query = vec![Vec::new(); QUERIES];
        for pass in 0..FACTOR_PASSES {
            run_pass(
                env,
                mode,
                env.workers,
                FACTOR_ROUND,
                pass,
                &mut per_query,
                gate,
            );
        }
        per_query
    };
    let fixed = sample(Mode::FixedDefault);
    let heuristic = sample(Mode::Heuristic);
    let factor = |other: &[Vec<f64>]| {
        let per_query: Vec<f64> = fixed
            .iter()
            .zip(other)
            .map(|(f, o)| median(f) / median(o))
            .collect();
        geometric_mean(&per_query)
    };
    vec![
        Metric::new(
            "adaptive.ma_factor_geomean",
            factor(adaptive_query_ns),
            "ratio",
        ),
        Metric::new("adaptive.heur_factor_geomean", factor(&heuristic), "ratio"),
    ]
}

/// `exchange.w1_over_w2` and `exchange.route_ns_per_row`.
pub fn exchange_metrics(
    env: &Env,
    power_ms_p50: f64,
    gate: &mut Gate,
) -> Result<Vec<Metric>, String> {
    // One-worker passes over the workload's p50: below 1 where the
    // exchange layer pays off, 1 by construction on one-worker workloads.
    let mut scratch = vec![Vec::new(); QUERIES];
    let w1_ms = median_of(3, || {
        run_pass(
            env,
            Mode::Adaptive,
            1,
            ONE_WORKER_ROUND,
            0,
            &mut scratch,
            gate,
        ) / 1e6
    });

    // The same lineitem aggregation with and without hash routing to two
    // partitions; the difference per input row is what routing costs.
    let rows = env.db.lineitem.rows();
    let agg_ns = |cfg: ExecConfig| -> Result<f64, String> {
        let ctx = QueryContext::new(env.dict.clone(), cfg);
        let plan = PlanBuilder::scan(&env.db, "lineitem", &["l_orderkey", "l_quantity"])
            .project(
                vec![
                    ("l_orderkey", col("l_orderkey")),
                    ("qty", col("l_quantity").cast(DataType::I64)),
                ],
                "perf/route_maps",
            )
            .hash_agg(&["l_orderkey"], vec![sum_i64("qty")], "perf/route_agg")
            .build()
            .map_err(|e| e.to_string())?;
        let t = Instant::now();
        let mut op = lower(&plan, &ctx).map_err(|e| e.to_string())?;
        let chunks = collect(op.as_mut()).map_err(|e| e.to_string())?;
        let ns = t.elapsed().as_nanos() as f64;
        black_box(chunk_rows(&chunks));
        Ok(ns)
    };
    let base = ExecConfig::fixed_default();
    let mut single = Vec::new();
    let mut routed = Vec::new();
    for _ in 0..REPEATS {
        single.push(agg_ns(base.clone().with_agg_partitions(1))?);
        routed.push(agg_ns(
            base.clone().with_agg_partitions(2).with_agg_min_groups(0),
        )?);
    }
    Ok(vec![
        Metric::new("exchange.w1_over_w2", w1_ms / power_ms_p50, "ratio"),
        Metric::new(
            "exchange.route_ns_per_row",
            (median(&routed) - median(&single)) / rows.max(1) as f64,
            "ns",
        ),
    ])
}

/// `dbgen.rows_per_s`, `encode.lineitem_ms`, `decode_ref.lineitem_ms`,
/// `store.raw_mb` and `store.enc_mb`; also hands back the raw lineitem
/// for the kernel measurements.
pub fn storage_metrics(env: &Env) -> (Vec<Metric>, Table) {
    let raw = decode_table(&env.db.lineitem);
    let encoded = encode_table(&raw);
    let encode_ms = median_of(3, || {
        let t = Instant::now();
        black_box(encode_table(&raw));
        t.elapsed().as_secs_f64() * 1e3
    });
    let decode_ms = median_of(3, || {
        let t = Instant::now();
        black_box(decode_table(&encoded));
        t.elapsed().as_secs_f64() * 1e3
    });
    // `encode_table` leaves encoded columns as they are, so this is the
    // stored size on the encoded workloads and a fresh encoding on the raw.
    let enc_bytes: usize = tables(&env.db)
        .iter()
        .map(|t| table_bytes(&encode_table(t)))
        .sum();
    let mib = |b: usize| b as f64 / (1 << 20) as f64;
    let metrics = vec![
        Metric::new(
            "dbgen.rows_per_s",
            total_rows(&env.db) as f64 / env.dbgen_s,
            "1/s",
        ),
        Metric::new("encode.lineitem_ms", encode_ms, "ms"),
        Metric::new("decode_ref.lineitem_ms", decode_ms, "ms"),
        Metric::new("store.raw_mb", mib(env.raw_bytes), "MiB"),
        Metric::new("store.enc_mb", mib(enc_bytes), "MiB"),
    ];
    (metrics, raw)
}

/// `frontend.compile_us`: lex, parse, compile and build the four DSL
/// queries; the sum over the four, median of [`crate::workload::ROUNDS`].
pub fn frontend_metric(env: &Env) -> Result<Metric, String> {
    let texts = dsl_texts(&env.params);
    let mut samples = Vec::with_capacity(crate::workload::ROUNDS);
    for _ in 0..crate::workload::ROUNDS {
        let t = Instant::now();
        for text in &texts {
            black_box(plan_text(text, &env.db).map_err(|e| format!("DSL error: {e}\n{text}"))?);
        }
        samples.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(Metric::new("frontend.compile_us", median(&samples), "us"))
}
