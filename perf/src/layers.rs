//! The traced pass: spans around each layer's public functions, and the
//! engine's own per-instance reports folded into primitive families.

use std::hint::black_box;

use ma_executor::{analyze, cost, lower, verify, QueryContext};
use ma_tpch::queries::query_plan;

use crate::engine::{bandit_seed, exec_query, Env, Gate, Mode, QUERIES};
use crate::report::Metric;
use crate::stats::median;
use crate::trace::Tracer;

/// Primitive families in metric order: the name of the span total, and
/// with `_ms` appended of the metric.
pub const FAMILIES: [&str; 8] = [
    "prim.sel",
    "prim.map",
    "prim.hash",
    "prim.aggr",
    "prim.decode",
    "prim.fetch",
    "prim.bloom",
    "prim.merge",
];
/// Plan stages timed per query: the name of the span, and with `_us`
/// appended of the metric.
pub const STAGES: [&str; 5] = [
    "plan.build",
    "plan.verify",
    "plan.analyze",
    "plan.cost",
    "plan.lower",
];

/// Index into [`FAMILIES`] of a primitive signature. More specific
/// prefixes first: `sel_bloomfilter` is bloom, not sel; `map_hash*`,
/// `map_rehash*` and `hash_insertcheck*` are hash and `map_fetch*` is
/// fetch, not map.
pub fn family(signature: &str) -> Option<usize> {
    const RULES: [(&str, &str); 10] = [
        ("sel_bloomfilter", "prim.bloom"),
        ("map_hash", "prim.hash"),
        ("map_rehash", "prim.hash"),
        ("hash_insertcheck", "prim.hash"),
        ("map_fetch", "prim.fetch"),
        ("sel_", "prim.sel"),
        ("map_", "prim.map"),
        ("aggr", "prim.aggr"),
        ("decode_", "prim.decode"),
        ("mergejoin", "prim.merge"),
    ];
    let (_, name) = RULES
        .iter()
        .find(|(prefix, _)| signature.starts_with(prefix))?;
    FAMILIES.iter().position(|f| f == name)
}

/// Everything the traced passes of a run add up to.
#[derive(Default)]
pub struct Profile {
    /// Σ `exec.run` durations of each pass, ns.
    pub pass_exec_ns: Vec<f64>,
    /// `exec.run` duration per query, one sample per pass, ns.
    pub query_ns: [Vec<f64>; QUERIES],
    query_ticks: [u64; QUERIES],
    query_prim_ticks: [u64; QUERIES],
    family_ticks: [u64; 8],
    exec_ns: u64,
    exec_ticks: u64,
    /// Primitive calls and tuples per pass.
    calls: Vec<f64>,
    tuples: Vec<f64>,
    nondefault_calls: u64,
    /// Per stage, the sum over the 22 first-phase plans of each pass, µs.
    stage_us: [Vec<f64>; 5],
}

/// One traced pass, each call in a span: first the five plan stages on
/// every query's first-phase plan, then the 22 gated executions. The two
/// are not interleaved, so that a query does not execute right after its
/// own plan went through the planner, which the untraced pass never does.
pub fn traced_pass(
    env: &Env,
    tracer: &mut Tracer,
    round: u32,
    pass: u32,
    profile: &mut Profile,
    gate: &mut Gate,
) -> Result<(), String> {
    let pass_span = tracer.begin(None, "pass", round, pass, 0);
    let config = |q| Mode::Adaptive.config(env.workers, bandit_seed(env.seed, round, pass, q));

    let mut stage_ns = [0u64; 5];
    for q in 1..=QUERIES {
        let cfg = config(q);
        let span = |tracer: &mut Tracer, stage: usize| {
            tracer.begin(Some(pass_span), STAGES[stage], round, pass, q as u8)
        };

        let id = span(tracer, 0);
        let plan = query_plan(q, &env.db, &env.params)
            .and_then(|pb| Ok(pb.build()?))
            .map_err(|e| format!("Q{q}: plan build failed: {e}"))?;
        stage_ns[0] += tracer.end(id);

        let id = span(tracer, 1);
        verify(&plan, &cfg).map_err(|e| format!("Q{q}: plan verification failed: {e}"))?;
        stage_ns[1] += tracer.end(id);

        let id = span(tracer, 2);
        black_box(analyze(&plan));
        stage_ns[2] += tracer.end(id);

        let id = span(tracer, 3);
        black_box(cost(&plan, &cfg));
        stage_ns[3] += tracer.end(id);

        // Lowered against a context of its own and dropped, unrun, after
        // the span.
        let scratch = QueryContext::new(env.dict.clone(), cfg);
        let id = span(tracer, 4);
        let op = lower(&plan, &scratch).map_err(|e| format!("Q{q}: lowering failed: {e}"))?;
        stage_ns[4] += tracer.end(id);
        drop(op);
    }

    let (mut exec_ns, mut calls, mut tuples) = (0u64, 0u64, 0u64);
    for q in 1..=QUERIES {
        let id = tracer.begin(Some(pass_span), "exec.run", round, pass, q as u8);
        let exec = exec_query(env, q, config(q), gate);
        let dur = tracer.end(id);
        exec_ns += dur;
        profile.query_ns[q - 1].push(dur as f64);
        profile.query_ticks[q - 1] += exec.ticks;
        profile.exec_ns += exec.ns;
        profile.exec_ticks += exec.ticks;

        let ns_per_tick = exec.ns as f64 / exec.ticks.max(1) as f64;
        let mut fam_ticks = [0u64; 8];
        for r in exec.ctx.reports() {
            profile.query_prim_ticks[q - 1] += r.ticks;
            calls += r.calls;
            tuples += r.tuples;
            profile.nondefault_calls += r.flavor_calls.iter().skip(1).map(|(_, c)| c).sum::<u64>();
            if let Some(f) = family(&r.signature) {
                fam_ticks[f] += r.ticks;
            }
        }
        let totals = (0..8)
            .filter(|&f| fam_ticks[f] > 0)
            .map(|f| (FAMILIES[f], (fam_ticks[f] as f64 * ns_per_tick) as u64))
            .collect();
        tracer.attach_totals(id, totals);
        for (total, ticks) in profile.family_ticks.iter_mut().zip(fam_ticks) {
            *total += ticks;
        }
    }
    tracer.end(pass_span);

    profile.pass_exec_ns.push(exec_ns as f64);
    profile.calls.push(calls as f64);
    profile.tuples.push(tuples as f64);
    for (s, ns) in stage_ns.iter().enumerate() {
        profile.stage_us[s].push(*ns as f64 / 1e3);
    }
    Ok(())
}

impl Profile {
    fn passes(&self) -> f64 {
        self.pass_exec_ns.len() as f64
    }

    /// Wall ns per tick over every traced execution of the run.
    fn ns_per_tick(&self) -> f64 {
        self.exec_ns as f64 / self.exec_ticks.max(1) as f64
    }

    /// Share of execute ticks spent inside primitives (the paper's Table 1
    /// number). With several workers primitive ticks are summed over the
    /// worker threads while execute ticks are wall-clock.
    pub fn prim_share(&self) -> f64 {
        let prim: u64 = self.query_prim_ticks.iter().sum();
        prim as f64 / self.exec_ticks.max(1) as f64
    }

    pub fn query_prim_share(&self, q: usize) -> f64 {
        self.query_prim_ticks[q - 1] as f64 / self.query_ticks[q - 1].max(1) as f64
    }

    /// The per-layer metrics that come out of the traced passes.
    pub fn metrics(&self) -> Vec<Metric> {
        let per_pass_ms = |ticks: u64| ticks as f64 * self.ns_per_tick() / self.passes() / 1e6;
        let prim_ticks: u64 = self.query_prim_ticks.iter().sum();
        let mut m = vec![
            Metric::new("exec.prim_share", self.prim_share(), "ratio"),
            Metric::new(
                "exec.glue_ms",
                (self.exec_ticks as f64 - prim_ticks as f64) * self.ns_per_tick()
                    / self.passes()
                    / 1e6,
                "ms",
            ),
        ];
        for q in 1..=QUERIES {
            m.push(Metric::new(
                &format!("q{q:02}.prim_share"),
                self.query_prim_share(q),
                "ratio",
            ));
        }
        for (f, name) in FAMILIES.iter().enumerate() {
            m.push(Metric::new(
                &format!("{name}_ms"),
                per_pass_ms(self.family_ticks[f]),
                "ms",
            ));
        }
        let all_calls: f64 = self.calls.iter().sum();
        m.push(Metric::new("prim.calls", median(&self.calls), "count"));
        m.push(Metric::new("prim.tuples", median(&self.tuples), "count"));
        m.push(Metric::new(
            "adaptive.nondefault_call_share",
            self.nondefault_calls as f64 / all_calls.max(1.0),
            "ratio",
        ));
        for (s, name) in STAGES.iter().enumerate() {
            m.push(Metric::new(
                &format!("{name}_us"),
                median(&self.stage_us[s]),
                "us",
            ));
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_dictionary_signature_has_a_family() {
        let dict = ma_primitives::build_dictionary();
        let mut seen = [false; 8];
        for sig in dict.signatures() {
            let f = family(sig).unwrap_or_else(|| panic!("{sig} has no family"));
            seen[f] = true;
        }
        assert_eq!(seen, [true; 8], "a family matches no signature");
    }

    #[test]
    fn specific_prefixes_win() {
        let name = |sig| FAMILIES[family(sig).unwrap()];
        assert_eq!(name("sel_bloomfilter"), "prim.bloom");
        assert_eq!(name("sel_lt_i32_col_val"), "prim.sel");
        assert_eq!(name("map_hash_i64_col"), "prim.hash");
        assert_eq!(name("map_rehash_str_col"), "prim.hash");
        assert_eq!(name("hash_insertcheck_u64_col"), "prim.hash");
        assert_eq!(name("map_fetch_str_col"), "prim.fetch");
        assert_eq!(name("map_mul_i64_col_col"), "prim.map");
        assert_eq!(name("map_cast_i32_f64"), "prim.map");
        assert_eq!(name("aggr0_sum_f64_col"), "prim.aggr");
        assert_eq!(name("decode_dict_str"), "prim.decode");
        assert_eq!(name("mergejoin_i64_col_i64_col"), "prim.merge");
        assert_eq!(family("unheard_of"), None);
    }
}
