//! Aggregation-scaling experiment: aggregation-heavy TPC-H queries swept
//! over worker counts under three aggregation arms. Not a paper figure —
//! it measures how a grouped aggregate over sharded scans should run:
//!
//! * `single` (`agg_partitions = 1`): one aggregate over the union of the
//!   fragments, serialized behind the sharded scans;
//! * `routed` (`agg_partitions` = the worker count): every input row routed
//!   by key hash to one private instance per worker;
//! * `auto` (`agg_partitions = 0`): the planner's verdict — two-phase (a
//!   partial per fragment, one combine) where the proven group bound is
//!   small against the input, routed otherwise.
//!
//! At one worker all three arms run the same single-instance plan.

use ma_core::cycles::ticks_now;
use ma_executor::ExecConfig;
use ma_tpch::Runner;

/// Aggregation-heavy queries swept (grouped aggregates over large inputs):
/// Q1's six-group aggregate, Q3's and Q20's whose group bound equals their
/// input's, and Q10's, Q18's and Q21's in between.
pub const AGG_QUERIES: [usize; 6] = [1, 3, 10, 18, 20, 21];

/// Worker counts swept by default.
pub const DEFAULT_THREADS: [usize; 3] = [1, 2, 4];

/// Rounds of the whole sweep by default. One query at SF 0.05 runs for a
/// few milliseconds, so a single pass mostly measures the host; each point
/// reports per-query medians over the rounds, which interleave the arms.
pub const DEFAULT_ROUNDS: usize = 7;

/// How the swept aggregates may run in parallel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// One instance per aggregate (`agg_partitions = 1`).
    Single,
    /// Routed to one instance per worker (`agg_partitions = workers`).
    Routed,
    /// The planner's verdict (`agg_partitions = 0`).
    Auto,
}

impl Arm {
    /// Every arm, in sweep order.
    pub const ALL: [Arm; 3] = [Arm::Single, Arm::Routed, Arm::Auto];

    /// The arm's display name.
    pub fn name(self) -> &'static str {
        match self {
            Arm::Single => "single",
            Arm::Routed => "routed",
            Arm::Auto => "auto",
        }
    }

    /// The `agg_partitions` knob the arm sets at `threads` workers.
    fn partitions(self, threads: usize) -> usize {
        match self {
            Arm::Single => 1,
            Arm::Routed => threads,
            Arm::Auto => 0,
        }
    }
}

/// One swept point.
#[derive(Debug, Clone)]
pub struct AggScalingPoint {
    /// Scan worker threads.
    pub threads: usize,
    /// The aggregation arm.
    pub arm: Arm,
    /// The sum of [`AggScalingPoint::query_ticks`].
    pub ticks: u64,
    /// Median wall ticks per query over the rounds, in [`AGG_QUERIES`]
    /// order.
    pub query_ticks: Vec<u64>,
    /// Result checksum folded over the subset (cross-config validation).
    pub checksum: f64,
}

/// Runs the query subset `rounds` times per `(worker count, arm)`
/// combination, the combinations interleaved within each round, and keeps
/// each query's median ticks. The first combination runs once extra as
/// warmup so data is paged in before anything is timed.
pub fn measure(runner: &Runner, thread_counts: &[usize], rounds: usize) -> Vec<AggScalingPoint> {
    let combos: Vec<(usize, Arm)> = thread_counts
        .iter()
        .flat_map(|&t| Arm::ALL.map(|arm| (t, arm)))
        .collect();
    let config = |&(threads, arm): &(usize, Arm)| {
        ExecConfig::fixed_default()
            .with_workers(threads)
            .with_agg_partitions(arm.partitions(threads))
    };
    if let Some(first) = combos.first() {
        run_subset(runner, &config(first)).expect("warmup run");
    }
    let mut samples: Vec<Vec<Vec<u64>>> = vec![Vec::new(); combos.len()];
    let mut checksums = vec![0.0; combos.len()];
    for _ in 0..rounds.max(1) {
        for (i, combo) in combos.iter().enumerate() {
            let (ticks, checksum) = run_subset(runner, &config(combo)).expect("agg-scaling run");
            samples[i].push(ticks);
            checksums[i] = checksum;
        }
    }
    let out: Vec<AggScalingPoint> = combos
        .iter()
        .zip(samples)
        .zip(checksums)
        .map(|((&(threads, arm), runs), checksum)| {
            let query_ticks: Vec<u64> = (0..AGG_QUERIES.len())
                .map(|q| {
                    let mut t: Vec<u64> = runs.iter().map(|r| r[q]).collect();
                    t.sort_unstable();
                    t[t.len() / 2]
                })
                .collect();
            AggScalingPoint {
                threads,
                arm,
                ticks: query_ticks.iter().sum(),
                query_ticks,
                checksum,
            }
        })
        .collect();
    // Hard cross-validation: a divergence between arms at bench scale must
    // fail the run (and CI), not just print a note — no correctness test
    // runs at these scale factors.
    if let Some(first) = out.first() {
        for p in &out[1..] {
            assert!(
                crate::experiments::checksums_match(first.checksum, p.checksum),
                "agg-scaling checksum mismatch: {} workers {} gave {}, baseline {}",
                p.threads,
                p.arm.name(),
                p.checksum,
                first.checksum
            );
        }
    }
    out
}

/// Per-query wall ticks and the checksum folded over the subset.
fn run_subset(
    runner: &Runner,
    config: &ExecConfig,
) -> Result<(Vec<u64>, f64), ma_executor::ExecError> {
    let mut checksum = 0.0;
    let mut ticks = Vec::with_capacity(AGG_QUERIES.len());
    for &q in &AGG_QUERIES {
        let t0 = ticks_now();
        checksum += runner.run(q, config.clone())?.checksum;
        ticks.push(ticks_now().saturating_sub(t0));
    }
    Ok((ticks, checksum))
}

/// Renders the sweep: per point the summed per-query medians, the speedup
/// against 1-worker single aggregation, and each query's median ticks.
pub fn render(points: &[AggScalingPoint]) -> String {
    let names: Vec<String> = AGG_QUERIES.iter().map(|q| format!("Q{q}")).collect();
    let mut out = format!(
        "--- Agg scaling: aggregation-heavy queries ({}) by workers ---\n",
        names.join(", ")
    );
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.push_str(&format!("host hardware threads: {hw}\n"));
    if points.iter().any(|p| p.threads > hw) {
        out.push_str(
            "note: worker counts above the hardware thread count measure \
             oversubscription overhead, not speedup\n",
        );
    }
    let base = points.first().map_or(0, |p| p.ticks);
    out.push_str(&format!(
        "{:>8} {:>7} {:>14} {:>8}",
        "workers", "arm", "wall ticks", "speedup"
    ));
    for name in &names {
        out.push_str(&format!(" {name:>12}"));
    }
    out.push('\n');
    for p in points {
        let speedup = if p.ticks > 0 {
            base as f64 / p.ticks as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:>8} {:>7} {:>14} {:>7.2}x",
            p.threads,
            p.arm.name(),
            p.ticks,
            speedup
        ));
        for t in &p.query_ticks {
            out.push_str(&format!(" {t:>12}"));
        }
        out.push('\n');
    }
    if points.len() > 1 {
        let all_match = points
            .windows(2)
            .all(|w| crate::experiments::checksums_match(w[0].checksum, w[1].checksum));
        out.push_str(if all_match {
            "checksums: identical across worker counts and aggregation arms\n"
        } else {
            "checksums: MISMATCH across configurations\n"
        });
    }
    out
}

/// Runs the default sweep and renders it.
pub fn agg_scaling(runner: &Runner) -> String {
    render(&measure(runner, &DEFAULT_THREADS, DEFAULT_ROUNDS))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::make_runner;

    #[test]
    fn sweep_measures_and_validates() {
        let runner = make_runner(0.005, 0x5CA1E);
        let points = measure(&runner, &[1, 2], 1);
        assert_eq!(points.len(), 6);
        assert!(points.iter().all(|p| p.ticks > 0));
        assert!(points
            .iter()
            .all(|p| p.query_ticks.len() == AGG_QUERIES.len()));
        for w in points.windows(2) {
            assert!(
                crate::experiments::checksums_match(w[0].checksum, w[1].checksum),
                "configurations must agree on results"
            );
        }
        let txt = render(&points);
        for arm in Arm::ALL {
            assert!(txt.contains(arm.name()), "{txt}");
        }
        assert!(txt.contains("identical"));
    }
}
