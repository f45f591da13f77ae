//! Join-scaling experiment: join-heavy TPC-H queries swept over worker
//! counts and the three ways a hash join can run. Not a paper figure — it
//! tracks the second Amdahl gap: with `single` joins every hash join
//! serializes its probe stream behind one instance; `in-fragment` (the
//! planner's choice) probes inside the sharded scan's worker fragments
//! over one shared build table; `partitioned` (explicit
//! `join_partitions = workers`) routes both sides through the two-lane
//! hash-partitioning exchange into P private build tables.
//!
//! Worker counts above the host's hardware threads measure
//! oversubscription, not speedup — the render notes the host's count.

use ma_core::cycles::ticks_now;
use ma_executor::ExecConfig;
use ma_tpch::Runner;

/// Join-heavy queries swept (multi-join pipelines over large inputs).
pub const JOIN_QUERIES: [usize; 4] = [3, 9, 10, 18];

/// Worker counts swept by default.
pub const DEFAULT_THREADS: [usize; 3] = [1, 2, 4];

/// How the swept configuration runs its hash joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinMode {
    /// `join_partitions = 1`: one instance per join.
    Single,
    /// `join_partitions = 0`: the planner's choice, probes inside the
    /// worker fragments over one shared build.
    InFragment,
    /// `join_partitions = workers`: the two-lane partitioning exchange.
    Partitioned,
}

impl JoinMode {
    fn name(self) -> &'static str {
        match self {
            JoinMode::Single => "single",
            JoinMode::InFragment => "in-fragment",
            JoinMode::Partitioned => "partitioned",
        }
    }
}

/// One swept point.
#[derive(Debug, Clone, Copy)]
pub struct JoinScalingPoint {
    /// Scan worker threads.
    pub threads: usize,
    /// How the joins ran.
    pub mode: JoinMode,
    /// Wall ticks for the query subset.
    pub ticks: u64,
    /// Result checksum folded over the subset (cross-config validation).
    pub checksum: f64,
}

/// Runs the query subset per `(worker count, join mode)` combination
/// (`Partitioned` only above one worker, where it differs from `Single`).
/// The first combination runs once extra as warmup so data is paged in
/// before anything is timed.
pub fn measure(runner: &Runner, thread_counts: &[usize]) -> Vec<JoinScalingPoint> {
    let mut out = Vec::with_capacity(3 * thread_counts.len());
    let mut warmed = false;
    for &threads in thread_counts {
        let partitioned = (threads > 1).then_some(JoinMode::Partitioned);
        let modes = [JoinMode::Single, JoinMode::InFragment];
        for mode in modes.into_iter().chain(partitioned) {
            // Aggregation keeps its default in every mode so the only
            // delta between the curves is the join strategy.
            let config = ExecConfig::fixed_default()
                .with_workers(threads)
                .with_join_partitions(match mode {
                    JoinMode::Single => 1,
                    JoinMode::InFragment => 0,
                    JoinMode::Partitioned => threads,
                });
            if !warmed {
                run_subset(runner, &config).expect("warmup run");
                warmed = true;
            }
            let t0 = ticks_now();
            let checksum = run_subset(runner, &config).expect("join-scaling run");
            let ticks = ticks_now().saturating_sub(t0);
            out.push(JoinScalingPoint {
                threads,
                mode,
                ticks,
                checksum,
            });
        }
    }
    // Hard cross-validation: a result divergence between join modes at
    // bench scale must fail the run (and CI), not just print a note — no
    // correctness test runs at these scale factors.
    if let Some(first) = out.first() {
        for p in &out[1..] {
            assert!(
                crate::experiments::checksums_match(first.checksum, p.checksum),
                "join-scaling checksum mismatch: {} workers {} gave {}, baseline {}",
                p.threads,
                p.mode.name(),
                p.checksum,
                first.checksum
            );
        }
    }
    out
}

fn run_subset(runner: &Runner, config: &ExecConfig) -> Result<f64, ma_executor::ExecError> {
    let mut checksum = 0.0;
    for &q in &JOIN_QUERIES {
        checksum += runner.run(q, config.clone())?.checksum;
    }
    Ok(checksum)
}

/// Renders the sweep with speedups relative to 1-worker single joins.
pub fn render(points: &[JoinScalingPoint]) -> String {
    let mut out =
        String::from("--- Join scaling: join-heavy queries (Q3, Q9, Q10, Q18) by workers ---\n");
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
        "{:>8} {:>12} {:>16} {:>9}\n",
        "workers", "joins", "wall ticks", "speedup"
    ));
    for p in points {
        let speedup = if p.ticks > 0 {
            base as f64 / p.ticks as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:>8} {:>12} {:>16} {:>8.2}x\n",
            p.threads,
            p.mode.name(),
            p.ticks,
            speedup
        ));
    }
    if points.len() > 1 {
        let all_match = points
            .windows(2)
            .all(|w| crate::experiments::checksums_match(w[0].checksum, w[1].checksum));
        out.push_str(if all_match {
            "checksums: identical across worker counts and join modes\n"
        } else {
            "checksums: MISMATCH across configurations\n"
        });
    }
    out
}

/// Runs the default sweep and renders it.
pub fn join_scaling(runner: &Runner) -> String {
    render(&measure(runner, &DEFAULT_THREADS))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::make_runner;

    #[test]
    fn sweep_measures_and_validates() {
        let runner = make_runner(0.005, 0x5CA1E);
        let points = measure(&runner, &[1, 2]);
        assert_eq!(points.len(), 2 + 3);
        assert!(points.iter().all(|p| p.ticks > 0));
        for w in points.windows(2) {
            assert!(
                crate::experiments::checksums_match(w[0].checksum, w[1].checksum),
                "configurations must agree on results"
            );
        }
        let txt = render(&points);
        assert!(txt.contains("in-fragment") && txt.contains("partitioned"));
        assert!(txt.contains("identical"));
    }
}
