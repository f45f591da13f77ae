//! Join-scaling experiment: join-heavy TPC-H queries swept over worker
//! counts. Not a paper figure — it tracks the second Amdahl gap: at one
//! worker every hash join is one instance with a private build; above
//! that the planner probes inside the sharded scan's worker fragments
//! over one shared build table (DESIGN.md §8), the only parallel shape a
//! hash join has.
//!
//! Worker counts above the host's hardware threads measure
//! oversubscription, not speedup — the render notes the host's count.

use ma_tpch::Runner;

use super::scaling::{self, ScalingPoint};

/// Join-heavy queries swept (multi-join pipelines over large inputs).
pub const JOIN_QUERIES: [usize; 4] = [3, 9, 10, 18];

/// Worker counts swept by default.
pub const DEFAULT_THREADS: [usize; 3] = scaling::DEFAULT_THREADS;

/// Runs the query subset per worker count (the first once extra as
/// warmup). Hard cross-validation: a result divergence between worker
/// counts at bench scale fails the run (and CI) — no correctness test
/// runs at these scale factors.
pub fn measure(runner: &Runner, thread_counts: &[usize]) -> Vec<ScalingPoint> {
    scaling::measure_queries(runner, &JOIN_QUERIES, thread_counts)
}

/// Renders the sweep with speedups relative to one worker.
pub fn render(points: &[ScalingPoint]) -> String {
    let title = "Join scaling: join-heavy queries (Q3, Q9, Q10, Q18) by workers";
    scaling::render_titled(title, points)
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
        assert_eq!(points.len(), 2);
        assert!(points.iter().all(|p| p.ticks > 0));
        assert!(
            crate::experiments::checksums_match(points[0].checksum, points[1].checksum),
            "worker counts must agree on results"
        );
        let txt = render(&points);
        assert!(txt.contains("Join scaling") && txt.contains("identical"));
    }
}
