//! Thread-scaling experiment: the TPC-H power run swept over scan worker
//! counts. Not a paper figure — it seeds the bench-baseline trajectory for
//! the parallel executor (sharded morsel scans + per-worker bandit state).

use ma_core::cycles::ticks_now;
use ma_executor::ExecConfig;
use ma_tpch::Runner;

/// One swept point: worker count and wall ticks of the swept queries.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    /// Scan worker threads.
    pub threads: usize,
    /// Wall ticks for the swept queries (the full 22-query power run
    /// here).
    pub ticks: u64,
    /// Result checksum folded over the queries (cross-count validation).
    pub checksum: f64,
}

/// Worker counts swept by default.
pub const DEFAULT_THREADS: [usize; 3] = [1, 2, 4];

/// Runs one power run per worker count, returning `(threads, ticks)`
/// points. The first sweep entry is run once extra as warmup so data is
/// paged in before anything is timed.
pub fn measure(runner: &Runner, thread_counts: &[usize]) -> Vec<ScalingPoint> {
    let all: Vec<usize> = (1..=22).collect();
    measure_queries(runner, &all, thread_counts)
}

/// [`measure`] over a subset of the queries.
pub fn measure_queries(
    runner: &Runner,
    queries: &[usize],
    thread_counts: &[usize],
) -> Vec<ScalingPoint> {
    let run = |config: &ExecConfig| -> f64 {
        let results = queries.iter().map(|&q| runner.run(q, config.clone()));
        results.map(|r| r.expect("scaling run").checksum).sum()
    };
    let mut out = Vec::with_capacity(thread_counts.len());
    let mut warmed = false;
    for &threads in thread_counts {
        let config = ExecConfig::fixed_default().with_workers(threads);
        if !warmed {
            run(&config);
            warmed = true;
        }
        let t0 = ticks_now();
        let checksum = run(&config);
        let ticks = ticks_now().saturating_sub(t0);
        out.push(ScalingPoint {
            threads,
            ticks,
            checksum,
        });
    }
    // Hard cross-validation: worker counts disagreeing on results at
    // bench scale must fail the run (and CI), not just print a note.
    if let Some(first) = out.first() {
        for p in &out[1..] {
            assert!(
                crate::experiments::checksums_match(first.checksum, p.checksum),
                "scaling checksum mismatch: {} workers gave {}, baseline {}",
                p.threads,
                p.checksum,
                first.checksum
            );
        }
    }
    out
}

/// Renders the sweep with speedups relative to 1 worker.
pub fn scaling(runner: &Runner) -> String {
    let points = measure(runner, &DEFAULT_THREADS);
    render(&points)
}

/// Text table for a measured sweep.
pub fn render(points: &[ScalingPoint]) -> String {
    render_titled("Scaling: power-run wall ticks by scan workers", points)
}

/// [`render`] under another experiment's title.
pub(crate) fn render_titled(title: &str, points: &[ScalingPoint]) -> String {
    let mut out = format!("--- {title} ---\n");
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
        "{:>8} {:>16} {:>9}\n",
        "workers", "wall ticks", "speedup"
    ));
    for p in points {
        let speedup = if p.ticks > 0 {
            base as f64 / p.ticks as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:>8} {:>16} {:>8.2}x\n",
            p.threads, p.ticks, speedup
        ));
    }
    if points.len() > 1 {
        let all_match = points
            .windows(2)
            .all(|w| crate::experiments::checksums_match(w[0].checksum, w[1].checksum));
        out.push_str(if all_match {
            "checksums: identical across worker counts\n"
        } else {
            "checksums: MISMATCH across worker counts\n"
        });
    }
    out
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
        assert!(txt.contains("workers"));
        assert!(txt.contains("identical"));
    }
}
