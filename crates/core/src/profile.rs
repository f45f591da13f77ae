//! Per-primitive-instance profiling.
//!
//! Vectorwise keeps, for every primitive *instance* in a query plan, the
//! total tuples processed, total calls made and total cycles spent (§1.1).
//! Micro Adaptivity extends this with the APH. The totals double as the
//! paper's "classical primitive profiling" block at the top of the
//! vw-greedy listing.

use crate::aph::Aph;

/// Cumulative + historical cost statistics for one primitive instance.
#[derive(Debug, Clone, Default)]
pub struct PrimitiveProfile {
    /// Total calls so far.
    pub calls: u64,
    /// Total tuples processed.
    pub tot_tuples: u64,
    /// Total ticks spent.
    pub tot_ticks: u64,
    /// Bounded performance history.
    pub aph: Aph,
}

impl PrimitiveProfile {
    /// Records one call.
    #[inline]
    pub fn record(&mut self, tuples: u64, ticks: u64) {
        self.calls += 1;
        self.tot_tuples += tuples;
        self.tot_ticks += ticks;
        self.aph.record(tuples, ticks);
    }

    /// Lifetime average cost in ticks/tuple.
    pub fn avg_cost(&self) -> f64 {
        if self.tot_tuples == 0 {
            0.0
        } else {
            self.tot_ticks as f64 / self.tot_tuples as f64
        }
    }

    /// Merges another profile into this one (for aggregating instances).
    pub fn merge_totals(&mut self, other: &PrimitiveProfile) {
        self.calls += other.calls;
        self.tot_tuples += other.tot_tuples;
        self.tot_ticks += other.tot_ticks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_totals() {
        let mut p = PrimitiveProfile::default();
        p.record(1000, 4000);
        p.record(1000, 6000);
        assert_eq!(p.calls, 2);
        assert_eq!(p.tot_tuples, 2000);
        assert_eq!(p.tot_ticks, 10_000);
        assert_eq!(p.avg_cost(), 5.0);
    }

    #[test]
    fn with_aph_tracks_history() {
        let mut p = PrimitiveProfile::default();
        for _ in 0..10 {
            p.record(100, 300);
        }
        assert_eq!(p.aph.total_calls(), 10);
        assert_eq!(p.aph.total_ticks(), 3000);
    }

    #[test]
    fn avg_cost_zero_when_empty() {
        assert_eq!(PrimitiveProfile::default().avg_cost(), 0.0);
    }

    #[test]
    fn merge_totals_adds_up() {
        let mut a = PrimitiveProfile::default();
        a.record(10, 100);
        let mut b = PrimitiveProfile::default();
        b.record(30, 50);
        a.merge_totals(&b);
        assert_eq!(a.calls, 2);
        assert_eq!(a.tot_tuples, 40);
        assert_eq!(a.tot_ticks, 150);
    }
}
