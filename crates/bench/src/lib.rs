#![warn(missing_docs)]
//! # ma-bench — the reproduction harness
//!
//! One experiment per table/figure of the paper, shared by the `repro`
//! binary and the Criterion benches. See DESIGN.md §4 for the experiment
//! index and EXPERIMENTS.md for recorded paper-vs-measured results.

pub mod experiments;
pub mod measure;
pub mod report;

/// `add_years` without dragging the tpch date module into every experiment
/// signature (used by Fig. 2's Q12 window).
pub(crate) fn dates_add_year(day: i32) -> i32 {
    ma_tpch::dates::add_years(day, 1)
}
