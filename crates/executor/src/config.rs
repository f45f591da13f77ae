//! Execution configuration: which flavors exist per primitive, and how the
//! engine chooses between them.

use ma_core::policy::VwGreedyParams;
use ma_core::PolicyKind;

/// Which *subset* of each primitive's flavors is visible to the engine.
///
/// The paper evaluates five flavor sets in isolation (Tables 6–10) and all
/// of them together (Table 11); an axis selects that subset by flavor name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlavorAxis {
    /// Only the default flavor (index 0) of every primitive.
    Default,
    /// Branching vs No-Branching selection primitives (Table 6).
    Branching,
    /// gcc / icc / clang code styles everywhere they exist (Table 7).
    Compiler,
    /// Fused vs loop-fission bloom-filter lookup (Table 8).
    Fission,
    /// Selective vs full computation in map primitives (Table 9).
    FullComputation,
    /// Hand-unrolling on/off (Table 10).
    Unrolling,
    /// The union of all flavor sets (the Table 11 Micro Adaptive run).
    All,
}

impl FlavorAxis {
    /// The flavor names this axis admits, or `None` for the full master set.
    pub fn names(self) -> Option<&'static [&'static str]> {
        match self {
            FlavorAxis::Default => Some(&[]), // sentinel: default only
            FlavorAxis::Branching => Some(&["branching", "no_branching"]),
            FlavorAxis::Compiler => Some(&["gcc", "icc", "clang"]),
            FlavorAxis::Fission => Some(&["fused", "fission"]),
            FlavorAxis::FullComputation => Some(&["selective", "full"]),
            FlavorAxis::Unrolling => Some(&["unroll8", "no_unroll"]),
            FlavorAxis::All => None,
        }
    }
}

/// How the engine resolves a flavor at each primitive call.
#[derive(Debug, Clone)]
pub enum FlavorMode {
    /// Non-adaptive: always the named flavor where it exists, otherwise the
    /// default. `Fixed(None)` is the stock engine (default flavor always) —
    /// the "No Heuristics" baseline of Table 11.
    Fixed(Option<&'static str>),
    /// Micro Adaptivity: a bandit policy over the axis' flavor subset.
    Adaptive {
        /// Flavor subset the bandit selects among.
        axis: FlavorAxis,
        /// Bandit policy per primitive instance.
        policy: PolicyKind,
    },
    /// Hard-coded heuristics tuned offline (the competing approach of §4.2):
    /// selectivity thresholds pick branching/full-computation variants,
    /// bloom size picks fission.
    Heuristic,
}

/// How scans decode compressed (encoded) columns.
///
/// Both paths are bit-for-bit equivalent — the differential fuzzer
/// cross-checks them — so this knob only moves the work between the
/// flavored primitive library and the reference implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecodeMode {
    /// Flavored `decode_*` primitives with per-morsel bandit instances
    /// (the micro-adaptive path; the default).
    #[default]
    Primitive,
    /// The reference decode path in `ma_vector::encode` — no primitive
    /// instances, no adaptivity. For differential testing and as the
    /// baseline the flavor equivalence argument anchors on.
    Reference,
}

/// Clamp factor for bandit reward observations: costs above `8×` the
/// instance's running per-tuple median are treated as preemption outliers
/// and capped before the policy sees them (OS-preemption robustness).
pub const DEFAULT_REWARD_CLAMP: f64 = 8.0;

/// Default minimum *proven group bound* for partitioning a hash
/// aggregation whose input is not itself a sharded scan. The planner
/// compares `min(row bound, Π key NDV)` — discounted when the group keys
/// arrive dictionary-coded — against it: partitioning a small aggregate
/// buys nothing and costs routing.
pub const DEFAULT_AGG_MIN_PARTITION_GROUPS: usize = 32 * 1024;

/// Default per-query memory budget (1 GiB) [`crate::cost()`] checks the
/// proven peak-byte roll-up against. Exceeding it is a finding, never a
/// rejection: `repro analyze --budget` and `repro mem --budget` price a
/// plan against another budget and gate their exit codes on it.
pub const DEFAULT_MEMORY_BUDGET: u64 = 1 << 30;

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Flavor resolution mode.
    pub flavors: FlavorMode,
    /// Seed for per-instance policy randomness (exploration).
    pub seed: u64,
    /// Tuples per vector.
    pub vector_size: usize,
    /// Worker threads for sharded scans. `1` (the default) keeps every
    /// pipeline single-threaded and bit-identical to the pre-parallel
    /// engine; `n > 1` splits each large scan into morsels processed by
    /// `n` workers with per-worker primitive instances.
    pub worker_threads: usize,
    /// Consumer partitions for partitioned hash aggregation. `0` (the
    /// default) follows [`ExecConfig::worker_threads`]; `1` disables
    /// partitioning outright (every aggregate runs as a single instance);
    /// `n > 1` forces `n` partitions even on a single-worker pipeline.
    /// The *decision* to partition a given aggregate stays with the
    /// physical planner (`ma_executor::plan::lower`). Note a partitioned
    /// aggregate runs its producers and consumers concurrently — up to
    /// `worker_threads + partitions` runnable threads while it drains.
    pub agg_partitions: usize,
    /// Minimum proven group bound before the planner partitions a hash
    /// aggregation whose input is *not* a sharded scan (a sharded-scan
    /// input always partitions: the producers are already parallel). The
    /// bound is the analyzer's `min(row bound, Π key NDV)`, in raw-width
    /// units and discounted when the group keys arrive dictionary-coded;
    /// above the threshold the cost model sizes the partition count to
    /// the bound rather than fanning out to every worker.
    pub agg_min_partition_groups: usize,
    /// How scans decode compressed columns: flavored primitives (the
    /// adaptive default) or the reference path (differential baseline).
    pub decode: DecodeMode,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            flavors: FlavorMode::Fixed(None),
            seed: 0x5EED,
            vector_size: ma_vector::VECTOR_SIZE,
            worker_threads: 1,
            agg_partitions: 0,
            agg_min_partition_groups: DEFAULT_AGG_MIN_PARTITION_GROUPS,
            decode: DecodeMode::default(),
        }
    }
}

impl ExecConfig {
    /// Stock engine: default flavor everywhere.
    pub fn fixed_default() -> Self {
        ExecConfig::default()
    }

    /// Always the named flavor where available.
    pub fn fixed(name: &'static str) -> Self {
        ExecConfig {
            flavors: FlavorMode::Fixed(Some(name)),
            ..ExecConfig::default()
        }
    }

    /// Micro Adaptive over an axis with the paper's best vw-greedy
    /// parameters (1024, 8, 2).
    pub fn adaptive(axis: FlavorAxis) -> Self {
        ExecConfig {
            flavors: FlavorMode::Adaptive {
                axis,
                policy: PolicyKind::VwGreedy(VwGreedyParams::table5_best()),
            },
            ..ExecConfig::default()
        }
    }

    /// Micro Adaptive with an explicit policy.
    pub fn adaptive_with(axis: FlavorAxis, policy: PolicyKind) -> Self {
        ExecConfig {
            flavors: FlavorMode::Adaptive { axis, policy },
            ..ExecConfig::default()
        }
    }

    /// The §4.2 heuristics competitor.
    pub fn heuristic() -> Self {
        ExecConfig {
            flavors: FlavorMode::Heuristic,
            ..ExecConfig::default()
        }
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with `n` scan worker threads (clamped to ≥ 1).
    pub fn with_workers(mut self, n: usize) -> Self {
        self.worker_threads = n.max(1);
        self
    }

    /// Returns a copy with an explicit aggregate partition count
    /// (`0` = follow worker threads, `1` = never partition).
    pub fn with_agg_partitions(mut self, n: usize) -> Self {
        self.agg_partitions = n;
        self
    }

    /// Returns a copy with the proven-group-bound threshold for
    /// partitioning aggregates over non-sharded inputs.
    pub fn with_agg_min_groups(mut self, n: usize) -> Self {
        self.agg_min_partition_groups = n;
        self
    }

    /// Returns a copy with the scan decode path set (primitive flavors vs
    /// the reference implementation).
    pub fn with_decode(mut self, mode: DecodeMode) -> Self {
        self.decode = mode;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_names() {
        assert_eq!(
            FlavorAxis::Branching.names().unwrap(),
            &["branching", "no_branching"]
        );
        assert!(FlavorAxis::All.names().is_none());
        assert_eq!(FlavorAxis::Default.names().unwrap().len(), 0);
    }

    #[test]
    fn config_constructors() {
        assert!(matches!(
            ExecConfig::fixed_default().flavors,
            FlavorMode::Fixed(None)
        ));
        assert!(matches!(
            ExecConfig::fixed("no_branching").flavors,
            FlavorMode::Fixed(Some("no_branching"))
        ));
        assert!(matches!(
            ExecConfig::adaptive(FlavorAxis::All).flavors,
            FlavorMode::Adaptive { .. }
        ));
        assert!(matches!(
            ExecConfig::heuristic().flavors,
            FlavorMode::Heuristic
        ));
        assert_eq!(ExecConfig::default().with_seed(7).seed, 7);
    }

    #[test]
    fn worker_and_clamp_knobs() {
        let c = ExecConfig::default();
        assert_eq!(c.worker_threads, 1);
        assert_eq!(c.clone().with_workers(4).worker_threads, 4);
        assert_eq!(c.with_workers(0).worker_threads, 1);
    }

    #[test]
    fn agg_partition_knobs() {
        let c = ExecConfig::default();
        assert_eq!(c.agg_partitions, 0);
        assert_eq!(c.agg_min_partition_groups, DEFAULT_AGG_MIN_PARTITION_GROUPS);
        assert_eq!(c.clone().with_agg_partitions(1).agg_partitions, 1);
        assert_eq!(c.with_agg_min_groups(10).agg_min_partition_groups, 10);
    }

    #[test]
    fn decode_mode_knob() {
        let c = ExecConfig::default();
        assert_eq!(c.decode, DecodeMode::Primitive);
        assert_eq!(
            c.with_decode(DecodeMode::Reference).decode,
            DecodeMode::Reference
        );
    }
}
