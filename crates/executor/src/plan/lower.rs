//! The physical planner: [`LogicalPlan`] → [`PhysicalPlan`] → operators.
//!
//! [`plan_physical`] is where *all* parallelism decisions live (queries
//! only declare intent). It is pure — no threads, no [`QueryContext`] —
//! and writes every decision down as a [`PhysicalPlan`]: one [`PhysNode`]
//! per logical node, carrying its exchange shape and the proven row and
//! byte bounds one bottom-up pass derived for it. Everything downstream
//! reads that plan and decides nothing: [`instantiate`] constructs the
//! operators, [`crate::verify`] checks exchange placement,
//! [`crate::cost()`] prices the stages and
//! [`explain_physical`](crate::plan::explain_physical) renders them.
//!
//! The decisions:
//!
//! * **Sharding.** A chain of [`LogicalPlan::Filter`] /
//!   [`LogicalPlan::Project`] / [`LogicalPlan::HashJoin`]-probe stages over
//!   a scan with `worker_threads > 1` and enough rows to bother compiles
//!   *into* `n` morsel-driven worker fragments — the selection, map and
//!   probe primitives parallelize and every worker owns its own bandit
//!   state for them (DESIGN.md §5) — united by [`Exchange::Parallel`].
//! * **Joins probe in the fragments.** A join stage of such a chain has
//!   one build table, built once from its build child (which plans freely,
//!   so a big build side shards on its own) and read by the `n` fragments'
//!   probers (DESIGN.md §8). A join whose probe side does not shard runs
//!   as one inline instance.
//! * **Two-phase aggregation.** A [`LogicalPlan::HashAgg`] over a sharded
//!   chain whose proven group bound is small — `groups × fragments × 2 ≤
//!   input rows`, with every `sum_i64` proven to fit `i64` — tops that
//!   chain: each fragment folds its rows into a private partial
//!   [`HashAggregate`], and the chain's [`Exchange::Parallel`] carries only
//!   the partials' groups to one combine instance (DESIGN.md §7).
//! * **Partitioned aggregation.** Any other [`LogicalPlan::HashAgg`] over
//!   a sharded chain — or over any input with a large enough proven group
//!   bound, or under an explicit `agg_partitions` — runs as `P` private
//!   [`HashAggregate`] instances behind an [`Exchange::HashPartition`]:
//!   producers route tuples by `hash(group keys) % P`, and the disjoint
//!   results union in arrival order (DESIGN.md §7).
//! * **Dense key tables.** A [`LogicalPlan::HashAgg`] whose every group key
//!   has a small proven domain — an integer interval from the abstract
//!   interpreter, or the code range of the dictionary a string key
//!   provably carries codes of — indexes a direct group table instead of
//!   hashing ([`HashAggregate::new_dense`], DESIGN.md §7).
//! * **Zone maps.** A scan directly under a Filter gets, as
//!   [`ZoneGuard`]s, the Filter's output intervals on the integer columns
//!   it narrows, and skips the chunks whose zones they miss. [`instantiate`]
//!   also hands the scan the Filter's zone conjuncts (`col op const` on an
//!   integer column), which it evaluates only where a chunk's zones leave
//!   them in doubt; the Filter's [`Select`] keeps the other conjuncts, and
//!   a Filter left with none has no operator (DESIGN.md §13).
//! * **Ordered inputs run serially.** A [`LogicalPlan::MergeJoin`] needs
//!   key-sorted inputs, and an arrival-order union would break that. By
//!   the merge-input rule the builder and the verifier share, its inputs
//!   are either a sort ascending on the key (which re-establishes order,
//!   so everything beneath it plans freely) or a clustering-key chain,
//!   which runs as one sequential pipeline down to its scan (DESIGN.md
//!   §8).
//!
//! A node that its kind's typing rule rejects, or whose declared schema is
//! not the one that rule derives, has no physical plan: the planner
//! returns the typed [`VerifyError`] naming the deepest such node.
//!
//! [`lower`] plans once, in every build: [`crate::verify()`] plans the
//! query and checks the plan it made, and [`instantiate`] builds that very
//! plan. A `lower` therefore rejects exactly what `verify` rejects.

use std::num::NonZeroUsize;
use std::sync::Arc;

use ma_vector::{DataType, MorselQueue, Table, VECTORS_PER_MORSEL};

use crate::adaptive::NodeScope;
use crate::analyze::{AbsDomain, AnalysisError, ColFact, Facts};
use crate::config::{DecodeMode, ExecConfig};
use crate::cost::Width;
use crate::expr::{Agg, CmpRhs, Pred, TypeError};
use crate::ops::exchange::{CHANNEL_DEPTH_PER_WORKER, CHUNKS_PER_MESSAGE};
use crate::ops::{
    combine_of, goes_dense, HashAggregate, HashJoin, HashPartitionExchange, KeyDomain, MergeJoin,
    Operator, Parallel, Scan, Select, SharedBuild, Sort, StreamAggregate, ZoneGuard, ZonePred,
};
use crate::plan::rules::{self, MergeInput};
use crate::plan::LogicalPlan;
use crate::{cost, BoxOp, ExecError, QueryContext, VerifyError};

/// Lowers a logical plan to a physical operator pipeline: [`crate::verify()`]
/// under the context's configuration, which plans it once and checks that
/// plan, then [`instantiate`] of the very plan it checked.
pub fn lower(plan: &LogicalPlan, ctx: &QueryContext) -> Result<BoxOp, ExecError> {
    instantiate(&crate::verify(plan, ctx.config())?, ctx)
}

// ---------------------------------------------------------------------------
// the physical plan
// ---------------------------------------------------------------------------

/// A node's position in a pre-order walk of the [`LogicalPlan`] it
/// implements ([`LogicalPlan::children`] order; the root is 0). With the
/// plan's ordinal it is the identity instances and memory trackers key on
/// ([`crate::NodeKey`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// How a node's operator instances are fed and their outputs united.
///
/// `chunk_bytes` is the byte bound of one chunk crossing the exchange —
/// the bound its [`crate::MemTracker`] is registered with and the unit
/// [`crate::cost()`] prices its channel buffers in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Exchange {
    /// One sequential instance fed directly by its children.
    None,
    /// The node tops a scan chain compiled into `workers` morsel
    /// fragments, united in arrival order. On a hash aggregate the node is
    /// two-phase: a partial in each fragment, one combine over the union.
    Parallel {
        /// Worker fragment count.
        workers: NonZeroUsize,
        /// Byte bound of one output chunk of the chain.
        chunk_bytes: u64,
    },
    /// The node (a hash aggregate) runs as `partitions` private
    /// instances; its input is routed to them by the hash of the
    /// aggregate's own group keys, and their outputs unite in arrival
    /// order.
    HashPartition {
        /// Consumer instance count.
        partitions: NonZeroUsize,
        /// Producer threads draining the input into the exchange. `1` is
        /// the input's own pipeline; `n ≥ 2` means the input tops a scan
        /// chain compiled into `n` morsel fragments that route directly
        /// (no exchange of its own).
        producers: NonZeroUsize,
        /// Byte bound of the widest chunk crossing the exchange: an input
        /// chunk or a consumer's output chunk.
        chunk_bytes: u64,
    },
}

impl Exchange {
    /// The chunk byte bound the exchange's tracker carries (0 for
    /// [`Exchange::None`]).
    pub fn chunk_bytes(&self) -> u64 {
        match self {
            Exchange::None => 0,
            Exchange::Parallel { chunk_bytes, .. }
            | Exchange::HashPartition { chunk_bytes, .. } => *chunk_bytes,
        }
    }

    /// Chunks the exchange's channels can hold at once: every route (one
    /// per producer and consumer partition) and every partition's slot in
    /// the consumer union buffers `CHANNEL_DEPTH_PER_WORKER` messages
    /// plus one in flight, each of up to `CHUNKS_PER_MESSAGE` chunks.
    /// Times [`Exchange::chunk_bytes`], this is the stage's byte bound.
    pub fn buffered_chunks(&self) -> u64 {
        let routes = |producers: usize, partitions: usize| {
            (producers as u64)
                .saturating_mul(partitions as u64)
                .saturating_add(partitions as u64)
        };
        let slots = match self {
            Exchange::None => 0,
            Exchange::Parallel { workers, .. } => routes(workers.get(), 1),
            Exchange::HashPartition {
                partitions,
                producers,
                ..
            } => routes(producers.get(), partitions.get()),
        };
        slots
            .saturating_mul((CHANNEL_DEPTH_PER_WORKER as u64).saturating_add(1))
            .saturating_mul(CHUNKS_PER_MESSAGE as u64)
    }
}

/// One node of a [`PhysicalPlan`]: the logical node it implements plus
/// everything the planner decided and proved about it.
pub struct PhysNode<'a> {
    /// Pre-order position of [`PhysNode::logical`] in the planned tree.
    pub id: NodeId,
    /// The logical node implemented; operator parameters (predicates,
    /// keys, labels, schemas) are read from here.
    pub logical: &'a LogicalPlan,
    /// One physical child per logical child, in the same order.
    pub children: Vec<PhysNode<'a>>,
    /// How the node's instances are fed and united. How many worker
    /// fragments the node itself is compiled into follows from where the
    /// exchanges sit ([`PhysNode::chains`]).
    pub exchange: Exchange,
    /// Proven upper bound on the rows the node emits. For a hash
    /// aggregate this is its group bound; a hash join reads its build
    /// child's as the build-table reservation hint.
    pub rows: usize,
    /// The abstract interpreter's facts about each output column, aligned
    /// with the node's schema: with [`PhysNode::rows`], the node's
    /// [`Facts`], kept as the planner derived them.
    pub cols: Vec<ColFact>,
    /// Proven peak resident bytes of **one** operator instance (0 for
    /// streaming filters and projections).
    pub instance_bytes: u64,
    /// For a scan directly under a Filter: per integer column the Filter
    /// narrows, the Filter's output interval (a side it did not narrow
    /// left unbounded), which lets the scan skip the chunks their zone
    /// maps rule out. Empty everywhere else.
    pub guards: Vec<ZoneGuard>,
    /// For a hash aggregate the planner sent dense: the proven domain of
    /// each group key, which its direct group table indexes. Empty
    /// everywhere else.
    pub dense_keys: Vec<KeyDomain>,
}

impl PhysNode<'_> {
    /// Operator instances [`instantiate`] builds for the node's own
    /// memory-tracked state: one per partition, one partial per fragment
    /// plus the combine for a two-phase aggregate, otherwise one (the
    /// probers of an in-fragment join share one build table).
    pub fn instances(&self) -> usize {
        match self.exchange {
            Exchange::HashPartition { partitions, .. } => partitions.get(),
            Exchange::Parallel { workers, .. } if self.two_phase() => workers.get() + 1,
            _ => 1,
        }
    }

    /// The sharded chains this node and its inputs are stages of, as
    /// fragment counts (`None`: no chain), given `within`, the chain the
    /// node's parent places it in (`None` at the root). The one rule a
    /// node's fragment count follows — a stage of a chain is compiled into
    /// that many worker fragments, every other node runs once:
    ///
    /// * a node carrying [`Exchange::Parallel`] tops a chain of its
    ///   `workers` fragments (a two-phase aggregate's partials are in it);
    /// * a chain continues into a Filter's or Project's input, a chain
    ///   top's input and a join's probe side — not into a join's build
    ///   side, which is built once, outside the fragments;
    /// * an [`Exchange::HashPartition`] with `producers ≥ 2` starts a
    ///   chain of its producers beneath the aggregate, which is not in it.
    ///
    /// Returns the node's own chain and its inputs' (by child index).
    pub fn chains(
        &self,
        within: Option<NonZeroUsize>,
    ) -> (Option<NonZeroUsize>, [Option<NonZeroUsize>; 2]) {
        let own = match self.exchange {
            Exchange::Parallel { workers, .. } => Some(workers),
            _ => within,
        };
        let input = match self.exchange {
            Exchange::HashPartition { producers, .. } => Some(producers).filter(|p| p.get() >= 2),
            _ => own,
        };
        match self.logical {
            LogicalPlan::HashJoin { .. } => (own, [None, input]),
            _ => (own, [input, input]),
        }
    }

    /// Whether the node is a two-phase hash aggregate: the top stage of a
    /// sharded chain, a partial in each fragment, combined once.
    pub fn two_phase(&self) -> bool {
        matches!(
            (&self.exchange, self.logical),
            (Exchange::Parallel { .. }, LogicalPlan::HashAgg { .. })
        )
    }
}

/// The physical plan of one query under one [`ExecConfig`]: what
/// [`instantiate`] builds, [`crate::verify()`] checks and returns,
/// [`crate::cost()`] prices and `explain_physical` renders.
pub struct PhysicalPlan<'a> {
    /// The root node (implements the root of the logical plan).
    pub root: PhysNode<'a>,
    /// What the abstract interpreter found while planning: the same
    /// findings, in the same order, as [`crate::analyze()`]. Their hazards
    /// are what [`crate::verify()`] rejects.
    pub(crate) findings: Vec<AnalysisError>,
}

impl<'a> PhysicalPlan<'a> {
    /// [`plan_physical`] with its rejection typed, for [`crate::verify()`].
    pub(crate) fn new(plan: &'a LogicalPlan, cfg: &ExecConfig) -> Result<Self, VerifyError> {
        let mut planner = Planner {
            cfg,
            workers: NonZeroUsize::new(cfg.worker_threads).unwrap_or(NonZeroUsize::MIN),
            next_id: 0,
            findings: Vec::new(),
        };
        let Planned {
            node: mut root,
            facts,
        } = planner.plan(plan, Feed::Free)?;
        root.cols = facts.cols;
        Ok(PhysicalPlan {
            root,
            findings: planner.findings,
        })
    }

    /// What the abstract interpreter found while planning: the same
    /// findings, in the same order, as [`crate::analyze()`].
    pub fn findings(&self) -> &[AnalysisError] {
        &self.findings
    }

    /// Every node, in pre-order ([`NodeId`] order for a planner-made plan).
    pub fn nodes(&self) -> Vec<&PhysNode<'a>> {
        let mut out = Vec::new();
        let mut stack = vec![&self.root];
        while let Some(node) = stack.pop() {
            out.push(node);
            stack.extend(node.children.iter().rev());
        }
        out
    }

    /// Every node with the number of worker fragments it is compiled into
    /// ([`PhysNode::chains`]), in pre-order. A hash join counted `n ≥ 2`
    /// probes in the fragments: `n` probers over its one build table.
    pub fn fragments(&self) -> Vec<(&PhysNode<'a>, usize)> {
        let mut out = Vec::new();
        let mut stack = vec![(&self.root, None)];
        while let Some((node, within)) = stack.pop() {
            let (own, inputs) = node.chains(within);
            out.push((node, own.map_or(1, NonZeroUsize::get)));
            stack.extend(node.children.iter().zip(inputs).rev());
        }
        out
    }
}

// ---------------------------------------------------------------------------
// planning
// ---------------------------------------------------------------------------

/// Plans `plan` physically under `cfg`. Pure: spawns nothing and touches
/// no [`QueryContext`]. The only plans it rejects are those with a node
/// its kind's typing rule rejects or whose declared schema is not the
/// one that rule derives — the [`VerifyError`] [`crate::verify()`]
/// returns for them, as an [`ExecError::Plan`].
pub fn plan_physical<'a>(
    plan: &'a LogicalPlan,
    cfg: &ExecConfig,
) -> Result<PhysicalPlan<'a>, ExecError> {
    Ok(PhysicalPlan::new(plan, cfg)?)
}

/// How a node's consumer takes its output.
#[derive(Clone, Copy, PartialEq)]
enum Feed {
    /// In any order: a shardable chain unites its fragments as they
    /// arrive.
    Free,
    /// In the order a sequential run emits it (a merge-join input's
    /// clustering-key chain): nothing here or below shards.
    Serial,
    /// Inside the consumer's own fragments (the rest of a sharded chain,
    /// beneath a two-phase aggregate's partials, or the routing producers
    /// of a partitioned aggregate): no exchange here or below.
    Inline,
}

/// A planned subtree plus the facts its parent's bottom-up step reads
/// before they move onto the subtree's root.
struct Planned<'a> {
    node: PhysNode<'a>,
    facts: Facts,
}

struct Planner<'c> {
    cfg: &'c ExecConfig,
    workers: NonZeroUsize,
    next_id: usize,
    findings: Vec<AnalysisError>,
}

impl Planner<'_> {
    /// One bottom-up step per node: inputs first, then the node's typing
    /// rule and the abstract interpreter's transfer function over their
    /// facts — each exactly once — and from those the node's exchange,
    /// bounds, dense keys and its scan's zone guards. How an input is fed is
    /// structural (which chains shard), so it is known before the input's
    /// facts are.
    fn plan<'a>(&mut self, plan: &'a LogicalPlan, feed: Feed) -> Result<Planned<'a>, VerifyError> {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        // This node tops a chain compiled into worker fragments...
        let sharded = feed == Feed::Free && self.shardable(plan);
        // ... or is a stage of one.
        let in_fragment = sharded || feed == Feed::Inline;
        // The most instances a hash aggregate here may partition into.
        let fanout = match self.cfg.agg_partitions {
            0 => self.workers.get(),
            p => p,
        };

        let mut children = Vec::new();
        let mut facts = [Facts::default(), Facts::default()];
        // A hash aggregate's input whose worker fragments route into its
        // exchange directly.
        let mut input_sharded = false;
        for (i, input) in plan.children().enumerate() {
            let feed = match plan {
                // The rest of the chain: a filter's or projection's input,
                // a join's probe side. The build side of a join stage is
                // built once, outside the fragments, so it plans freely.
                _ if in_fragment => match plan {
                    LogicalPlan::HashJoin { .. } if i == 0 => Feed::Free,
                    _ => Feed::Inline,
                },
                // A sharded input's fragments hold a two-phase
                // aggregate's partials or route into a partitioned one's
                // exchange (no double exchange): with its input sharded
                // the aggregate is never one instance.
                LogicalPlan::HashAgg { .. } => {
                    input_sharded = fanout >= 2 && self.shardable(input);
                    if input_sharded {
                        Feed::Inline
                    } else {
                        Feed::Free
                    }
                }
                // By the merge-input verdict: beneath a sort on the key
                // everything plans freely; a clustering-key chain runs
                // serially, since its scan's row order is the key order.
                // Any other input fails the join's own rule below.
                LogicalPlan::MergeJoin {
                    left_key,
                    right_key,
                    ..
                } => {
                    let key = if i == 0 { *left_key } else { *right_key };
                    match rules::merge_input(["left", "right"][i], input, key) {
                        Ok(MergeInput::Clustered) => Feed::Serial,
                        _ => Feed::Free,
                    }
                }
                // A filter or projection passes its own feed on, so the
                // rest of a serial chain runs serially too.
                LogicalPlan::Filter { .. } | LogicalPlan::Project { .. } => feed,
                // Sort re-sorts, an aggregate folds and a join builds or
                // probes a chain of its own: their inputs plan freely
                // whatever consumes them.
                _ => Feed::Free,
            };
            let planned = self.plan(input, feed)?;
            children.push(planned.node);
            facts[i] = planned.facts;
        }
        let n = children.len();

        // A node no operator can run, or one declaring other types than
        // it derives, has no physical plan. Checked once its inputs are,
        // so the deepest fault is the one reported.
        let derived = rules::output_types(plan).map_err(|err| rejected(plan, err))?;
        let declared = plan.schema().types();
        if declared != derived {
            return Err(VerifyError::SchemaMismatch {
                context: rules::node_name(plan),
                declared,
                derived,
            });
        }

        // What this node reads of its inputs' facts, before the transfer
        // function consumes them: their widths, every group key's domain,
        // and the intervals of the columns a zone map can guard.
        let in_widths = facts.each_ref().map(widths);
        let in_widths = [&in_widths[0][..], &in_widths[1][..]];
        let key_domains = match plan {
            LogicalPlan::HashAgg { keys, .. } => keys
                .iter()
                .map(|&k| key_domain(&facts[0], k))
                .collect::<Option<Vec<_>>>(),
            _ => None,
        };
        let zoned = match (plan, children.first()) {
            (LogicalPlan::Filter { .. }, Some(scan)) => zoned(scan.logical, &facts[0]),
            _ => Vec::new(),
        };
        let before = self.findings.len();
        let out = crate::analyze::transfer(plan, &facts[..n], &mut self.findings);
        for (child, input) in children.iter_mut().zip(facts) {
            child.cols = input.cols;
        }
        let facts = out;
        // Whether the analyzer proved every `sum_i64` of this node fits
        // its `i64` output.
        let sums_fit = !self.findings[before..]
            .iter()
            .any(|e| matches!(e, AnalysisError::SumOverflow { .. }));
        // A scan skips what the Filter directly above it provably drops.
        if let Some(scan) = children.first_mut().filter(|_| !zoned.is_empty()) {
            scan.guards = guards(&zoned, &facts);
        }
        // The group bound is the aggregate's own row bound.
        let dense_keys = key_domains
            .filter(|d| goes_dense(d, facts.rows))
            .unwrap_or_default();
        let out_widths = widths(&facts);
        let chunk_of = |rows: usize, w: &[Width]| (rows as u64).saturating_mul(cost::row_width(w));
        let chunk = |w: &[Width]| chunk_of(self.cfg.vector_size, w);

        // A hash aggregate over a sharded chain whose partial state is
        // small tops that chain: one partial per fragment, united by the
        // chain's own exchange, then one combine.
        let two_phase = input_sharded
            && self.cfg.agg_partitions == 0
            && two_phase(facts.rows, self.workers.get(), children[0].rows, sums_fit);
        let exchange = match (plan, feed) {
            _ if sharded => Exchange::Parallel {
                workers: self.workers,
                chunk_bytes: chunk(&out_widths),
            },
            // A partial emits only the groups it holds, at most the group
            // bound in all, so no chunk of the union is longer.
            _ if two_phase => Exchange::Parallel {
                workers: self.workers,
                chunk_bytes: chunk_of(self.cfg.vector_size.min(facts.rows), &out_widths),
            },
            (LogicalPlan::HashAgg { keys, .. }, _) => {
                // The aggregate's own row bound is its group bound.
                let demand = cost::enc_weighted_demand(facts.rows, in_widths[0], Some(keys));
                let threshold = self.cfg.agg_min_partition_groups;
                let explicit = self.cfg.agg_partitions != 0;
                let partitions = agg_partitions(fanout, input_sharded, demand, threshold, explicit);
                match NonZeroUsize::new(partitions).filter(|p| p.get() >= 2) {
                    None => Exchange::None,
                    Some(partitions) => Exchange::HashPartition {
                        partitions,
                        producers: if input_sharded {
                            self.workers
                        } else {
                            NonZeroUsize::MIN
                        },
                        chunk_bytes: chunk(&out_widths).max(chunk(in_widths[0])),
                    },
                }
            }
            _ => Exchange::None,
        };

        let inputs = [
            (children.first().map_or(0, |c| c.rows), in_widths[0]),
            (children.get(1).map_or(0, |c| c.rows), in_widths[1]),
        ];
        let mut instance_bytes = cost::instance_bytes(
            plan,
            facts.rows,
            &inputs[..n],
            &dense_keys,
            self.cfg.vector_size,
        );
        if two_phase {
            // One figure covers a partial and the combine over its output.
            let combine = cost::combine_bytes(plan, facts.rows, &out_widths, &dense_keys);
            instance_bytes = instance_bytes.max(combine);
        }
        let node = PhysNode {
            id,
            logical: plan,
            children,
            exchange,
            rows: facts.rows,
            cols: Vec::new(),
            instance_bytes,
            guards: Vec::new(),
            dense_keys,
        };
        Ok(Planned { node, facts })
    }

    /// Whether `plan` is a chain over a scan worth compiling into
    /// per-worker morsel fragments: Filter/Project stages and hash joins
    /// followed down their probe side.
    fn shardable(&self, plan: &LogicalPlan) -> bool {
        fn scan_rows(plan: &LogicalPlan) -> Option<usize> {
            match plan {
                LogicalPlan::Filter { input, .. }
                | LogicalPlan::Project { input, .. }
                | LogicalPlan::HashJoin { probe: input, .. } => scan_rows(input),
                LogicalPlan::Scan { table, .. } => Some(table.rows()),
                _ => None,
            }
        }
        // Sharding a table that yields only a couple of morsels buys
        // nothing.
        let morsel_rows = VECTORS_PER_MORSEL * self.cfg.vector_size;
        self.workers.get() > 1 && scan_rows(plan).is_some_and(|rows| rows >= 2 * morsel_rows)
    }
}

/// The proven domain of input column `k` as a group key: its integer
/// interval, or the code range of the dictionary it carries codes of.
/// `None` for any other column.
fn key_domain(facts: &Facts, k: usize) -> Option<KeyDomain> {
    let fact = facts.cols.get(k)?;
    match (&fact.domain, &fact.codes) {
        (&AbsDomain::Int { lo, hi }, _) => Some(KeyDomain::Int { lo, hi }),
        (AbsDomain::Str, Some(d)) => Some(KeyDomain::Dict(d.clone())),
        _ => None,
    }
}

/// The byte widths of a node's output columns.
fn widths(facts: &Facts) -> Vec<Width> {
    facts.cols.iter().map(|c| c.width).collect()
}

/// The integer columns of `plan`, if it is a scan, with their intervals in
/// its `facts`: the columns a zone map bounds, whatever their storage.
fn zoned(plan: &LogicalPlan, facts: &Facts) -> Vec<(usize, i64, i64)> {
    if !matches!(plan, LogicalPlan::Scan { .. }) {
        return Vec::new();
    }
    let intervals = facts.cols.iter().enumerate();
    intervals
        .filter_map(|(i, fact)| match fact.domain {
            AbsDomain::Int { lo, hi } => Some((i, lo, hi)),
            _ => None,
        })
        .collect()
}

/// A Filter's predicate split for the scan beneath it, whose output types
/// are `types`: its *zone conjuncts* — the top-level conjuncts (nested ANDs
/// flattened) `col op const` with `op` one of `<`, `<=`, `>`, `>=`, `=` on
/// an integer column — each with the range it passes, and the conjunction
/// of the other conjuncts, `None` when none remain. Without a zone
/// conjunct the predicate comes back whole.
pub(crate) fn zone_conjuncts(pred: &Pred, types: &[DataType]) -> (Vec<ZonePred>, Option<Pred>) {
    fn flatten<'p>(pred: &'p Pred, out: &mut Vec<&'p Pred>) {
        match pred {
            Pred::And(ps) => ps.iter().for_each(|p| flatten(p, out)),
            p => out.push(p),
        }
    }
    let range = |p: &Pred| match p {
        Pred::Cmp {
            col,
            op,
            rhs: CmpRhs::Const(v),
        } if matches!(
            types.get(*col),
            Some(DataType::I16 | DataType::I32 | DataType::I64)
        ) =>
        {
            let (lo, hi) = crate::analyze::cmp_const_interval(*op, v)?;
            Some(ZoneGuard { col: *col, lo, hi })
        }
        _ => None,
    };
    let mut conjuncts = Vec::new();
    flatten(pred, &mut conjuncts);
    let mut zoned = Vec::new();
    let mut rest = Vec::new();
    for p in conjuncts {
        match range(p) {
            Some(range) => zoned.push(ZonePred {
                range,
                pred: p.clone(),
            }),
            None => rest.push(p.clone()),
        }
    }
    let rest = match rest.len() {
        _ if zoned.is_empty() => Some(pred.clone()),
        0 => None,
        1 => rest.pop(),
        _ => Some(Pred::And(rest)),
    };
    (zoned, rest)
}

/// The zone guards of a scan whose `zoned` columns a Filter with output
/// `facts` narrows: per narrowed column, the Filter's output interval,
/// with a side it did not narrow left unbounded.
fn guards(zoned: &[(usize, i64, i64)], facts: &Facts) -> Vec<ZoneGuard> {
    let narrowed = zoned
        .iter()
        .filter_map(|&(col, lo, hi)| match facts.cols[col].domain {
            AbsDomain::Int { lo: l, hi: h } if l > lo || h < hi => Some(ZoneGuard {
                col,
                lo: if l > lo { l.into() } else { i128::MIN },
                hi: if h < hi { h.into() } else { i128::MAX },
            }),
            _ => None,
        });
    narrowed.collect()
}

/// The partitioning verdict for a hash aggregate (`< 2`: one instance).
/// Partition when the input is itself a sharded scan chain (its producers
/// are already parallel — serializing them behind one hash table would be
/// the Amdahl bottleneck this exchange exists to remove), or when the
/// proven `demand` reaches `threshold` (a heavy consumer behind serial
/// producers still parallelizes its hash-table work). The demand is the
/// **proven group bound**, `min(row bound, Π key NDV)` — a low-NDV key
/// provably caps the group count, so such an aggregate stays single
/// however many rows feed it — against
/// [`ExecConfig::agg_min_partition_groups`], in raw-width units and
/// discounted when the group keys arrive dictionary-coded (DESIGN.md
/// §13). Row bounds are anchored on exact base-table counts and
/// deliberately pessimistic above them: a miss costs parallelism or
/// routing overhead, never correctness. An `explicit` partition knob is
/// an exact override; in auto mode the cost model sizes the count to the
/// demand instead of fanning out to every worker.
fn agg_partitions(
    fanout: usize,
    input_sharded: bool,
    demand: usize,
    threshold: usize,
    explicit: bool,
) -> usize {
    if fanout < 2 || (!input_sharded && demand < threshold) {
        1
    } else if input_sharded || explicit {
        fanout
    } else {
        cost::pick_partitions(demand, threshold, fanout)
    }
}

/// The two-phase verdict for a hash aggregate over a chain sharded into
/// `fragments` fragments, with proven group bound `groups` and input row
/// bound `input`: every fragment keeps a private partial of up to `groups`
/// groups, so the partials together must stay within half the input —
/// `groups × fragments × 2 ≤ input` — and every `sum_i64` must be proven
/// to fit `i64` (`sums_fit`). A partial folds a subset of the rows, so the
/// proven total bound covers each partial's narrowing too.
fn two_phase(groups: usize, fragments: usize, input: usize, sums_fit: bool) -> bool {
    sums_fit && groups.saturating_mul(fragments).saturating_mul(2) <= input
}

/// A node's typing-rule failure, as the error naming that node.
fn rejected(plan: &LogicalPlan, err: TypeError) -> VerifyError {
    let context = rules::node_name(plan);
    match err {
        TypeError::ColumnOutOfRange { col, arity } => VerifyError::ColumnOutOfRange {
            context,
            col,
            arity,
        },
        TypeError::Mismatch {
            context: what,
            expected,
            found,
        } => VerifyError::TypeMismatch {
            context: format!("{context}: {what}"),
            expected,
            found,
        },
        TypeError::Invalid(reason) => VerifyError::Invalid { context, reason },
    }
}

// ---------------------------------------------------------------------------
// scan chains: the unit a worker fragment compiles
// ---------------------------------------------------------------------------

/// One stage of a [`ScanChain`] above its scan.
enum Stage<'p, 'a> {
    /// A Filter or Project node.
    Stream(&'p PhysNode<'a>),
    /// A HashJoin node probing in the fragments, and its one build.
    Probe(&'p PhysNode<'a>, SharedBuild),
}

/// The chain a sharding exchange or a partitioned aggregate's producer
/// set compiles into fragments: Filter, Project and HashJoin-probe stages
/// over a scan.
struct ScanChain<'p, 'a> {
    scan: &'p PhysNode<'a>,
    table: &'a Arc<Table>,
    cols: &'a [String],
    /// The nodes above the scan, bottom-up.
    stages: Vec<Stage<'p, 'a>>,
}

impl<'p, 'a> ScanChain<'p, 'a> {
    /// Decomposes the chain `node` tops, following joins down their probe
    /// side and constructing each join stage's build pipeline — once,
    /// whatever the fragment count.
    fn of(node: &'p PhysNode<'a>, lw: &Lowering) -> Result<Self, ExecError> {
        let mut stages = Vec::new();
        let mut cur = node;
        loop {
            match cur.logical {
                LogicalPlan::Scan { table, cols, .. } => {
                    stages.reverse();
                    return Ok(ScanChain {
                        scan: cur,
                        table,
                        cols,
                        stages,
                    });
                }
                LogicalPlan::Filter { .. } | LogicalPlan::Project { .. } => {
                    stages.push(Stage::Stream(cur));
                    cur = child(cur, 0)?;
                }
                LogicalPlan::HashJoin {
                    build_keys,
                    payload,
                    bloom,
                    ..
                } => {
                    let input = child(cur, 0)?;
                    let shared = SharedBuild::new(
                        lw.build(input)?,
                        build_keys.clone(),
                        payload.clone(),
                        *bloom,
                    )?
                    .with_build_rows(input.rows)
                    .with_tracker(lw.scope(cur).mem_tracker(cur.instance_bytes));
                    stages.push(Stage::Probe(cur, shared));
                    cur = child(cur, 1)?;
                }
                _ => {
                    return Err(ExecError::Plan(format!(
                        "physical node {} shards into fragments but is not a scan chain",
                        node.id.0
                    )))
                }
            }
        }
    }

    /// A fresh morsel queue over the chain's table. Morsels follow the
    /// configured vector size so morsel boundaries stay chunk-aligned for
    /// any `vector_size` (the worker-count-invariance contract,
    /// DESIGN.md §5).
    fn queue(&self, ctx: &QueryContext) -> Arc<MorselQueue> {
        let morsel_rows = VECTORS_PER_MORSEL * ctx.vector_size();
        Arc::new(MorselQueue::with_morsel(self.table.rows(), morsel_rows))
    }

    /// `n` worker fragments over one shared morsel queue.
    fn fragments(&self, n: usize, lw: &Lowering) -> Result<Vec<BoxOp>, ExecError> {
        let queue = self.queue(lw.ctx);
        (0..n).map(|_| self.fragment(&queue, lw)).collect()
    }

    /// One worker's fragment: a morsel scan plus the chain's stages, each
    /// with private primitive instances (per-worker bandit state) in a
    /// fresh scope of its node; a join stage is a prober over the chain's
    /// one build of that join.
    fn fragment(&self, queue: &Arc<MorselQueue>, lw: &Lowering) -> Result<BoxOp, ExecError> {
        let names: Vec<&str> = self.cols.iter().map(String::as_str).collect();
        let scan = Scan::morsel(
            Arc::clone(self.table),
            &names,
            lw.ctx.vector_size(),
            Arc::clone(queue),
        )?;
        // A Filter right above the scan is built with it.
        let filter = match self.stages.first() {
            Some(Stage::Stream(node)) if matches!(node.logical, LogicalPlan::Filter { .. }) => {
                Some(*node)
            }
            _ => None,
        };
        let mut op = lw.scan_op(self.scan, scan, filter)?;
        for stage in &self.stages[usize::from(filter.is_some())..] {
            op = match stage {
                Stage::Stream(node) => stream_op(node.logical, op, &lw.scope(node))?,
                Stage::Probe(node, shared) => {
                    let LogicalPlan::HashJoin {
                        probe_keys,
                        kind,
                        defaults,
                        ..
                    } = node.logical
                    else {
                        unreachable!("probe stages hold HashJoin nodes");
                    };
                    let keys = probe_keys.clone();
                    let scope = lw.scope(node);
                    Box::new(shared.prober(op, keys, *kind, defaults.clone(), &scope)?)
                }
            };
        }
        Ok(op)
    }

    /// The join stages' builds, for the exchange that starts the
    /// fragments to run first.
    fn into_builds(self) -> Vec<SharedBuild> {
        let builds = self.stages.into_iter().filter_map(|stage| match stage {
            Stage::Stream(_) => None,
            Stage::Probe(_, shared) => Some(shared),
        });
        builds.collect()
    }
}

/// The streaming operator of a Filter or Project node over `input`.
fn stream_op(plan: &LogicalPlan, input: BoxOp, scope: &NodeScope) -> Result<BoxOp, ExecError> {
    Ok(match plan {
        LogicalPlan::Filter { pred, .. } => Box::new(Select::new(input, pred, scope)?),
        LogicalPlan::Project { items, .. } => {
            Box::new(crate::ops::Project::new(input, items.clone(), scope)?)
        }
        _ => unreachable!("stream stages hold only Filter and Project nodes"),
    })
}

// ---------------------------------------------------------------------------
// instantiation
// ---------------------------------------------------------------------------

/// Constructs the operator pipeline `plan` describes, registering one
/// [`crate::MemTracker`] per tracked instance with the bound the node
/// carries. Decides nothing: `ctx` must hold the [`ExecConfig`] the plan
/// was made under. The plan takes the context's next plan ordinal, so
/// every instance and tracker it registers is keyed by (plan, node).
pub fn instantiate(plan: &PhysicalPlan<'_>, ctx: &QueryContext) -> Result<BoxOp, ExecError> {
    let lw = Lowering {
        ctx,
        plan: ctx.next_plan(),
    };
    lw.build(&plan.root)
}

fn child<'p, 'a>(node: &'p PhysNode<'a>, i: usize) -> Result<&'p PhysNode<'a>, ExecError> {
    node.children
        .get(i)
        .ok_or_else(|| ExecError::Plan(format!("physical node {} is missing input {i}", node.id.0)))
}

/// One plan's instantiation: the context and the plan's ordinal in it.
struct Lowering<'c> {
    ctx: &'c QueryContext,
    plan: usize,
}

impl Lowering<'_> {
    /// A sequential scan of scan node `node`'s columns.
    fn scan(&self, node: &PhysNode<'_>) -> Result<Scan, ExecError> {
        let LogicalPlan::Scan { table, cols, .. } = node.logical else {
            unreachable!("scan nodes hold Scan plans");
        };
        let names: Vec<&str> = cols.iter().map(String::as_str).collect();
        Scan::new(Arc::clone(table), &names, self.ctx.vector_size())
    }

    /// A fresh scope for one copy of `node`'s operator, displayed under
    /// the node's label (`scan_<table>` for a scan, `sort` for a sort).
    fn scope(&self, node: &PhysNode<'_>) -> NodeScope {
        let label = match node.logical {
            LogicalPlan::Scan { table, .. } => format!("scan_{}", table.name()),
            other => other.label().unwrap_or("sort").to_string(),
        };
        NodeScope::new(self.ctx, self.plan, node.id, label)
    }

    /// The operator of scan node `node` over `scan`, or with `filter` (the
    /// Filter node directly above it) that Filter's too: the scan takes
    /// the node's zone guards and owns the Filter's zone conjuncts, and a
    /// [`Select`] evaluates the rest, both in the Filter's scope. Under
    /// [`DecodeMode::Reference`] — the spec path the differential fuzzer
    /// checks skipping and admission against — the scan takes neither and
    /// the `Select` the whole predicate.
    fn scan_op(
        &self,
        node: &PhysNode<'_>,
        scan: Scan,
        filter: Option<&PhysNode<'_>>,
    ) -> Result<BoxOp, ExecError> {
        let spec = self.ctx.config().decode == DecodeMode::Reference;
        let guards = if spec { &[][..] } else { &node.guards[..] };
        let scan = scan.with_guards(guards)?.with_context(&self.scope(node))?;
        let Some(filter) = filter else {
            return Ok(Box::new(scan));
        };
        let LogicalPlan::Filter { pred, .. } = filter.logical else {
            unreachable!("a scan's filter is a Filter node");
        };
        let scope = self.scope(filter);
        let (owned, rest) = if spec {
            (Vec::new(), Some(pred.clone()))
        } else {
            zone_conjuncts(pred, scan.out_types())
        };
        let scan: BoxOp = Box::new(scan.with_zone_preds(&owned, &scope)?);
        Ok(match rest {
            Some(rest) => Box::new(Select::new(scan, &rest, &scope)?),
            None => scan,
        })
    }

    /// One [`HashAggregate`] of hash-aggregate node `node` over `source`,
    /// registered in `scope`, grouping by `keys` with `aggs` and dense over
    /// `dense` when it is non-empty, with the node's group bound against
    /// `input_rows` and a tracker carrying the node's instance bound.
    fn agg_instance(
        &self,
        node: &PhysNode<'_>,
        source: BoxOp,
        (keys, aggs, dense): (Vec<usize>, Vec<Agg>, &[KeyDomain]),
        input_rows: usize,
        scope: &NodeScope,
    ) -> Result<BoxOp, ExecError> {
        let agg = match dense {
            [] => HashAggregate::new(source, keys, aggs, scope)?,
            dense => HashAggregate::new_dense(source, keys, dense.to_vec(), aggs, scope)?,
        };
        Ok(Box::new(
            agg.with_group_bound(node.rows, input_rows)
                .with_tracker(scope.mem_tracker(node.instance_bytes)),
        ))
    }

    /// The operator of hash-aggregate node `node` under `exchange`: one
    /// instance over its input, `P` routed partitions, or — two-phase — a
    /// partial in each fragment of the chain beneath it, whose groups the
    /// chain's union carries to one combine instance.
    fn hash_agg(&self, node: &PhysNode<'_>, exchange: &Exchange) -> Result<BoxOp, ExecError> {
        let LogicalPlan::HashAgg { keys, aggs, .. } = node.logical else {
            unreachable!("hash_agg lowers HashAgg nodes");
        };
        let feed = child(node, 0)?;
        let instance = |source: BoxOp, scope: &NodeScope| {
            let spec = (keys.clone(), aggs.clone(), &node.dense_keys[..]);
            self.agg_instance(node, source, spec, feed.rows, scope)
        };
        Ok(match exchange {
            Exchange::None => instance(self.build(feed)?, &self.scope(node))?,
            Exchange::Parallel {
                workers,
                chunk_bytes,
            } => {
                let chain = ScanChain::of(feed, self)?;
                let queue = chain.queue(self.ctx);
                // The combine's instances number on from a partial's, so
                // their slots stay apart.
                let last = std::cell::RefCell::new(None);
                let factory = |_worker: usize, _n: usize| {
                    let scope = self.scope(node);
                    let partial = instance(chain.fragment(&queue, self)?, &scope)?;
                    last.replace(Some(scope));
                    Ok(partial)
                };
                let union = Parallel::new(*workers, &factory)?
                    .after_builds(chain.into_builds())
                    .tracked(self.scope(node).exchange_tracker(*chunk_bytes));
                let scope = last
                    .into_inner()
                    .ok_or_else(|| {
                        ExecError::Plan("a two-phase aggregate without fragments".into())
                    })?
                    .then("/combine");
                let spec = combine_of(keys.len(), aggs, &node.dense_keys);
                let input_rows = node.rows.saturating_mul(workers.get());
                self.agg_instance(node, Box::new(union), spec, input_rows, &scope)?
            }
            Exchange::HashPartition {
                partitions,
                producers,
                chunk_bytes,
            } => {
                // The producers are the input's morsel fragments or its own
                // pipeline. Group keys are disjoint across partitions, so the
                // arrival-order union of partition outputs *is* the aggregate
                // — no merge step.
                let (producers, builds) = if producers.get() >= 2 {
                    let chain = ScanChain::of(feed, self)?;
                    (chain.fragments(producers.get(), self)?, chain.into_builds())
                } else {
                    (vec![self.build(feed)?], Vec::new())
                };
                let consumer = |source: BoxOp, _p: usize| instance(source, &self.scope(node));
                Box::new(
                    HashPartitionExchange::new(producers, keys.clone(), *partitions, &consumer)?
                        .after_builds(builds)
                        .tracked(self.scope(node).exchange_tracker(*chunk_bytes)),
                )
            }
        })
    }

    fn build(&self, node: &PhysNode<'_>) -> Result<BoxOp, ExecError> {
        let input = |i: usize| self.build(child(node, i)?);
        Ok(match (node.logical, &node.exchange) {
            (LogicalPlan::HashAgg { .. }, exchange) => self.hash_agg(node, exchange)?,
            (
                _,
                Exchange::Parallel {
                    workers,
                    chunk_bytes,
                },
            ) => {
                let chain = ScanChain::of(node, self)?;
                let queue = chain.queue(self.ctx);
                let factory = |_worker: usize, _n: usize| chain.fragment(&queue, self);
                Box::new(
                    Parallel::new(*workers, &factory)?
                        .after_builds(chain.into_builds())
                        .tracked(self.scope(node).exchange_tracker(*chunk_bytes)),
                )
            }
            // Only hash aggregates partition: anything else would fall through
            // to its plain constructor and quietly run unpartitioned.
            (_, Exchange::HashPartition { .. }) => {
                return Err(ExecError::Plan(format!(
                    "physical node {} carries a hash-partitioning exchange but is not a hash \
                     aggregate",
                    node.id.0
                )))
            }
            (LogicalPlan::Scan { .. }, _) => self.scan_op(node, self.scan(node)?, None)?,
            (LogicalPlan::Filter { .. }, _)
                if matches!(child(node, 0)?.logical, LogicalPlan::Scan { .. }) =>
            {
                let scan = child(node, 0)?;
                self.scan_op(scan, self.scan(scan)?, Some(node))?
            }
            (LogicalPlan::Filter { .. } | LogicalPlan::Project { .. }, _) => {
                stream_op(node.logical, input(0)?, &self.scope(node))?
            }
            (LogicalPlan::StreamAgg { aggs, .. }, _) => Box::new(StreamAggregate::new(
                input(0)?,
                aggs.clone(),
                &self.scope(node),
            )?),
            (
                LogicalPlan::HashJoin {
                    build_keys,
                    probe_keys,
                    payload,
                    kind,
                    bloom,
                    defaults,
                    ..
                },
                _,
            ) => {
                let scope = self.scope(node);
                Box::new(
                    HashJoin::new(
                        input(0)?,
                        input(1)?,
                        build_keys.clone(),
                        probe_keys.clone(),
                        payload.clone(),
                        *kind,
                        *bloom,
                        defaults.clone(),
                        &scope,
                    )?
                    .with_build_rows(child(node, 0)?.rows)
                    .with_tracker(scope.mem_tracker(node.instance_bytes)),
                )
            }
            (
                LogicalPlan::MergeJoin {
                    left_key,
                    right_key,
                    payload,
                    ..
                },
                _,
            ) => Box::new(MergeJoin::new(
                input(0)?,
                input(1)?,
                *left_key,
                *right_key,
                payload.clone(),
                &self.scope(node),
            )?),
            (LogicalPlan::Sort { keys, limit, .. }, _) => Box::new(
                Sort::new(input(0)?, keys.clone(), *limit, self.ctx.vector_size())?
                    .with_tracker(self.scope(node).mem_tracker(node.instance_bytes)),
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecConfig;
    use crate::ops::{collect, total_rows, JoinKind};
    use crate::plan::{asc, col, count, desc, lit_i64, sum_i64};
    use crate::plan::{NamedPred, PlanBuilder};
    use crate::CmpKind;
    use ma_primitives::build_dictionary;
    use ma_vector::{ColumnBuilder, DataType};
    use std::collections::HashMap;

    /// Instances the planner gives the root operator (its partition
    /// verdict) and the row bound it proved for it.
    fn root_verdict(plan: &LogicalPlan, cfg: &ExecConfig) -> (usize, usize) {
        let phys = plan_physical(plan, cfg).unwrap();
        (phys.root.instances(), phys.root.rows)
    }

    fn ctx_with_workers(workers: usize) -> QueryContext {
        let mut cfg = ExecConfig::fixed_default();
        cfg.worker_threads = workers;
        QueryContext::new(Arc::new(build_dictionary()), cfg)
    }

    fn catalog(rows: usize) -> HashMap<String, Arc<Table>> {
        let mut k = ColumnBuilder::with_capacity(DataType::I32, rows);
        let mut v = ColumnBuilder::with_capacity(DataType::I64, rows);
        for i in 0..rows {
            k.push_i32((i % 7) as i32);
            v.push_i64(i as i64);
        }
        // `v` (the unique, sorted row id) is the first column: the
        // clustering-key convention the merge-join builder check relies
        // on.
        let t = Arc::new(
            Table::new(
                "t",
                vec![("v".into(), v.finish()), ("k".into(), k.finish())],
            )
            .unwrap(),
        );
        let mut dk = ColumnBuilder::with_capacity(DataType::I32, 3);
        let mut dv = ColumnBuilder::with_capacity(DataType::I64, 3);
        for i in 0..3 {
            dk.push_i32(i);
            dv.push_i64(i as i64 * 100);
        }
        let d = Arc::new(
            Table::new(
                "d",
                vec![("dk".into(), dk.finish()), ("dv".into(), dv.finish())],
            )
            .unwrap(),
        );
        let mut c = HashMap::new();
        c.insert("t".to_string(), t);
        c.insert("d".to_string(), d);
        c
    }

    fn agg_totals(workers: usize, rows: usize) -> Vec<(i32, i64)> {
        let c = catalog(rows);
        let plan = PlanBuilder::scan(&c, "t", &["k", "v"])
            .filter(NamedPred::cmp_val("k", CmpKind::Lt, Value::I32(5)), "sel")
            .hash_agg(&["k"], vec![count(), sum_i64("v")], "agg")
            .sort(&[asc("k")])
            .build()
            .unwrap();
        let ctx = ctx_with_workers(workers);
        let mut op = lower(&plan, &ctx).unwrap();
        let chunks = collect(op.as_mut()).unwrap();
        let mut out = Vec::new();
        for ch in &chunks {
            for p in ch.live_positions() {
                out.push((ch.column(0).as_i32()[p], ch.column(2).as_i64()[p]));
            }
        }
        out
    }

    use crate::expr::Value;

    #[test]
    fn lowering_matches_across_worker_counts() {
        // Big enough to shard (>= 2 morsels at the default vector size).
        let rows = 3 * VECTORS_PER_MORSEL * 1024;
        let seq = agg_totals(1, rows);
        let par = agg_totals(4, rows);
        assert_eq!(seq, par);
        assert_eq!(seq.len(), 5);
    }

    #[test]
    fn filter_over_scan_shards_into_parallel() {
        let rows = 3 * VECTORS_PER_MORSEL * 1024;
        let c = catalog(rows);
        let plan = PlanBuilder::scan(&c, "t", &["k"])
            .filter(NamedPred::cmp_val("k", CmpKind::Lt, Value::I32(1)), "sel")
            .build()
            .unwrap();
        let ctx = ctx_with_workers(4);
        let mut op = lower(&plan, &ctx).unwrap();
        let n = total_rows(&collect(op.as_mut()).unwrap());
        assert_eq!(n, rows / 7 + usize::from(!rows.is_multiple_of(7)));
        // The pushed-down selection ran inside the workers: exactly one
        // instance of the labeled selection primitive per worker (a
        // non-pushed Select above the exchange would create just one).
        // `reports()` is the unmerged view — `merged_reports()` would
        // fold the per-worker instances back into a single entry.
        drop(op);
        let sel_instances = ctx
            .reports()
            .iter()
            .filter(|r| r.label.starts_with("sel/"))
            .count();
        assert_eq!(
            sel_instances, 4,
            "expected one pushed-down selection instance per worker"
        );
    }

    #[test]
    fn partitioned_agg_runs_one_instance_per_partition() {
        // Big enough to shard: the planner must route the aggregation
        // through a hash-partitioning exchange with one private
        // HashAggregate per partition — visible as `workers` instances of
        // each aggregation primitive under the same label.
        let rows = 3 * VECTORS_PER_MORSEL * 1024;
        let c = catalog(rows);
        let plan = PlanBuilder::scan(&c, "t", &["k", "v"])
            .filter(NamedPred::cmp_val("k", CmpKind::Lt, Value::I32(5)), "sel")
            .hash_agg(&["k"], vec![count(), sum_i64("v")], "agg")
            .build()
            .unwrap();
        let ctx = ctx_with_workers(4);
        let mut op = lower(&plan, &ctx).unwrap();
        let chunks = collect(op.as_mut()).unwrap();
        drop(op);
        let mut out: Vec<(i32, i64)> = chunks
            .iter()
            .flat_map(|ch| {
                ch.live_positions()
                    .into_iter()
                    .map(|p| (ch.column(0).as_i32()[p], ch.column(2).as_i64()[p]))
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_unstable();
        assert_eq!(out, agg_totals(1, rows));
        let count_instances = ctx
            .reports()
            .iter()
            .filter(|r| r.label == "agg/aggr_count")
            .count();
        assert_eq!(
            count_instances, 4,
            "expected one aggregate instance per partition"
        );
        // Producers (scan + pushed-down filter) stay one per worker.
        let sel_instances = ctx
            .reports()
            .iter()
            .filter(|r| r.label.starts_with("sel/"))
            .count();
        assert_eq!(sel_instances, 4);
    }

    #[test]
    fn agg_over_serial_input_partitions_by_group_estimate() {
        // An aggregate whose input is NOT a shardable scan chain (a hash
        // join intervenes) partitions only when the *proven group bound*
        // clears the threshold. Group key `k` has exactly 7 distinct
        // values, and the equi-join against `dk ∈ [0, 2]` narrows it to
        // NDV ≤ 3 — so the bound is 3, not the 1000-row input estimate.
        let c = catalog(1000);
        let build = PlanBuilder::scan(&c, "d", &["dk", "dv"]);
        let plan = PlanBuilder::scan(&c, "t", &["k", "v"])
            .hash_join(build, &[("k", "dk")], &["dv"], JoinKind::Inner, false, "j")
            .hash_agg(&["k"], vec![count()], "agg")
            .build()
            .unwrap();
        let partitions = |cfg: &ExecConfig| root_verdict(&plan, cfg).0;
        let mut cfg = ExecConfig::fixed_default();
        cfg.worker_threads = 4;
        // Below the default threshold: single.
        assert_eq!(partitions(&cfg), 1);
        // Verdict flip vs the raw row estimate: 1000 input rows used to
        // clear a threshold of 100, but at most 3 groups can exist.
        cfg.agg_min_partition_groups = 100;
        assert_eq!(partitions(&cfg), 1);
        // The bound itself gates exactly: threshold == 3 partitions. The
        // cost model sizes P to the demand/threshold ratio (here 1,
        // clamped to the 2-partition minimum), not the worker count.
        cfg.agg_min_partition_groups = 3;
        assert_eq!(partitions(&cfg), 2);
        // ... one past it does not.
        cfg.agg_min_partition_groups = 4;
        assert_eq!(partitions(&cfg), 1);
        // An explicit partition count overrides worker-following...
        cfg.agg_min_partition_groups = 3;
        cfg.agg_partitions = 2;
        assert_eq!(partitions(&cfg), 2);
        // ... and `1` disables partitioning outright.
        cfg.agg_partitions = 1;
        assert_eq!(partitions(&cfg), 1);
        // Execution with a forced partition count still matches.
        let mut cfg = ExecConfig::fixed_default();
        cfg.agg_min_partition_groups = 3;
        cfg.agg_partitions = 3;
        let ctx = QueryContext::new(Arc::new(build_dictionary()), cfg);
        let mut op = lower(&plan, &ctx).unwrap();
        let chunks = collect(op.as_mut()).unwrap();
        drop(op);
        let total: i64 = chunks
            .iter()
            .flat_map(|ch| {
                ch.live_positions()
                    .into_iter()
                    .map(|p| ch.column(1).as_i64()[p])
                    .collect::<Vec<_>>()
            })
            .sum();
        // Keys 0..2 match the 3-row dimension; each key appears 1000/7
        // times (rounded up for k < 1000 % 7 = 6... keys 0,1,2 all get
        // ceil).
        assert_eq!(total, 143 * 3);
        let agg_instances = ctx
            .reports()
            .iter()
            .filter(|r| r.label == "agg/aggr_count")
            .count();
        assert_eq!(agg_instances, 3);
    }

    #[test]
    fn verdicts_flip_exactly_at_the_row_count_threshold() {
        // Scan estimates are exact base-table row counts (the
        // `Catalog::row_count` contract), and `v` is unique, so the group
        // bound for a group-by-`v` aggregate is exactly the row count: a
        // threshold equal to it partitions and one past it does not — no
        // slack in either direction.
        let rows = 1000;
        let c = catalog(rows);
        let agg_by = |key: &str| {
            PlanBuilder::scan(&c, "t", &["k", "v"])
                .hash_agg(&[key], vec![count()], "agg")
                .build()
                .unwrap()
        };
        let by_v = agg_by("v");
        let mut cfg = ExecConfig::fixed_default();
        cfg.worker_threads = 4;
        cfg.agg_min_partition_groups = rows;
        assert_eq!(root_verdict(&by_v, &cfg).0, 2);
        cfg.agg_min_partition_groups = rows + 1;
        assert_eq!(root_verdict(&by_v, &cfg).0, 1);

        // Grouping by `k` (exactly 7 distinct values) instead caps the
        // bound at the key's NDV, not the 1000-row input: the verdict
        // flips at 7/8 even though every threshold below 1000 used to
        // partition.
        let by_k = agg_by("k");
        cfg.agg_min_partition_groups = 7;
        assert_eq!(root_verdict(&by_k, &cfg).0, 2);
        cfg.agg_min_partition_groups = 8;
        assert_eq!(root_verdict(&by_k, &cfg).0, 1);

        // Join verdict: no threshold of its own. A join probes in the
        // worker fragments exactly when its probe chain shards, and a
        // chain shards from two morsels up (here 2 × 16 vectors × 16
        // rows) — one row short of that it is one inline instance.
        let join_over = |rows: usize| {
            let c = catalog(rows);
            PlanBuilder::scan(&c, "t", &["k", "v"])
                .hash_join(
                    PlanBuilder::scan(&c, "d", &["dk", "dv"]),
                    &[("k", "dk")],
                    &["dv"],
                    JoinKind::Inner,
                    false,
                    "j",
                )
                .build()
                .unwrap()
        };
        let mut cfg = ExecConfig::fixed_default();
        cfg.worker_threads = 4;
        cfg.vector_size = 16;
        let cutoff = 2 * VECTORS_PER_MORSEL * cfg.vector_size;
        let (at, below) = (join_over(cutoff), join_over(cutoff - 1));
        let phys = plan_physical(&at, &cfg).unwrap();
        let (root, fragments) = phys.fragments()[0];
        assert!(matches!(
            root.exchange,
            Exchange::Parallel { workers, .. } if workers.get() == 4
        ));
        assert_eq!((fragments, root.instances()), (4, 1));
        let phys = plan_physical(&below, &cfg).unwrap();
        let (root, fragments) = phys.fragments()[0];
        assert_eq!(root.exchange, Exchange::None);
        assert_eq!((fragments, root.instances()), (1, 1));
    }

    #[test]
    fn inner_join_estimate_takes_the_larger_side() {
        // A big build table under a small probe: the build key `k` is NOT
        // distinct (7 values over 1000 rows), so each probe tuple can
        // match many build rows and the sound bound is the N·M product —
        // the estimate must not collapse to the 3-row probe side (it used
        // to, silently under-firing every verdict above the join).
        let rows = 1000;
        let c = catalog(rows);
        let join = || {
            PlanBuilder::scan(&c, "d", &["dk", "dv"]).hash_join(
                PlanBuilder::scan(&c, "t", &["k", "v"]),
                &[("dk", "k")],
                &["v"],
                JoinKind::Inner,
                false,
                "j",
            )
        };
        let mut cfg = ExecConfig::fixed_default();
        assert_eq!(root_verdict(&join().build().unwrap(), &cfg).1, 3 * rows);
        // The aggregation verdict directly above the join gates on the
        // payload key's NDV (`v` is unique over 1000 build rows), not the
        // 3000-row product estimate.
        let agg = join()
            .hash_agg(&["v"], vec![count()], "agg")
            .build()
            .unwrap();
        cfg.worker_threads = 4;
        cfg.agg_min_partition_groups = rows;
        assert_eq!(root_verdict(&agg, &cfg).0, 2);
        cfg.agg_min_partition_groups = rows + 1;
        assert_eq!(root_verdict(&agg, &cfg).0, 1);

        // Semi joins stay probe-bounded exactly: at most one output row
        // per probe tuple, regardless of the build side's size.
        let semi = PlanBuilder::scan(&c, "d", &["dk", "dv"])
            .hash_join(
                PlanBuilder::scan(&c, "t", &["k", "v"]),
                &[("dk", "k")],
                &[],
                JoinKind::Semi,
                false,
                "s",
            )
            .build()
            .unwrap();
        assert_eq!(root_verdict(&semi, &cfg).1, 3);

        // Merge join: the left key `v` is provably all-distinct (NDV ==
        // row count), so the unique-key contract is proven and the bound
        // is the streaming right side's 3 rows — not the 1000-row left.
        let mj = PlanBuilder::scan(&c, "d", &["dk", "dv"])
            .merge_join(
                PlanBuilder::scan(&c, "t", &["v", "k"]),
                ("dk", "v"),
                &["k"],
                "mj",
            )
            .build()
            .unwrap();
        assert_eq!(root_verdict(&mj, &cfg).1, 3);
    }

    #[test]
    fn catalog_row_count_is_the_estimate_source() {
        // The scan's row estimate comes from `Catalog::row_count`,
        // captured at plan-build time — not from the materialized table.
        // A metadata-backed catalog that answers a different count must
        // shift the estimate (and with it the partitioning verdicts).
        struct MetaCatalog(HashMap<String, Arc<Table>>);
        impl crate::plan::Catalog for MetaCatalog {
            fn lookup(&self, name: &str) -> Option<Arc<Table>> {
                self.0.get(name).cloned()
            }
            fn row_count(&self, name: &str) -> Option<usize> {
                // Pretend the stored table is a 10-row sample of a
                // metadata-known cardinality.
                self.0.get(name).map(|_| 500_000)
            }
        }
        let c = MetaCatalog(catalog(1000));
        let cfg = ExecConfig::fixed_default();
        let plan = PlanBuilder::scan(&c, "t", &["k", "v"]).build().unwrap();
        assert_eq!(root_verdict(&plan, &cfg).1, 500_000);
        // The default-impl path (HashMap catalog) reports the exact
        // materialized count, as does `from_table`.
        let default_c = catalog(1000);
        let plan = PlanBuilder::scan(&default_c, "t", &["k", "v"])
            .build()
            .unwrap();
        assert_eq!(root_verdict(&plan, &cfg).1, 1000);
        let t = default_c.get("t").unwrap().clone();
        let plan = PlanBuilder::from_table(t, &["k", "v"]).build().unwrap();
        assert_eq!(root_verdict(&plan, &cfg).1, 1000);
    }

    #[test]
    fn partitioned_join_runs_one_instance_per_partition() {
        // The probe side is a sharded scan chain: the join probes in the 4
        // worker fragments over one shared build. 4 probe-hash instances
        // register under the plan node's label, one table is built, and
        // the results equal the single join's.
        let rows = 3 * VECTORS_PER_MORSEL * 1024;
        let c = catalog(rows);
        let mk_plan = |c: &HashMap<String, Arc<Table>>| {
            PlanBuilder::scan(c, "t", &["k", "v"])
                .hash_join(
                    PlanBuilder::scan(c, "d", &["dk", "dv"]),
                    &[("k", "dk")],
                    &["dv"],
                    JoinKind::Inner,
                    false,
                    "j",
                )
                .build()
                .unwrap()
        };
        let run = |workers: usize| {
            let plan = mk_plan(&c);
            let ctx = ctx_with_workers(workers);
            let mut op = lower(&plan, &ctx).unwrap();
            let chunks = collect(op.as_mut()).unwrap();
            drop(op);
            let mut out: Vec<(i32, i64, i64)> = chunks
                .iter()
                .flat_map(|ch| {
                    ch.live_positions()
                        .into_iter()
                        .map(|p| {
                            (
                                ch.column(0).as_i32()[p],
                                ch.column(1).as_i64()[p],
                                ch.column(2).as_i64()[p],
                            )
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
            out.sort_unstable();
            (out, ctx)
        };
        let (seq, ctx1) = run(1);
        assert_eq!(seq.len(), (0..rows).filter(|i| i % 7 < 3).count());
        for &(k, _, dv) in &seq {
            assert_eq!(dv, k as i64 * 100);
        }
        let hash_instances = |ctx: &QueryContext| {
            ctx.reports()
                .iter()
                .filter(|r| r.label == "j/map_hash")
                .count()
        };
        let tables = |ctx: &QueryContext| {
            let reports = ctx.mem_reports();
            reports.iter().filter(|r| r.label == "j").count()
        };
        assert_eq!((hash_instances(&ctx1), tables(&ctx1)), (1, 1));
        let (par, ctx4) = run(4);
        assert_eq!(seq, par);
        assert_eq!((hash_instances(&ctx4), tables(&ctx4)), (4, 1));
    }

    #[test]
    fn semi_anti_and_left_single_joins_partition_exactly() {
        // The fragments' probers all read the whole build table, so the
        // sharded plan must be exact for all join kinds — including the
        // ones that depend on *absence* of matches.
        let rows = 3 * VECTORS_PER_MORSEL * 1024;
        let c = catalog(rows);
        for kind in [JoinKind::Semi, JoinKind::Anti] {
            let run = |workers: usize| {
                let plan = PlanBuilder::scan(&c, "t", &["k", "v"])
                    .hash_join(
                        PlanBuilder::scan(&c, "d", &["dk"]),
                        &[("k", "dk")],
                        &[],
                        kind,
                        false,
                        "j",
                    )
                    .build()
                    .unwrap();
                let ctx = ctx_with_workers(workers);
                let mut op = lower(&plan, &ctx).unwrap();
                let mut vals: Vec<i64> = collect(op.as_mut())
                    .unwrap()
                    .iter()
                    .flat_map(|ch| {
                        ch.live_positions()
                            .into_iter()
                            .map(|p| ch.column(1).as_i64()[p])
                            .collect::<Vec<_>>()
                    })
                    .collect();
                vals.sort_unstable();
                vals
            };
            assert_eq!(run(1), run(4), "{kind:?} join not fragment-exact");
        }
        // LeftSingle: unmatched probe tuples must get defaults, exactly
        // once.
        let run_ls = |workers: usize| {
            let plan = PlanBuilder::scan(&c, "t", &["k", "v"])
                .left_single_join(
                    PlanBuilder::scan(&c, "d", &["dk", "dv"]),
                    &[("k", "dk")],
                    &[("dv", Value::I64(-1))],
                    "ls",
                )
                .build()
                .unwrap();
            let ctx = ctx_with_workers(workers);
            let mut op = lower(&plan, &ctx).unwrap();
            let mut vals: Vec<(i64, i64)> = collect(op.as_mut())
                .unwrap()
                .iter()
                .flat_map(|ch| {
                    ch.live_positions()
                        .into_iter()
                        .map(|p| (ch.column(1).as_i64()[p], ch.column(2).as_i64()[p]))
                        .collect::<Vec<_>>()
                })
                .collect();
            vals.sort_unstable();
            vals
        };
        let one = run_ls(1);
        assert_eq!(one.len(), rows, "left-single keeps every probe tuple");
        assert_eq!(one, run_ls(4));
    }

    /// `lineitem`-like fact `t` joined to `d` four times over (each join
    /// keeps `k`, so the next one can probe on it).
    fn four_join_chain(c: &HashMap<String, Arc<Table>>) -> PlanBuilder {
        let mut pb = PlanBuilder::scan(c, "t", &["k", "v"]);
        for (i, kind) in [
            JoinKind::Inner,
            JoinKind::Semi,
            JoinKind::Inner,
            JoinKind::Anti,
        ]
        .into_iter()
        .enumerate()
        {
            let payload = format!("dv as dv{i}");
            let inner = kind == JoinKind::Inner;
            let build_cols: &[&str] = if inner { &["dk", &payload] } else { &["dk"] };
            let keep = format!("dv{i}");
            let keep: &[&str] = if inner { &[&keep] } else { &[] };
            // The anti join's build side drops key 0, so key 0 survives.
            let build = PlanBuilder::scan(c, "d", build_cols).filter(
                NamedPred::cmp_val("dk", CmpKind::Ge, Value::I32(i as i32 / 3)),
                &format!("dsel{i}"),
            );
            pb = pb.hash_join(
                build,
                &[("k", "dk")],
                keep,
                kind,
                i % 2 == 0,
                &format!("j{i}"),
            );
        }
        pb
    }

    #[test]
    fn a_join_chain_over_a_sharded_scan_plans_one_exchange() {
        let rows = 3 * VECTORS_PER_MORSEL * 1024;
        let c = catalog(rows);
        let mut cfg = ExecConfig::fixed_default();
        cfg.worker_threads = 4;
        let joins = |phys: &PhysicalPlan<'_>| -> Vec<(Exchange, usize, usize)> {
            let nodes = phys.fragments().into_iter();
            nodes
                .filter(|(n, _)| matches!(n.logical, LogicalPlan::HashJoin { .. }))
                .map(|(n, fragments)| (n.exchange.clone(), fragments, n.instances()))
                .collect()
        };
        let exchanges = |phys: &PhysicalPlan<'_>| {
            let nodes = phys.nodes().into_iter();
            nodes.filter(|n| n.exchange != Exchange::None).count()
        };
        // Under a sort the chain top — the last join — carries the one
        // Parallel; the three joins beneath it and all four small build
        // scans carry nothing.
        let plan = four_join_chain(&c).sort(&[asc("v")]).build().unwrap();
        let phys = plan_physical(&plan, &cfg).unwrap();
        let js = joins(&phys);
        assert_eq!(js.len(), 4);
        assert!(matches!(js[0].0, Exchange::Parallel { workers, .. } if workers.get() == 4));
        assert!(js[1..].iter().all(|j| j.0 == Exchange::None), "{js:?}");
        assert!(js.iter().all(|j| (j.1, j.2) == (4, 1)), "{js:?}");
        assert_eq!(exchanges(&phys), 1);
        // Under an aggregate with few groups the aggregate tops the chain:
        // a partial in each fragment, the one Parallel, every join bare.
        let plan = four_join_chain(&c)
            .hash_agg(&["k"], vec![count()], "agg")
            .build()
            .unwrap();
        let phys = plan_physical(&plan, &cfg).unwrap();
        assert!(phys.root.two_phase(), "{:?}", phys.root.exchange);
        assert_eq!((phys.fragments()[0].1, phys.root.instances()), (4, 5));
        let js = joins(&phys);
        assert!(js.iter().all(|j| *j == (Exchange::None, 4, 1)), "{js:?}");
        assert_eq!(exchanges(&phys), 1);
        // It runs, too: 4 probers per join over one table each, and the
        // same groups as the sequential plan.
        let run = |workers: usize| {
            let ctx = ctx_with_workers(workers);
            let mut op = lower(&plan, &ctx).unwrap();
            let chunks = collect(op.as_mut()).unwrap();
            drop(op);
            let mut out: Vec<(i32, i64)> = chunks
                .iter()
                .flat_map(|ch| {
                    ch.live_positions()
                        .into_iter()
                        .map(|p| (ch.column(0).as_i32()[p], ch.column(1).as_i64()[p]))
                        .collect::<Vec<_>>()
                })
                .collect();
            out.sort_unstable();
            (out, ctx)
        };
        let (seq, _) = run(1);
        let (par, ctx4) = run(4);
        // `d` holds keys 0..3 and the anti join removes 1 and 2.
        assert_eq!(seq, [(0, rows.div_ceil(7) as i64)]);
        assert_eq!(seq, par);
        for i in 0..4 {
            let label = format!("j{i}/map_hash");
            let probers = ctx4.reports().iter().filter(|r| r.label == label).count();
            let label = format!("j{i}");
            let tables = ctx4
                .mem_reports()
                .iter()
                .filter(|r| r.label == label)
                .count();
            assert_eq!((probers, tables), (4, 1), "{label}");
        }
    }

    #[test]
    fn a_join_over_small_tables_plans_no_exchange() {
        // Neither side reaches two morsels: nothing shards, and joins
        // never route — however many workers there are.
        let c = catalog(1000);
        let plan = PlanBuilder::scan(&c, "t", &["k", "v"])
            .hash_join(
                PlanBuilder::scan(&c, "t", &["v as bv", "k as bk"]),
                &[("v", "bv")],
                &["bk"],
                JoinKind::Inner,
                true,
                "j",
            )
            .build()
            .unwrap();
        let mut cfg = ExecConfig::fixed_default();
        cfg.worker_threads = 4;
        let phys = plan_physical(&plan, &cfg).unwrap();
        for (n, fragments) in phys.fragments() {
            assert_eq!((&n.exchange, fragments), (&Exchange::None, 1));
        }
    }

    /// `t(k i32)` of `rows` rows, `k = i % groups`: exact stats make the
    /// group bound of a group-by-`k` aggregate `groups`.
    fn grouped(rows: usize, groups: usize) -> HashMap<String, Arc<Table>> {
        let mut k = ColumnBuilder::with_capacity(DataType::I32, rows);
        (0..rows).for_each(|i| k.push_i32((i % groups) as i32));
        let t = Table::new("t", vec![("k".into(), k.finish())]).unwrap();
        HashMap::from([("t".to_string(), Arc::new(t))])
    }

    #[test]
    fn two_phase_verdict_flips_exactly_at_half_the_input() {
        // 4 fragments of 16-row vectors (256-row morsels; 1023 rows still
        // shard). 128 groups × 4 × 2 = 1024: two-phase over 1024 input
        // rows, routed over 1023.
        let mut cfg = ExecConfig::fixed_default().with_workers(4);
        cfg.vector_size = 16;
        let root = |rows: usize, cfg: &ExecConfig| {
            let c = grouped(rows, 128);
            let plan = PlanBuilder::scan(&c, "t", &["k"])
                .hash_agg(&["k"], vec![count()], "agg")
                .build()
                .unwrap();
            let phys = plan_physical(&plan, cfg).unwrap();
            let (root, fragments) = phys.fragments()[0];
            assert_eq!(root.rows, 128);
            (root.exchange.clone(), fragments, root.instances())
        };
        let (exchange, fragments, instances) = root(1024, &cfg);
        assert!(matches!(exchange, Exchange::Parallel { workers, .. } if workers.get() == 4));
        assert_eq!((fragments, instances), (4, 5));
        let (exchange, fragments, instances) = root(1023, &cfg);
        assert!(matches!(
            exchange,
            Exchange::HashPartition {
                partitions,
                producers,
                ..
            } if (partitions.get(), producers.get()) == (4, 4)
        ));
        assert_eq!((fragments, instances), (1, 4));
        // An explicit partition count routes, whatever the bound says.
        cfg.agg_partitions = 2;
        let (exchange, _, instances) = root(1024, &cfg);
        assert!(matches!(
            exchange,
            Exchange::HashPartition { partitions, .. } if partitions.get() == 2
        ));
        assert_eq!(instances, 2);
    }

    #[test]
    fn a_sum_that_may_overflow_keeps_its_aggregate_routed() {
        // `v` spans [0, 2^60]: 1024 rows could sum past i64, so the
        // analyzer cannot prove a partial's narrowing safe and the
        // aggregate routes, though 4 groups are far below half the input.
        // The data itself sums well inside i64, and both plans agree.
        let rows = 1024;
        let mut k = ColumnBuilder::with_capacity(DataType::I32, rows);
        let mut v = ColumnBuilder::with_capacity(DataType::I64, rows);
        for i in 0..rows {
            k.push_i32((i % 4) as i32);
            v.push_i64(if i == 7 { 1 << 60 } else { i as i64 });
        }
        let t = Table::new(
            "t",
            vec![("k".into(), k.finish()), ("v".into(), v.finish())],
        );
        let c = HashMap::from([("t".to_string(), Arc::new(t.unwrap()))]);
        let plan = PlanBuilder::scan(&c, "t", &["k", "v"])
            .hash_agg(&["k"], vec![count(), sum_i64("v")], "agg")
            .sort(&[asc("k")])
            .build()
            .unwrap();
        let run = |workers: usize| {
            let mut cfg = ExecConfig::fixed_default().with_workers(workers);
            cfg.vector_size = 16;
            let agg = &plan_physical(&plan, &cfg).unwrap().root.children[0];
            let shape = (agg.two_phase(), agg.instances());
            let ctx = QueryContext::new(Arc::new(build_dictionary()), cfg);
            let chunks = collect(lower(&plan, &ctx).unwrap().as_mut()).unwrap();
            let sums: Vec<i64> = chunks
                .iter()
                .flat_map(|c| c.column(2).as_i64().to_vec())
                .collect();
            (shape, sums)
        };
        let (single, sums) = run(1);
        assert_eq!(single, (false, 1));
        let (routed, par) = run(2);
        assert_eq!(routed, (false, 2));
        assert_eq!(par, sums);
        assert_eq!(
            sums[3],
            (1 << 60) + (0..256).map(|i| 4 * i + 3).sum::<i64>() - 7
        );
    }

    #[test]
    fn one_worker_plans_carry_no_exchange_and_no_fragments() {
        let rows = 3 * VECTORS_PER_MORSEL * 1024;
        let c = catalog(rows);
        let plan = four_join_chain(&c)
            .hash_agg(&["k"], vec![count()], "agg")
            .build()
            .unwrap();
        let phys = plan_physical(&plan, &ExecConfig::fixed_default()).unwrap();
        for (n, fragments) in phys.fragments() {
            assert_eq!((&n.exchange, fragments), (&Exchange::None, 1));
        }
    }

    #[test]
    fn fragment_counts_follow_position() {
        let c = catalog(3 * VECTORS_PER_MORSEL * 1024);
        let mut cfg = ExecConfig::fixed_default().with_workers(4);
        let counts = |plan: &LogicalPlan, cfg: &ExecConfig| {
            let phys = plan_physical(plan, cfg).unwrap();
            let nodes = phys.fragments().into_iter();
            let named = nodes.map(|(n, f)| (rules::node_name(n.logical), f));
            named.collect::<Vec<_>>()
        };
        let named = |counts: &[(&str, usize)]| {
            let owned = counts.iter().map(|&(n, f)| (n.to_string(), f));
            owned.collect::<Vec<_>>()
        };
        let sel = || NamedPred::cmp_val("k", CmpKind::Lt, Value::I32(5));
        let join = |build: PlanBuilder, payload: &[&str]| {
            let probe = PlanBuilder::scan(&c, "t", &["k", "v"]).filter(sel(), "sel");
            let join = probe.hash_join(build, &[("k", "bk")], payload, JoinKind::Inner, false, "j");
            join.build().unwrap()
        };
        // A join probing in 4 fragments: the probe path is 4 down to its
        // scan. A 3-row build side runs once; a big one is a chain of its
        // own, topped by its own exchange.
        let small = join(PlanBuilder::scan(&c, "d", &["dk as bk", "dv"]), &["dv"]);
        assert_eq!(
            counts(&small, &cfg),
            named(&[
                ("hash join \"j\"", 4),
                ("scan", 1),
                ("filter \"sel\"", 4),
                ("scan", 4)
            ])
        );
        let big = join(PlanBuilder::scan(&c, "t", &["k as bk", "v as bv"]), &["bv"]);
        let phys = plan_physical(&big, &cfg).unwrap();
        assert!(matches!(
            phys.root.children[0].exchange,
            Exchange::Parallel { .. }
        ));
        assert_eq!(
            counts(&big, &cfg),
            named(&[
                ("hash join \"j\"", 4),
                ("scan", 4),
                ("filter \"sel\"", 4),
                ("scan", 4)
            ])
        );
        // A two-phase aggregate tops its input's chain: its partials are
        // in the fragments.
        let agg = PlanBuilder::scan(&c, "t", &["k", "v"])
            .filter(sel(), "sel")
            .hash_agg(&["k"], vec![count()], "agg")
            .build()
            .unwrap();
        assert!(plan_physical(&agg, &cfg).unwrap().root.two_phase());
        let chain = [("filter \"sel\"", 4), ("scan", 4)];
        let agg_over = |n: usize| [&[("hash aggregation \"agg\"", n)][..], &chain].concat();
        assert_eq!(counts(&agg, &cfg), named(&agg_over(4)));
        // Routed, the aggregate runs once per partition, outside the
        // chain its 4 producers are.
        cfg.agg_partitions = 4;
        assert_eq!(counts(&agg, &cfg), named(&agg_over(1)));
        // One producer is no chain at all.
        cfg.worker_threads = 1;
        cfg.agg_min_partition_groups = 1;
        let phys = plan_physical(&agg, &cfg).unwrap();
        assert!(matches!(
            phys.root.exchange,
            Exchange::HashPartition { producers, .. } if producers.get() == 1
        ));
        assert!(phys.fragments().iter().all(|&(_, f)| f == 1));
    }

    #[test]
    fn sort_resets_order_under_merge_join() {
        // The left input of a merge join is explicitly sorted: everything
        // beneath the Sort is order-insensitive and shards into an
        // arrival-order Parallel union. The right (streaming) side is a
        // clustering-key chain, so it runs serially in scan order.
        let rows = 3 * VECTORS_PER_MORSEL * 1024;
        let c = catalog(rows);
        let left = PlanBuilder::scan(&c, "t", &["v as lv", "k as lk"])
            .filter(
                NamedPred::cmp_val("lv", CmpKind::Lt, Value::I64(50_000)),
                "lsel",
            )
            .sort(&[asc("lv")]);
        let plan = PlanBuilder::scan(&c, "t", &["v", "k"])
            .filter(
                NamedPred::cmp_val("v", CmpKind::Lt, Value::I64(10_000)),
                "rsel",
            )
            .merge_join(left, ("v", "lv"), &["lk"], "mj")
            .build()
            .unwrap();
        let ctx = ctx_with_workers(4);
        let mut op = lower(&plan, &ctx).unwrap();
        let chunks = collect(op.as_mut()).unwrap();
        drop(op);
        assert_eq!(total_rows(&chunks), 10_000);
        let mut last = -1i64;
        for ch in &chunks {
            for p in ch.live_positions() {
                let v = ch.column(0).as_i64()[p];
                assert!(v > last, "merge join output not in key order");
                last = v;
            }
        }
        let count_label = |prefix: &str| {
            ctx.reports()
                .iter()
                .filter(|r| r.label.starts_with(prefix))
                .count()
        };
        assert_eq!(
            count_label("lsel/"),
            4,
            "sort-reset subtree should shard into 4 workers"
        );
        assert_eq!(
            count_label("rsel/"),
            1,
            "clustering-key merge-join input should run serially"
        );
    }

    #[test]
    fn merge_join_inputs_shard_behind_merging_exchange() {
        // A merge join over a table large enough to shard: both inputs
        // are clustering-key chains, so the planner runs them serially —
        // correct, *sorted* results prove the scan order reached the join.
        let rows = 3 * VECTORS_PER_MORSEL * 1024;
        let c = catalog(rows);
        // left: unique keys 0..rows (v is unique and sorted); right: same
        // table filtered — both sorted by v.
        let left = PlanBuilder::scan(&c, "t", &["v as lv", "k as lk"]);
        let plan = PlanBuilder::scan(&c, "t", &["v", "k"])
            .filter(
                NamedPred::cmp_val("v", CmpKind::Lt, Value::I64(10_000)),
                "sel",
            )
            .merge_join(left, ("v", "lv"), &["lk"], "mj")
            .build()
            .unwrap();
        assert_eq!(plan.schema().names(), vec!["v", "k", "lk"]);
        let ctx = ctx_with_workers(4);
        let mut op = lower(&plan, &ctx).unwrap();
        let chunks = collect(op.as_mut()).unwrap();
        drop(op);
        assert_eq!(total_rows(&chunks), 10_000);
        let mut last = -1i64;
        for ch in &chunks {
            for p in ch.live_positions() {
                let v = ch.column(0).as_i64()[p];
                assert!(v > last, "merge join output not in key order");
                last = v;
                assert_eq!(ch.column(1).as_i32()[p], ch.column(2).as_i32()[p]);
            }
        }
        // Both sides ran serially: one filter instance on the right at 4
        // workers, and the kernel saw sorted streams (asserted above).
        let sel_instances = ctx
            .reports()
            .iter()
            .filter(|r| r.label.starts_with("sel/"))
            .count();
        assert_eq!(sel_instances, 1);
    }

    #[test]
    fn only_clustering_key_chains_merge_shard() {
        // The planner's serial verdict rests on the builder's structural
        // check: a key that traces to the scanned table's clustering
        // (first) column runs serially down to the scan; any other key
        // needs a sort, beneath which everything shards freely.
        let rows = 3 * VECTORS_PER_MORSEL * 1024;
        let c = catalog(rows);
        let on_v = PlanBuilder::scan(&c, "t", &["v", "k"])
            .merge_join(
                PlanBuilder::scan(&c, "t", &["v as lv", "k as lk"]),
                ("v", "lv"),
                &["lk"],
                "mj",
            )
            .build()
            .unwrap();
        let serial = |plan: &LogicalPlan, cfg: &ExecConfig| {
            let phys = plan_physical(plan, cfg).unwrap();
            let nodes = phys.fragments();
            nodes
                .iter()
                .all(|(n, fragments)| (&n.exchange, *fragments) == (&Exchange::None, 1))
        };
        // Key 0 (`v`) is the clustering column: at any worker count both
        // inputs run serially, no exchange and one fragment down to the
        // scans.
        let mut cfg = ExecConfig::fixed_default();
        for workers in [1, 2, 4] {
            cfg.worker_threads = workers;
            assert!(serial(&on_v, &cfg), "{workers} workers");
        }
        // Key `k` has no stored order, so the builder demands a sort: the
        // sort input is a sequential node whose own input shards freely.
        let on_k = PlanBuilder::scan(&c, "t", &["k", "v"])
            .sort(&[asc("k")])
            .merge_join(
                PlanBuilder::scan(&c, "d", &["dk", "dv"]),
                ("k", "dk"),
                &["dv"],
                "mj",
            )
            .build()
            .unwrap();
        let phys = plan_physical(&on_k, &cfg).unwrap();
        let sort = &phys.root.children[1];
        assert_eq!(sort.exchange, Exchange::None);
        assert!(matches!(
            sort.children[0].exchange,
            Exchange::Parallel { workers, .. } if workers.get() == 4
        ));
        // A hand-built merge join over an unsorted, non-clustering input
        // has no physical plan: a typed error, not a silently wrong order.
        let LogicalPlan::MergeJoin {
            left,
            right_key,
            payload,
            label,
            schema,
            ..
        } = on_k
        else {
            panic!("expected MergeJoin root");
        };
        let unsorted = LogicalPlan::MergeJoin {
            left,
            right: Box::new(PlanBuilder::scan(&c, "t", &["k", "v"]).build().unwrap()),
            left_key: 0,
            right_key,
            payload,
            label,
            schema,
        };
        assert!(matches!(
            plan_physical(&unsorted, &cfg),
            Err(ExecError::Plan(_))
        ));
    }

    #[test]
    fn join_project_topn_pipeline() {
        let c = catalog(1000);
        let build = PlanBuilder::scan(&c, "d", &["dk", "dv"]);
        let plan = PlanBuilder::scan(&c, "t", &["k", "v"])
            .hash_join(build, &[("k", "dk")], &["dv"], JoinKind::Inner, true, "j")
            .project(
                vec![("k", col("k")), ("score", col("v").add(col("dv")))],
                "proj",
            )
            .top_n(&[desc("score")], 5)
            .build()
            .unwrap();
        let ctx = ctx_with_workers(1);
        let mut op = lower(&plan, &ctx).unwrap();
        let chunks = collect(op.as_mut()).unwrap();
        assert_eq!(total_rows(&chunks), 5);
        let scores = chunks[0].column(1).as_i64();
        for w in scores.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn left_single_join_lowers_with_defaults() {
        let c = catalog(1000);
        let plan = PlanBuilder::scan(&c, "t", &["k", "v"])
            .left_single_join(
                PlanBuilder::scan(&c, "d", &["dk", "dv"]),
                &[("k", "dk")],
                &[("dv", Value::I64(-1))],
                "ls",
            )
            .build()
            .unwrap();
        let ctx = ctx_with_workers(1);
        let mut op = lower(&plan, &ctx).unwrap();
        let chunks = collect(op.as_mut()).unwrap();
        assert_eq!(total_rows(&chunks), 1000);
        for ch in &chunks {
            for p in ch.live_positions() {
                let k = ch.column(0).as_i32()[p];
                let dv = ch.column(2).as_i64()[p];
                assert_eq!(dv, if k < 3 { k as i64 * 100 } else { -1 });
            }
        }
    }

    #[test]
    fn stream_agg_and_expr_lowering() {
        let c = catalog(100);
        let plan = PlanBuilder::scan(&c, "t", &["v"])
            .project(vec![("v2", col("v").mul(lit_i64(2)))], "proj")
            .stream_agg(vec![sum_i64("v2").named("total"), count()], "agg")
            .build()
            .unwrap();
        let ctx = ctx_with_workers(1);
        let mut op = lower(&plan, &ctx).unwrap();
        let ch = op.next().unwrap().unwrap();
        assert_eq!(ch.column(0).as_i64()[0], 99 * 100);
        assert_eq!(ch.column(1).as_i64()[0], 100);
    }
}
