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
//! * **Partitioned aggregation.** A [`LogicalPlan::HashAgg`] over a
//!   sharded chain — or over any input with a large enough proven group
//!   bound — runs as `P` private [`HashAggregate`] instances behind an
//!   [`Exchange::HashPartition`]: producers route tuples by
//!   `hash(group keys) % P`, and the disjoint results union in arrival
//!   order (DESIGN.md §7).
//! * **Ordered inputs.** A [`LogicalPlan::MergeJoin`] needs key-sorted
//!   inputs, and an arrival-order union would break that. Its inputs are
//!   either a sort (which re-establishes order, so everything beneath it
//!   plans freely) or a clustering-key chain, which still shards: morsel
//!   fragments of a first-column-sorted table are each internally sorted,
//!   and [`Exchange::Merge`] K-way-merges them back into one sorted
//!   stream. Any other input is a typed [`ExecError::Plan`].

use std::sync::Arc;

use ma_vector::{MorselQueue, Table, VECTORS_PER_MORSEL};

use crate::analyze::{AnalysisError, Facts};
use crate::config::{DecodeMode, ExecConfig};
use crate::cost::Width;
use crate::ops::exchange::{CHANNEL_DEPTH_PER_WORKER, CHUNKS_PER_MESSAGE};
use crate::ops::{
    HashAggregate, HashJoin, HashPartitionExchange, MergeExchange, MergeJoin, Parallel, Scan,
    Select, SharedBuild, Sort, StreamAggregate,
};
use crate::plan::builder::clustered_key_chain;
use crate::plan::LogicalPlan;
use crate::{cost, BoxOp, ExecError, QueryContext};

/// Lowers a logical plan to a physical operator pipeline:
/// [`plan_physical`] under the context's configuration, then
/// [`instantiate`].
pub fn lower(plan: &LogicalPlan, ctx: &QueryContext) -> Result<BoxOp, ExecError> {
    // Debug builds re-check every invariant lowering relies on through
    // the independent verifier (`crate::verify`), so any test that
    // executes a query also proves its plan well-formed. Release builds
    // skip the walk; CI additionally sweeps all queries across a
    // worker/partition/vector-size matrix (crates/tpch/tests).
    #[cfg(debug_assertions)]
    crate::verify::verify(plan, ctx.config())
        .map_err(|e| ExecError::Plan(format!("plan verification failed: {e}")))?;
    instantiate(&plan_physical(plan, ctx.config())?, ctx)
}

// ---------------------------------------------------------------------------
// the physical plan
// ---------------------------------------------------------------------------

/// A node's position in a pre-order walk of the [`LogicalPlan`] it
/// implements ([`LogicalPlan::children`] order; the root is 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
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
    /// fragments, united in arrival order.
    Parallel {
        /// Worker fragment count.
        workers: usize,
        /// Byte bound of one output chunk of the chain.
        chunk_bytes: u64,
    },
    /// The node tops a clustering-key scan chain compiled into
    /// `producers` morsel fragments, K-way merged on output column `key`.
    Merge {
        /// Producer fragment count.
        producers: usize,
        /// The ascending integer column the merge compares.
        key: usize,
        /// Byte bound of one output chunk of the chain.
        chunk_bytes: u64,
    },
    /// The node (a hash aggregate) runs as `partitions` private
    /// instances; its input is routed to them by key hash, and their
    /// outputs unite in arrival order.
    HashPartition {
        /// Consumer instance count.
        partitions: usize,
        /// Producer threads draining the input into the exchange. `1` is
        /// the input's own pipeline; `n ≥ 2` means the input tops a scan
        /// chain compiled into `n` morsel fragments that route directly
        /// (no exchange of its own).
        producers: usize,
        /// Columns of the input's output the routing hash folds, in order.
        key_cols: Vec<usize>,
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
            | Exchange::Merge { chunk_bytes, .. }
            | Exchange::HashPartition { chunk_bytes, .. } => *chunk_bytes,
        }
    }

    /// The producer threads feeding the exchange.
    pub fn producers(&self) -> usize {
        match self {
            Exchange::None => 0,
            Exchange::Parallel { workers: n, .. }
            | Exchange::Merge { producers: n, .. }
            | Exchange::HashPartition { producers: n, .. } => *n,
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
            Exchange::Parallel { workers: n, .. } | Exchange::Merge { producers: n, .. } => {
                routes(*n, 1)
            }
            Exchange::HashPartition {
                partitions,
                producers,
                ..
            } => routes(*producers, *partitions),
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
    /// How the node's instances are fed and united.
    pub exchange: Exchange,
    /// Worker fragments the node's streaming operator is compiled into:
    /// `n ≥ 2` for a stage of a scan chain sharded `n` ways — from the
    /// chain top (which carries the uniting exchange or routes into a
    /// partitioned aggregate) down the probe path to the scan — and `1`
    /// for everything else. A hash join with `fragments ≥ 2` probes in the
    /// fragments: that many probers over its one build table.
    pub fragments: usize,
    /// Proven upper bound on the rows the node emits. For a hash
    /// aggregate this is its group bound; a hash join reads its build
    /// child's as the build-table reservation hint.
    pub rows: usize,
    /// Proven peak resident bytes of **one** operator instance (0 for
    /// streaming filters and projections).
    pub instance_bytes: u64,
}

impl PhysNode<'_> {
    /// Operator instances [`instantiate`] builds for the node's own
    /// memory-tracked state: one per partition (the probers of an
    /// in-fragment join share one build table).
    pub fn instances(&self) -> usize {
        match self.exchange {
            Exchange::HashPartition { partitions, .. } => partitions.max(1),
            _ => 1,
        }
    }
}

/// The physical plan of one query under one [`ExecConfig`]: what
/// [`instantiate`] builds, [`crate::verify()`] checks, [`crate::cost()`]
/// prices and `explain_physical` renders.
pub struct PhysicalPlan<'a> {
    /// The root node (implements the root of the logical plan).
    pub root: PhysNode<'a>,
}

impl<'a> PhysicalPlan<'a> {
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
}

// ---------------------------------------------------------------------------
// planning
// ---------------------------------------------------------------------------

/// Plans `plan` physically under `cfg`. Pure: spawns nothing and touches
/// no [`QueryContext`]. The only plans it rejects are those with a
/// merge-join input that is neither a sort nor a clustering-key chain
/// (which [`crate::PlanBuilder`] and [`crate::verify()`] reject too).
pub fn plan_physical<'a>(
    plan: &'a LogicalPlan,
    cfg: &ExecConfig,
) -> Result<PhysicalPlan<'a>, ExecError> {
    plan_with_findings(plan, cfg).map(|(phys, _)| phys)
}

/// [`plan_physical`] plus what the abstract interpreter found on the way
/// — the same findings, in the same order, as [`crate::analyze()`] — so
/// [`crate::verify()`] gates on them without interpreting the plan twice.
pub(crate) fn plan_with_findings<'a>(
    plan: &'a LogicalPlan,
    cfg: &ExecConfig,
) -> Result<(PhysicalPlan<'a>, Vec<AnalysisError>), ExecError> {
    let mut planner = Planner {
        cfg,
        workers: cfg.worker_threads.max(1),
        next_id: 0,
        findings: Vec::new(),
    };
    let root = planner.plan(plan, Feed::Free)?.node;
    Ok((PhysicalPlan { root }, planner.findings))
}

/// How a node's consumer takes its output.
#[derive(Clone, Copy, PartialEq)]
enum Feed {
    /// In any order: a shardable chain unites its fragments as they
    /// arrive.
    Free,
    /// Sorted ascending by this output column: a shardable chain merges
    /// its fragments on it.
    Sorted(usize),
    /// Inside the consumer's own fragments (the rest of a sharded chain,
    /// or the routing producers of a partitioned aggregate): no exchange
    /// here or below.
    Inline,
}

/// A planned subtree plus what its parent's bottom-up step consumes.
struct Planned<'a> {
    node: PhysNode<'a>,
    facts: Facts,
    widths: Vec<Width>,
}

struct Planner<'c> {
    cfg: &'c ExecConfig,
    workers: usize,
    next_id: usize,
    findings: Vec<AnalysisError>,
}

impl Planner<'_> {
    /// One bottom-up step per node: inputs first, then the abstract
    /// interpreter's transfer function and the byte model's widths over
    /// their results — each exactly once — and from those the node's
    /// exchange and bounds. How an input is fed is structural (which
    /// chains shard), so it is known before the input's facts are.
    fn plan<'a>(&mut self, plan: &'a LogicalPlan, feed: Feed) -> Result<Planned<'a>, ExecError> {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        // This node tops a chain compiled into worker fragments...
        let sharded = feed != Feed::Inline && self.shardable(plan);
        // ... or is a stage of one.
        let in_fragment = sharded || feed == Feed::Inline;
        // The most instances a hash aggregate here may partition into.
        let fanout = match self.cfg.agg_partitions {
            0 => self.workers,
            p => p,
        };

        let mut children = Vec::new();
        let mut facts = [Facts::default(), Facts::default()];
        let mut widths = [Vec::new(), Vec::new()];
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
                // A partitioned aggregate takes a sharded input's
                // fragments as its exchange's producers (no double
                // exchange); with its input sharded it always partitions.
                LogicalPlan::HashAgg { .. } => {
                    input_sharded = fanout >= 2 && self.shardable(input);
                    if input_sharded {
                        Feed::Inline
                    } else {
                        Feed::Free
                    }
                }
                LogicalPlan::MergeJoin {
                    left_key,
                    right_key,
                    ..
                } => merge_feed(input, if i == 0 { *left_key } else { *right_key }, i)?,
                // Sort re-sorts and a global aggregate folds: their inputs
                // plan freely whatever consumes them.
                _ => Feed::Free,
            };
            let planned = self.plan(input, feed)?;
            children.push(planned.node);
            facts[i] = planned.facts;
            widths[i] = planned.widths;
        }
        let n = children.len();

        let in_widths = [&widths[0][..], &widths[1][..]];
        let facts = crate::analyze::transfer(plan, &mut facts[..n], &mut self.findings);
        let out_widths = cost::node_widths(plan, &in_widths[..n]);
        let chunk = |w: &[Width]| (self.cfg.vector_size as u64).saturating_mul(cost::row_width(w));

        let exchange = match (plan, feed) {
            (_, Feed::Free) if sharded => Exchange::Parallel {
                workers: self.workers,
                chunk_bytes: chunk(&out_widths),
            },
            // Workers claim morsels in increasing row order, so each
            // fragment emits disjoint ascending key ranges and the K-way
            // merge restores the global order exactly.
            (_, Feed::Sorted(key)) if sharded => Exchange::Merge {
                producers: self.workers,
                key,
                chunk_bytes: chunk(&out_widths),
            },
            (LogicalPlan::HashAgg { keys, .. }, _) => {
                // The aggregate's own row bound is its group bound.
                let demand = cost::enc_weighted_demand(facts.rows, in_widths[0], Some(keys));
                let threshold = self.cfg.agg_min_partition_groups;
                let explicit = self.cfg.agg_partitions != 0;
                match agg_partitions(fanout, input_sharded, demand, threshold, explicit) {
                    0 | 1 => Exchange::None,
                    partitions => Exchange::HashPartition {
                        partitions,
                        producers: if input_sharded { self.workers } else { 1 },
                        key_cols: keys.clone(),
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
        let instance_bytes =
            cost::instance_bytes(plan, facts.rows, &inputs[..n], self.cfg.vector_size);
        let node = PhysNode {
            id,
            logical: plan,
            children,
            exchange,
            fragments: if in_fragment { self.workers } else { 1 },
            rows: facts.rows,
            instance_bytes,
        };
        Ok(Planned {
            node,
            facts,
            widths: out_widths,
        })
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
        self.workers > 1 && scan_rows(plan).is_some_and(|rows| rows >= 2 * morsel_rows)
    }
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

/// A merge-join input must arrive sorted ascending by `key`: a sort
/// (beneath which everything plans freely) or a clustering-key chain.
fn merge_feed(input: &LogicalPlan, key: usize, side: usize) -> Result<Feed, ExecError> {
    if matches!(input, LogicalPlan::Sort { .. }) {
        Ok(Feed::Free)
    } else if clustered_key_chain(input, key) {
        Ok(Feed::Sorted(key))
    } else {
        Err(ExecError::Plan(format!(
            "{} merge-join input is neither a sort nor a scan chain carrying its table's \
             clustering order on key column {key}",
            ["left", "right"][side]
        )))
    }
}

// ---------------------------------------------------------------------------
// scan chains: the unit a worker fragment compiles
// ---------------------------------------------------------------------------

/// One stage of a [`ScanChain`] above its scan.
enum Stage<'a> {
    /// A Filter or Project node.
    Stream(&'a LogicalPlan),
    /// A HashJoin node probing in the fragments, and its one build.
    Probe(&'a LogicalPlan, SharedBuild),
}

/// The chain a sharding exchange or a partitioned aggregate's producer
/// set compiles into fragments: Filter, Project and HashJoin-probe stages
/// over a scan.
struct ScanChain<'a> {
    table: &'a Arc<Table>,
    cols: &'a [String],
    /// The nodes above the scan, bottom-up.
    stages: Vec<Stage<'a>>,
}

impl<'a> ScanChain<'a> {
    /// Decomposes the chain `node` tops, following joins down their probe
    /// side and constructing each join stage's build pipeline — once,
    /// whatever the fragment count.
    fn of(node: &PhysNode<'a>, ctx: &QueryContext) -> Result<ScanChain<'a>, ExecError> {
        let mut stages = Vec::new();
        let mut cur = node;
        loop {
            match cur.logical {
                LogicalPlan::Scan { table, cols, .. } => {
                    stages.reverse();
                    return Ok(ScanChain {
                        table,
                        cols,
                        stages,
                    });
                }
                LogicalPlan::Filter { .. } | LogicalPlan::Project { .. } => {
                    stages.push(Stage::Stream(cur.logical));
                    cur = child(cur, 0)?;
                }
                LogicalPlan::HashJoin {
                    build_keys,
                    payload,
                    bloom,
                    label,
                    ..
                } => {
                    let input = child(cur, 0)?;
                    let shared = SharedBuild::new(
                        build(input, ctx)?,
                        build_keys.clone(),
                        payload.clone(),
                        *bloom,
                    )?
                    .with_build_rows(input.rows)
                    .with_tracker(ctx.mem_tracker(label, cur.instance_bytes));
                    stages.push(Stage::Probe(cur.logical, shared));
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
    fn fragments(&self, n: usize, ctx: &QueryContext) -> Result<Vec<BoxOp>, ExecError> {
        let queue = self.queue(ctx);
        (0..n).map(|_| self.fragment(&queue, ctx)).collect()
    }

    /// One worker's fragment: a morsel scan plus the chain's stages, each
    /// with private primitive instances (per-worker bandit state); a join
    /// stage is a prober over the chain's one build of that join.
    fn fragment(&self, queue: &Arc<MorselQueue>, ctx: &QueryContext) -> Result<BoxOp, ExecError> {
        let names: Vec<&str> = self.cols.iter().map(String::as_str).collect();
        let scan = Scan::morsel(
            Arc::clone(self.table),
            &names,
            ctx.vector_size(),
            Arc::clone(queue),
        )?;
        let mut op: BoxOp = Box::new(wire_decoders(scan, self.table, ctx)?);
        for stage in &self.stages {
            op = match stage {
                Stage::Stream(plan) => stream_op(plan, op, ctx)?,
                Stage::Probe(join, shared) => {
                    let LogicalPlan::HashJoin {
                        probe_keys,
                        kind,
                        defaults,
                        label,
                        ..
                    } = join
                    else {
                        unreachable!("probe stages hold HashJoin nodes");
                    };
                    let keys = probe_keys.clone();
                    Box::new(shared.prober(op, keys, *kind, defaults.clone(), ctx, label)?)
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
fn stream_op(plan: &LogicalPlan, input: BoxOp, ctx: &QueryContext) -> Result<BoxOp, ExecError> {
    Ok(match plan {
        LogicalPlan::Filter { pred, label, .. } => Box::new(Select::new(input, pred, ctx, label)?),
        LogicalPlan::Project { items, label, .. } => {
            Box::new(crate::ops::Project::new(input, items.clone(), ctx, label)?)
        }
        _ => unreachable!("stream stages hold only Filter and Project nodes"),
    })
}

/// Attaches flavored decode primitives to a scan over encoded columns
/// (one bandit-adapted [`crate::PrimInstance`] per encoded column, labeled
/// `scan_<table>/<column>/<signature>` so per-worker statistics fold in
/// [`QueryContext::merged_reports`]). Under [`DecodeMode::Reference`] the
/// scan keeps its built-in reference decoders — the differential fuzzer
/// cross-checks the two paths.
fn wire_decoders(scan: Scan, table: &Arc<Table>, ctx: &QueryContext) -> Result<Scan, ExecError> {
    if ctx.config().decode == DecodeMode::Reference {
        return Ok(scan);
    }
    scan.with_context(ctx, &format!("scan_{}", table.name()))
}

// ---------------------------------------------------------------------------
// instantiation
// ---------------------------------------------------------------------------

/// Constructs the operator pipeline `plan` describes, registering one
/// [`crate::MemTracker`] per tracked instance with the bound the node
/// carries. Decides nothing: `ctx` must hold the [`ExecConfig`] the plan
/// was made under.
pub fn instantiate(plan: &PhysicalPlan<'_>, ctx: &QueryContext) -> Result<BoxOp, ExecError> {
    build(&plan.root, ctx)
}

fn child<'p, 'a>(node: &'p PhysNode<'a>, i: usize) -> Result<&'p PhysNode<'a>, ExecError> {
    node.children
        .get(i)
        .ok_or_else(|| ExecError::Plan(format!("physical node {} is missing input {i}", node.id.0)))
}

fn build(node: &PhysNode<'_>, ctx: &QueryContext) -> Result<BoxOp, ExecError> {
    let input = |i: usize| build(child(node, i)?, ctx);
    // All instances of a node share its label, so per-worker and
    // per-partition statistics fold in `QueryContext::merged_reports`.
    Ok(match (node.logical, &node.exchange) {
        (
            _,
            Exchange::Parallel {
                workers,
                chunk_bytes,
            },
        ) => {
            let chain = ScanChain::of(node, ctx)?;
            let queue = chain.queue(ctx);
            let factory = |_worker: usize, _n: usize| chain.fragment(&queue, ctx);
            Box::new(
                Parallel::new(*workers, &factory)?
                    .after_builds(chain.into_builds())
                    .tracked(ctx.mem_tracker("exchange/parallel", *chunk_bytes)),
            )
        }
        (
            _,
            Exchange::Merge {
                producers,
                key,
                chunk_bytes,
            },
        ) => {
            let chain = ScanChain::of(node, ctx)?;
            if chain.stages.iter().any(|s| matches!(s, Stage::Probe(..))) {
                return Err(ExecError::Plan(format!(
                    "physical node {} merges fragments that contain a join",
                    node.id.0
                )));
            }
            Box::new(
                MergeExchange::new(chain.fragments(*producers, ctx)?, *key)?
                    .tracked(ctx.mem_tracker("exchange/merge", *chunk_bytes)),
            )
        }
        (
            LogicalPlan::HashAgg {
                keys, aggs, label, ..
            },
            exchange,
        ) => {
            let instance = |source: BoxOp| -> Result<BoxOp, ExecError> {
                Ok(Box::new(
                    HashAggregate::new(source, keys.clone(), aggs.clone(), ctx, label)?
                        .with_group_bound(node.rows)
                        .with_tracker(ctx.mem_tracker(label, node.instance_bytes)),
                ))
            };
            let Exchange::HashPartition {
                partitions,
                producers,
                key_cols,
                chunk_bytes,
            } = exchange
            else {
                return instance(input(0)?);
            };
            // The producers are the input's morsel fragments or its own
            // pipeline. Group keys are disjoint across partitions, so the
            // arrival-order union of partition outputs *is* the aggregate
            // — no merge step.
            let feed = child(node, 0)?;
            let (producers, builds) = if *producers >= 2 {
                let chain = ScanChain::of(feed, ctx)?;
                (chain.fragments(*producers, ctx)?, chain.into_builds())
            } else {
                (vec![build(feed, ctx)?], Vec::new())
            };
            let consumer = |source: BoxOp, _p: usize| instance(source);
            Box::new(
                HashPartitionExchange::new(producers, key_cols.clone(), *partitions, &consumer)?
                    .after_builds(builds)
                    .tracked(ctx.mem_tracker(format!("{label}/exchange"), *chunk_bytes)),
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
        (LogicalPlan::Scan { table, cols, .. }, _) => {
            let names: Vec<&str> = cols.iter().map(String::as_str).collect();
            let scan = Scan::new(Arc::clone(table), &names, ctx.vector_size())?;
            Box::new(wire_decoders(scan, table, ctx)?)
        }
        (LogicalPlan::Filter { .. } | LogicalPlan::Project { .. }, _) => {
            stream_op(node.logical, input(0)?, ctx)?
        }
        (LogicalPlan::StreamAgg { aggs, label, .. }, _) => {
            Box::new(StreamAggregate::new(input(0)?, aggs.clone(), ctx, label)?)
        }
        (
            LogicalPlan::HashJoin {
                build_keys,
                probe_keys,
                payload,
                kind,
                bloom,
                defaults,
                label,
                ..
            },
            _,
        ) => Box::new(
            HashJoin::new(
                input(0)?,
                input(1)?,
                build_keys.clone(),
                probe_keys.clone(),
                payload.clone(),
                *kind,
                *bloom,
                defaults.clone(),
                ctx,
                label,
            )?
            .with_build_rows(child(node, 0)?.rows)
            .with_tracker(ctx.mem_tracker(label, node.instance_bytes)),
        ),
        (
            LogicalPlan::MergeJoin {
                left_key,
                right_key,
                payload,
                label,
                ..
            },
            _,
        ) => Box::new(MergeJoin::new(
            input(0)?,
            input(1)?,
            *left_key,
            *right_key,
            payload.clone(),
            ctx,
            label,
        )?),
        (LogicalPlan::Sort { keys, limit, .. }, _) => Box::new(
            Sort::new(input(0)?, keys.clone(), *limit, ctx.vector_size())?
                .with_tracker(ctx.mem_tracker("sort", node.instance_bytes)),
        ),
    })
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
        let root = plan_physical(&at, &cfg).unwrap().root;
        assert!(matches!(
            root.exchange,
            Exchange::Parallel { workers: 4, .. }
        ));
        assert_eq!((root.fragments, root.instances()), (4, 1));
        let root = plan_physical(&below, &cfg).unwrap().root;
        assert_eq!(root.exchange, Exchange::None);
        assert_eq!((root.fragments, root.instances()), (1, 1));
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
            let nodes = phys.nodes().into_iter();
            nodes
                .filter(|n| matches!(n.logical, LogicalPlan::HashJoin { .. }))
                .map(|n| (n.exchange.clone(), n.fragments, n.instances()))
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
        assert!(matches!(js[0].0, Exchange::Parallel { workers: 4, .. }));
        assert!(js[1..].iter().all(|j| j.0 == Exchange::None), "{js:?}");
        assert!(js.iter().all(|j| (j.1, j.2) == (4, 1)), "{js:?}");
        assert_eq!(exchanges(&phys), 1);
        // Under an aggregate the fragments route into its exchange
        // directly: one multi-producer HashPartition, every join bare.
        let plan = four_join_chain(&c)
            .hash_agg(&["k"], vec![count()], "agg")
            .build()
            .unwrap();
        let phys = plan_physical(&plan, &cfg).unwrap();
        match &phys.root.exchange {
            Exchange::HashPartition { producers, .. } => assert_eq!(*producers, 4),
            other => panic!("expected a partitioned aggregate, got {other:?}"),
        }
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
        for n in phys.nodes() {
            assert_eq!((&n.exchange, n.fragments), (&Exchange::None, 1));
        }
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
        for n in phys.nodes() {
            assert_eq!((&n.exchange, n.fragments), (&Exchange::None, 1));
        }
    }

    #[test]
    fn sort_resets_order_under_merge_join() {
        // The left input of a merge join is explicitly sorted: everything
        // beneath the Sort is order-insensitive and shards into an
        // arrival-order Parallel union. The right (streaming) side is a
        // clustering-key chain, so it *also* shards — behind a merging
        // exchange that restores key order.
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
            4,
            "clustering-key merge-join input should shard behind a merging exchange"
        );
    }

    #[test]
    fn merge_join_inputs_shard_behind_merging_exchange() {
        // A merge join over a table large enough to shard: both inputs
        // are clustering-key chains, so the planner shards them behind
        // merging exchanges — correct, *sorted* results prove the merge
        // restored the order the join needs.
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
        // Both sides ran sharded: one filter instance per worker on the
        // right, and the kernel still saw sorted streams (asserted above).
        let sel_instances = ctx
            .reports()
            .iter()
            .filter(|r| r.label.starts_with("sel/"))
            .count();
        assert_eq!(sel_instances, 4);
    }

    #[test]
    fn only_clustering_key_chains_merge_shard() {
        // The planner's merge verdict rests on the builder's structural
        // check: only a key that traces to the scanned table's clustering
        // (first) column shards behind a merging exchange.
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
        let input_exchanges = |plan: &LogicalPlan, cfg: &ExecConfig| -> Vec<Exchange> {
            let phys = plan_physical(plan, cfg).unwrap();
            phys.root
                .children
                .iter()
                .map(|c| c.exchange.clone())
                .collect()
        };
        let mut cfg = ExecConfig::fixed_default();
        cfg.worker_threads = 4;
        // Key 0 (`v`) is the clustering column: both inputs shard behind a
        // merge on it.
        for ex in input_exchanges(&on_v, &cfg) {
            assert!(
                matches!(
                    ex,
                    Exchange::Merge {
                        producers: 4,
                        key: 0,
                        ..
                    }
                ),
                "{ex:?}"
            );
        }
        // Single-worker engines never merge-shard.
        cfg.worker_threads = 1;
        assert_eq!(
            input_exchanges(&on_v, &cfg),
            vec![Exchange::None, Exchange::None]
        );
        // Key `k` has no stored order, so the builder demands a sort: the
        // sort input is a sequential node whose own input shards freely.
        cfg.worker_threads = 4;
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
            Exchange::Parallel { workers: 4, .. }
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
