//! The unified exchange layer: every operator that moves tuples between
//! threads lives here, built on one routing/channel/teardown core.
//!
//! * [`Parallel`] runs N copies of a plan fragment on worker threads and
//!   streams their union to the parent (Vectorwise's `Xchg`);
//! * [`HashPartitionExchange`] *repartitions* a set of producer streams
//!   by a key hash so that P consumer pipelines each see a disjoint,
//!   complete key range (Vectorwise's `XchgHashSplit`) — the shape of a
//!   partitioned aggregation;
//! * [`MergeExchange`] K-way-merges key-sorted worker streams back into
//!   one globally sorted stream, so ordered pipelines (merge-join inputs)
//!   can shard too.
//!
//! Each fragment is built by a caller-supplied factory — typically a
//! morsel-driven [`crate::ops::Scan`] over a shared
//! [`ma_vector::MorselQueue`], optionally topped by per-worker `Select` /
//! `Project` stages. Because the factory runs once per worker, every worker
//! owns *its own* primitive instances and therefore its own bandit state;
//! their statistics merge in the shared [`crate::QueryContext`] registry
//! (see DESIGN.md, "Per-worker statistics merge").
//!
//! Fragments are constructed eagerly on the caller thread, so instance
//! creation order — and with it policy seeding — is deterministic. Chunks
//! flow through bounded channels for backpressure; their arrival *order*
//! is nondeterministic, which is fine for the blocking operators
//! (aggregate/sort/join builds) that consume `Parallel` or
//! `HashPartitionExchange` output: results are order-insensitive, as
//! `tests/parallel_determinism.rs` verifies. [`MergeExchange`] is the one
//! exchange that *restores* an order: it keeps one channel per producer
//! (so each producer's internal order survives) and interleaves runs by
//! key on the consuming thread.

use std::sync::mpsc::SyncSender;

use ma_vector::{DataChunk, DataType, SelVec, Vector};

use crate::ops::xrt::{Rt, RtJoinHandle, RtReceiver, RtSender, StdRt};
use crate::ops::{normalize_keys_i64, BoxOp, Operator, SharedBuild};
use crate::plan::PlanError;
use crate::ExecError;

/// Builds one worker's plan fragment. Arguments: worker index, worker
/// count.
pub type FragmentFactory<'a> = dyn Fn(usize, usize) -> Result<BoxOp, ExecError> + 'a;

/// Chunks per channel message. Sending a batch per message amortizes the
/// futex-backed send/recv (which costs microseconds when the peer sleeps)
/// over a morsel's worth of chunks — without this, per-chunk channel
/// overhead eats the parallel gain, and on a single hardware thread (CI
/// containers) it dominates outright.
pub(crate) const CHUNKS_PER_MESSAGE: usize = 8;

/// Batches in flight per worker before producers block. Kept tight: chunks
/// sitting in the channel are chunks evicted from cache, and the
/// vector-at-a-time model lives on produce-then-consume cache residency.
pub(crate) const CHANNEL_DEPTH_PER_WORKER: usize = 2;

pub(crate) type Batch = Result<Vec<DataChunk>, ExecError>;

/// The production union: [`UnionCore`] on OS threads and std channels.
type Union = UnionCore<StdRt>;

/// The receiving half every exchange shares: a bounded batch channel plus
/// the worker threads feeding it. Generic over the [`Rt`] runtime so the
/// model checker (`ops::model_check`) can run the *identical*
/// channel/teardown logic under exhaustively explored schedules.
///
/// `next()` streams buffered chunks, refills from the channel, and — when
/// every sender is gone — joins the workers to reap panics. Dropping a
/// `Union` mid-stream closes the receiver *first*, so workers blocked on a
/// full channel fail their send and exit before the joins run (bounded by
/// one in-flight batch of work per worker).
pub(crate) struct UnionCore<R: Rt> {
    /// `None` once the stream ended (workers joined) — further `next()`
    /// calls return `None`.
    rx: Option<R::Receiver<Batch>>,
    handles: Vec<R::JoinHandle>,
    /// Chunks of the last received batch, drained front to back.
    buffered: std::collections::VecDeque<DataChunk>,
}

impl<R: Rt> UnionCore<R> {
    /// Spawns one worker per operator, all feeding a bounded channel.
    pub(crate) fn spawn(ops: Vec<BoxOp>) -> UnionCore<R> {
        let (tx, rx) = R::sync_channel::<Batch>(ops.len() * CHANNEL_DEPTH_PER_WORKER);
        let handles = ops
            .into_iter()
            .map(|op| {
                let tx = tx.clone();
                R::spawn(move || run_worker(op, &tx))
            })
            .collect();
        UnionCore::over(rx, handles)
    }

    /// A union over an existing channel and worker set.
    pub(crate) fn over(rx: R::Receiver<Batch>, handles: Vec<R::JoinHandle>) -> UnionCore<R> {
        UnionCore {
            rx: Some(rx),
            handles,
            buffered: std::collections::VecDeque::new(),
        }
    }

    /// An already-exhausted union (placeholder during state swaps).
    fn done() -> UnionCore<R> {
        UnionCore {
            rx: None,
            handles: Vec::new(),
            buffered: std::collections::VecDeque::new(),
        }
    }

    pub(crate) fn next(&mut self) -> Result<Option<DataChunk>, ExecError> {
        loop {
            if let Some(chunk) = self.buffered.pop_front() {
                return Ok(Some(chunk));
            }
            let Some(rx) = &self.rx else {
                return Ok(None);
            };
            match rx.recv() {
                Ok(Ok(batch)) => self.buffered.extend(batch),
                Ok(Err(e)) => {
                    // An error is terminal: close the channel (unblocking
                    // the remaining workers) and reap them, so a caller
                    // that polls again sees end-of-stream rather than the
                    // surviving workers' output resuming as if nothing
                    // happened. A concurrent worker *panic* outranks the
                    // error — it is the stronger defect signal.
                    self.rx = None;
                    self.buffered.clear();
                    let mut panic_payload = None;
                    for h in self.handles.drain(..) {
                        if let Err(payload) = h.join() {
                            panic_payload.get_or_insert(payload);
                        }
                    }
                    if let Some(payload) = panic_payload {
                        std::panic::resume_unwind(payload);
                    }
                    return Err(e);
                }
                Err(()) => {
                    // All senders gone: every worker finished. Join to
                    // reap panics.
                    self.rx = None;
                    for h in self.handles.drain(..) {
                        if let Err(payload) = h.join() {
                            std::panic::resume_unwind(payload);
                        }
                    }
                    return Ok(None);
                }
            }
        }
    }
}

impl<R: Rt> Drop for UnionCore<R> {
    fn drop(&mut self) {
        // Close the receiver before joining: blocked senders unblock.
        self.rx = None;
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

enum State {
    /// Fragments built, workers not yet started.
    Pending(Vec<BoxOp>),
    /// Workers running (or finished).
    Running(Union),
}

/// Streaming union over `n` plan-fragment workers.
pub struct Parallel {
    state: State,
    /// Join builds the fragments' probers share, run before they start.
    builds: Vec<SharedBuild>,
    types: Vec<DataType>,
    tracker: Option<crate::adaptive::MemTracker>,
}

impl Parallel {
    /// Builds `workers` fragments via `factory` (all on the calling
    /// thread). Workers start lazily on the first [`Operator::next`] call.
    pub fn new(workers: usize, factory: &FragmentFactory<'_>) -> Result<Self, ExecError> {
        let n = workers.max(1);
        let ops: Vec<BoxOp> = (0..n).map(|w| factory(w, n)).collect::<Result<_, _>>()?;
        let types = same_out_types(&ops, "parallel fragment")?;
        Ok(Parallel {
            state: State::Pending(ops),
            builds: Vec::new(),
            types,
            tracker: None,
        })
    }

    /// Makes the exchange run `builds` — the shared join builds whose
    /// probers sit inside its fragments — before it starts any worker.
    /// They run in order on the thread of the first [`Operator::next`]
    /// call, so every table has one writer, strictly before its readers
    /// exist as threads: no fragment ever waits on a build or sees a
    /// half-built table. A failing build is that call's `Err`, reported
    /// once, and ends the stream for good with no worker started.
    pub fn after_builds(mut self, builds: Vec<SharedBuild>) -> Self {
        self.builds = builds;
        self
    }

    /// Attaches a byte-accounting tracker recording the size of every
    /// chunk this exchange yields (the per-chunk channel-buffer unit the
    /// planner's exchange bound is stated in).
    pub(crate) fn tracked(mut self, tracker: crate::adaptive::MemTracker) -> Self {
        self.tracker = Some(tracker);
        self
    }
}

/// Runs the shared join builds of fragments about to start, on the calling
/// thread; the first failure drops the builds not yet run.
fn run_builds(builds: &mut Vec<SharedBuild>) -> Result<(), ExecError> {
    std::mem::take(builds)
        .into_iter()
        .try_for_each(|mut build| build.run())
}

/// Output types shared by a non-empty operator set (a typed error names
/// the first disagreeing operator).
fn same_out_types(ops: &[BoxOp], what: &str) -> Result<Vec<DataType>, ExecError> {
    let Some(first) = ops.first() else {
        return Err(ExecError::Plan(format!("{what} set is empty")));
    };
    let types = first.out_types().to_vec();
    for (w, op) in ops.iter().enumerate().skip(1) {
        if op.out_types() != types.as_slice() {
            return Err(ExecError::Plan(format!(
                "{what} {w} disagrees on output types"
            )));
        }
    }
    Ok(types)
}

pub(crate) fn run_worker<S: RtSender<Batch>>(mut op: BoxOp, tx: &S) {
    let mut batch = Vec::with_capacity(CHUNKS_PER_MESSAGE);
    loop {
        match op.next() {
            Ok(Some(chunk)) => {
                batch.push(chunk);
                if batch.len() >= CHUNKS_PER_MESSAGE {
                    // A send error means the receiver hung up (parent
                    // dropped mid-stream, e.g. under a Limit): stop
                    // producing.
                    if tx.send(Ok(std::mem::take(&mut batch))).is_err() {
                        return;
                    }
                    batch.reserve(CHUNKS_PER_MESSAGE);
                }
            }
            Ok(None) => {
                if !batch.is_empty() {
                    let _ = tx.send(Ok(batch));
                }
                return;
            }
            Err(e) => {
                if !batch.is_empty() {
                    let _ = tx.send(Ok(std::mem::take(&mut batch)));
                }
                let _ = tx.send(Err(e));
                return;
            }
        }
    }
}

impl Operator for Parallel {
    fn next(&mut self) -> Result<Option<DataChunk>, ExecError> {
        if let State::Pending(_) = self.state {
            let State::Pending(ops) =
                std::mem::replace(&mut self.state, State::Running(Union::done()))
            else {
                unreachable!()
            };
            // On `Err` the state stays the exhausted union: terminal.
            run_builds(&mut self.builds)?;
            self.state = State::Running(Union::spawn(ops));
        }
        let State::Running(union) = &mut self.state else {
            unreachable!()
        };
        let out = union.next()?;
        if let (Some(t), Some(chunk)) = (&self.tracker, &out) {
            t.record(crate::ops::chunk_bytes(chunk));
        }
        Ok(out)
    }

    fn out_types(&self) -> &[DataType] {
        &self.types
    }
}

// ---------------------------------------------------------------------------
// hash-partitioning exchange
// ---------------------------------------------------------------------------

/// Builds one partition's consumer pipeline over its tuple stream.
/// Arguments: the partition's source operator, the partition index.
pub type ConsumerFactory<'a> = dyn Fn(BoxOp, usize) -> Result<BoxOp, ExecError> + 'a;

/// Finalizer of splitmix64: cheap, well-mixed 64-bit hash for routing.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Folds one key column into the per-tuple routing hashes at `positions`.
///
/// The routing hash is deliberately *not* an adaptive primitive: every
/// producer must route a given key to the same partition, and the split
/// must stay identical run to run, so a fixed function is the simple,
/// correct choice. Integer widths normalize through `i64` (consistent with
/// the group tables' key normalization).
fn fold_key_hashes(v: &Vector, positions: &[usize], hashes: &mut [u64]) {
    match v {
        Vector::I16(c) => {
            for &p in positions {
                hashes[p] = splitmix64(hashes[p] ^ (c[p] as i64 as u64));
            }
        }
        Vector::I32(c) => {
            for &p in positions {
                hashes[p] = splitmix64(hashes[p] ^ (c[p] as i64 as u64));
            }
        }
        Vector::I64(c) => {
            for &p in positions {
                hashes[p] = splitmix64(hashes[p] ^ (c[p] as u64));
            }
        }
        Vector::Str(c) => {
            for &p in positions {
                hashes[p] = splitmix64(hashes[p] ^ fnv1a(c.get(p)));
            }
        }
        // Rejected at construction (`HashPartitionExchange::new`).
        Vector::F64(_) => unreachable!("f64 partition keys rejected at construction"),
    }
}

/// Splits `chunk`'s live positions by key hash into `routed` (one ascending
/// position list per partition).
fn route_chunk(
    chunk: &DataChunk,
    key_cols: &[usize],
    hashes: &mut Vec<u64>,
    routed: &mut [Vec<u32>],
) {
    let positions = chunk.live_positions();
    hashes.clear();
    hashes.resize(chunk.len(), 0);
    for &c in key_cols {
        fold_key_hashes(chunk.column(c), &positions, hashes);
    }
    let nparts = routed.len() as u64;
    for &p in &positions {
        routed[(hashes[p] % nparts) as usize].push(p as u32);
    }
}

/// A producer worker that routes every output tuple to its key partition.
///
/// Tuples are split with *selection vectors* over the producer's chunks —
/// columns are `Arc`-shared, never copied — and batched per partition with
/// the same channel discipline as [`Parallel`] workers.
///
/// A consumer may stop before draining its partition (the public
/// [`ConsumerFactory`] contract doesn't forbid it — think a future
/// limit-style consumer): its slot goes *dead* and the worker keeps
/// feeding the live partitions. Only when every partition is dead (parent
/// hung up) does the worker stop early.
fn run_partitioning_worker<S: RtSender<Batch>>(mut op: BoxOp, key_cols: &[usize], txs: Vec<S>) {
    let nparts = txs.len();
    let mut txs: Vec<Option<S>> = txs.into_iter().map(Some).collect();
    let mut batches: Vec<Vec<DataChunk>> = (0..nparts)
        .map(|_| Vec::with_capacity(CHUNKS_PER_MESSAGE))
        .collect();
    let mut hashes: Vec<u64> = Vec::new();
    let mut routed: Vec<Vec<u32>> = vec![Vec::new(); nparts];
    loop {
        match op.next() {
            Ok(Some(chunk)) => {
                route_chunk(&chunk, key_cols, &mut hashes, &mut routed);
                for (pid, positions) in routed.iter_mut().enumerate() {
                    let sel = SelVec::from_positions(std::mem::take(positions));
                    if sel.is_empty() || txs[pid].is_none() {
                        continue;
                    }
                    batches[pid].push(chunk.with_sel(Some(sel)));
                    if batches[pid].len() >= CHUNKS_PER_MESSAGE {
                        send_or_kill(&mut txs, pid, Ok(std::mem::take(&mut batches[pid])));
                    }
                }
                if txs.iter().all(Option::is_none) {
                    return;
                }
            }
            Ok(None) => {
                for (pid, batch) in batches.into_iter().enumerate() {
                    if !batch.is_empty() {
                        send_or_kill(&mut txs, pid, Ok(batch));
                    }
                }
                return;
            }
            Err(e) => {
                // Deliver the error to the first live partition — its
                // consumer forwards it to the union; the others just see
                // their channels close. If every send fails, all consumers
                // are gone and the error is moot.
                let mut payload: Batch = Err(e);
                for tx in txs.iter().flatten() {
                    match tx.send(payload) {
                        Ok(()) => return,
                        Err(p) => payload = p,
                    }
                }
                return;
            }
        }
    }
}

/// Sends to partition `pid`; a failed send (receiver gone) marks the slot
/// dead so routing skips it from then on.
fn send_or_kill<S: RtSender<Batch>>(txs: &mut [Option<S>], pid: usize, msg: Batch) {
    if let Some(tx) = &txs[pid] {
        if tx.send(msg).is_err() {
            txs[pid] = None;
        }
    }
}

/// Source operator of one partition's consumer pipeline: streams the chunk
/// batches the producers routed to this partition (a [`Union`] with no
/// worker handles of its own — the exchange joins the producers).
struct PartitionSource {
    union: Union,
    types: Vec<DataType>,
}

impl Operator for PartitionSource {
    fn next(&mut self) -> Result<Option<DataChunk>, ExecError> {
        self.union.next()
    }

    fn out_types(&self) -> &[DataType] {
        &self.types
    }
}

enum PartState {
    /// Everything built and wired, no thread started yet.
    Pending {
        producers: Vec<BoxOp>,
        /// One sender per partition.
        part_txs: Vec<SyncSender<Batch>>,
        key_cols: Vec<usize>,
        consumers: Vec<BoxOp>,
    },
    /// Producers and consumers running (or finished); consumer outputs
    /// union in arrival order.
    Running(Union),
}

/// Hash-partitioning exchange: N producer fragments route tuples by
/// `hash(key columns) % P` to P consumer pipelines whose outputs union in
/// arrival order.
///
/// Because a key value lands in exactly one partition, a *blocking,
/// key-partitionable* consumer computes its full answer per partition with
/// no final merge step: the union of the P outputs is the result. A hash
/// aggregation is P private `HashAggregate` instances over disjoint
/// complete groups. Each consumer is built by the factory on the caller
/// thread and owns private primitive instances, so bandit state stays
/// per-partition and merges through the registry exactly like per-worker
/// scan state.
pub struct HashPartitionExchange {
    state: PartState,
    /// Join builds the producer fragments' probers share, run before any
    /// thread starts.
    builds: Vec<SharedBuild>,
    types: Vec<DataType>,
    tracker: Option<crate::adaptive::MemTracker>,
}

impl HashPartitionExchange {
    /// Builds the exchange: `producers` are drained concurrently, their
    /// tuples routed by `key_cols` (columns of the producers' output
    /// schema, folded in order) into `partitions` consumer pipelines built
    /// by `consumer` (all construction on the calling thread).
    pub fn new(
        producers: Vec<BoxOp>,
        key_cols: Vec<usize>,
        partitions: usize,
        consumer: &ConsumerFactory<'_>,
    ) -> Result<Self, ExecError> {
        if key_cols.is_empty() {
            return Err(ExecError::Plan(
                "partitioning exchange needs partition key columns".into(),
            ));
        }
        let in_types = same_out_types(&producers, "partition producer")?;
        for &c in &key_cols {
            match in_types.get(c) {
                None => {
                    return Err(ExecError::Plan(format!(
                        "partition key column {c} out of range"
                    )))
                }
                Some(DataType::F64) => {
                    // Typed, not stringly: hand-built plans that smuggle
                    // a float key past the builder get the same error
                    // shape the builder and verifier report.
                    return Err(PlanError::TypeMismatch {
                        context: format!("partition key column {c}"),
                        expected: "hashable key (integer or string)".into(),
                        found: DataType::F64,
                    }
                    .into());
                }
                Some(_) => {}
            }
        }
        let nparts = partitions.max(1);
        let mut part_txs = Vec::with_capacity(nparts);
        let mut consumers = Vec::with_capacity(nparts);
        for p in 0..nparts {
            let (tx, rx) =
                std::sync::mpsc::sync_channel::<Batch>(producers.len() * CHANNEL_DEPTH_PER_WORKER);
            part_txs.push(tx);
            let source = PartitionSource {
                union: Union::over(rx, Vec::new()),
                types: in_types.clone(),
            };
            consumers.push(consumer(Box::new(source), p)?);
        }
        let types = same_out_types(&consumers, "partition consumer")?;
        Ok(HashPartitionExchange {
            state: PartState::Pending {
                producers,
                part_txs,
                key_cols,
                consumers,
            },
            builds: Vec::new(),
            types,
            tracker: None,
        })
    }

    /// [`Parallel::after_builds`] for the producer fragments.
    pub fn after_builds(mut self, builds: Vec<SharedBuild>) -> Self {
        self.builds = builds;
        self
    }

    /// Attaches a byte-accounting tracker recording the size of every
    /// chunk this exchange yields (the per-chunk channel-buffer unit the
    /// planner's exchange bound is stated in).
    pub(crate) fn tracked(mut self, tracker: crate::adaptive::MemTracker) -> Self {
        self.tracker = Some(tracker);
        self
    }

    /// Spawns the producers (routing) and the consumers, returning their
    /// union.
    ///
    /// On drop, the [`Union`] closes the consumer-output receiver first:
    /// consumers blocked sending fail and exit, dropping their partition
    /// receivers, which in turn unblocks any producer mid-send — the joins
    /// are bounded by in-flight batches.
    fn start(
        producers: Vec<BoxOp>,
        part_txs: Vec<SyncSender<Batch>>,
        key_cols: &[usize],
        consumers: Vec<BoxOp>,
    ) -> Union {
        let (union_tx, union_rx) =
            std::sync::mpsc::sync_channel::<Batch>(consumers.len() * CHANNEL_DEPTH_PER_WORKER);
        let mut handles = Vec::new();
        for op in producers {
            let txs = part_txs.clone();
            let keys = key_cols.to_vec();
            handles.push(std::thread::spawn(move || {
                run_partitioning_worker(op, &keys, txs)
            }));
        }
        // Drop the construction-time senders so the partition channels
        // close once every producer finishes.
        drop(part_txs);
        for op in consumers {
            let tx = union_tx.clone();
            handles.push(std::thread::spawn(move || run_worker(op, &tx)));
        }
        Union::over(union_rx, handles)
    }
}

impl Operator for HashPartitionExchange {
    fn next(&mut self) -> Result<Option<DataChunk>, ExecError> {
        if let PartState::Pending { .. } = self.state {
            let PartState::Pending {
                producers,
                part_txs,
                key_cols,
                consumers,
            } = std::mem::replace(&mut self.state, PartState::Running(Union::done()))
            else {
                unreachable!()
            };
            // On `Err` the state stays the exhausted union: terminal.
            run_builds(&mut self.builds)?;
            let union = HashPartitionExchange::start(producers, part_txs, &key_cols, consumers);
            self.state = PartState::Running(union);
        }
        let PartState::Running(union) = &mut self.state else {
            unreachable!()
        };
        let out = union.next()?;
        if let (Some(t), Some(chunk)) = (&self.tracker, &out) {
            t.record(crate::ops::chunk_bytes(chunk));
        }
        Ok(out)
    }

    fn out_types(&self) -> &[DataType] {
        &self.types
    }
}

// ---------------------------------------------------------------------------
// merging exchange
// ---------------------------------------------------------------------------

/// One producer's stream state inside a [`MergeExchange`]: its private
/// channel/worker (a one-handle [`Union`], so the channel and teardown
/// discipline is the shared one) plus the head chunk being merged.
struct MergeSource {
    union: Union,
    head: Option<MergeHead>,
    done: bool,
}

/// The front chunk of one producer stream.
struct MergeHead {
    chunk: DataChunk,
    /// Live positions of `chunk`, ascending.
    positions: Vec<u32>,
    /// Normalized key per *row* of `chunk` (indexed by position).
    keys: Vec<i64>,
    /// Next position index to emit.
    idx: usize,
}

impl MergeHead {
    fn key_at(&self, i: usize) -> i64 {
        self.keys[self.positions[i] as usize]
    }

    fn head_key(&self) -> i64 {
        self.key_at(self.idx)
    }
}

enum MergeState {
    Pending(Vec<BoxOp>),
    Running(Vec<MergeSource>),
    /// Terminal (exhausted or failed): further `next()` returns `None`.
    Done,
}

/// Merging exchange: K-way-merges `n` *key-sorted* producer streams into
/// one globally sorted stream.
///
/// Each producer keeps a private channel so its internal order survives
/// transport (a shared arrival-order union would destroy it). The merge
/// runs on the consuming thread: among the current head chunks it picks
/// the source with the smallest key and emits that source's maximal *run*
/// of positions whose keys don't exceed any other head's key — one
/// selection vector over the `Arc`-shared source chunk, no copying. With
/// morsel-sharded scans over a clustering-key-ordered table each worker
/// stream is a sequence of disjoint ascending ranges, so runs are long
/// (typically whole morsels) and the merge is cheap.
///
/// Keys may repeat across producers (the right side of a merge join);
/// equal keys are emitted source-by-source, which keeps the output
/// non-decreasing — all any order-sensitive consumer requires. Producers
/// must each be internally sorted ascending by the key column; the planner
/// only builds this exchange over chains whose key traces to the scanned
/// table's clustering column (`Exchange::Merge` in `plan::plan_physical`).
pub struct MergeExchange {
    state: MergeState,
    key_col: usize,
    types: Vec<DataType>,
    tracker: Option<crate::adaptive::MemTracker>,
}

impl MergeExchange {
    /// Builds the exchange over `producers`, merging on the integer column
    /// `key_col` (ascending). Workers start lazily on the first
    /// [`Operator::next`] call.
    pub fn new(producers: Vec<BoxOp>, key_col: usize) -> Result<Self, ExecError> {
        let types = same_out_types(&producers, "merge producer")?;
        match types.get(key_col) {
            None => {
                return Err(ExecError::Plan(format!(
                    "merge key column {key_col} out of range"
                )))
            }
            Some(DataType::I16 | DataType::I32 | DataType::I64) => {}
            Some(other) => {
                return Err(ExecError::Plan(format!(
                    "merge key must be an integer column, got {other}"
                )))
            }
        }
        Ok(MergeExchange {
            state: MergeState::Pending(producers),
            key_col,
            types,
            tracker: None,
        })
    }

    /// Attaches a byte-accounting tracker recording the size of every
    /// chunk this exchange yields (the per-chunk channel-buffer unit the
    /// planner's exchange bound is stated in).
    pub(crate) fn tracked(mut self, tracker: crate::adaptive::MemTracker) -> Self {
        self.tracker = Some(tracker);
        self
    }

    /// Spawns one worker (and private channel) per producer.
    fn start(producers: Vec<BoxOp>) -> Vec<MergeSource> {
        producers
            .into_iter()
            .map(|op| {
                let (tx, rx) = std::sync::mpsc::sync_channel::<Batch>(CHANNEL_DEPTH_PER_WORKER);
                let handle = std::thread::spawn(move || run_worker(op, &tx));
                MergeSource {
                    union: Union::over(rx, vec![handle]),
                    head: None,
                    done: false,
                }
            })
            .collect()
    }

    /// Pulls the next run from the merged streams (`None` when all
    /// producers are exhausted).
    fn merge_next(
        sources: &mut [MergeSource],
        key_col: usize,
    ) -> Result<Option<DataChunk>, ExecError> {
        // Refill: every non-finished source must expose a head before any
        // run is chosen — without its next key, no bound on the run is
        // known. The blocking recv is safe: producers run independently.
        for s in sources.iter_mut() {
            while s.head.is_none() && !s.done {
                match s.union.next()? {
                    Some(chunk) => {
                        if chunk.live_count() == 0 {
                            continue;
                        }
                        let positions: Vec<u32> =
                            chunk.live_positions().iter().map(|&p| p as u32).collect();
                        let mut keys = Vec::new();
                        normalize_keys_i64(chunk.column(key_col), &mut keys);
                        s.head = Some(MergeHead {
                            chunk,
                            positions,
                            keys,
                            idx: 0,
                        });
                    }
                    None => s.done = true,
                }
            }
        }
        // The source with the smallest head key emits; its run may extend
        // while its keys don't exceed any other head's key.
        let mut best: Option<(i64, usize)> = None;
        let mut limit = i64::MAX;
        for (i, s) in sources.iter().enumerate() {
            if let Some(h) = &s.head {
                let k = h.head_key();
                match best {
                    Some((bk, _)) if bk <= k => limit = limit.min(k),
                    _ => {
                        if let Some((bk, _)) = best {
                            limit = limit.min(bk);
                        }
                        best = Some((k, i));
                    }
                }
            }
        }
        let Some((_, si)) = best else {
            return Ok(None);
        };
        let s = &mut sources[si];
        let h = s.head.as_mut().expect("best source has a head");
        let start = h.idx;
        while h.idx < h.positions.len() && h.key_at(h.idx) <= limit {
            h.idx += 1;
        }
        let run = h.positions[start..h.idx].to_vec();
        let out = h.chunk.with_sel(Some(SelVec::from_positions(run)));
        if h.idx >= h.positions.len() {
            s.head = None;
        }
        Ok(Some(out))
    }
}

impl Operator for MergeExchange {
    fn next(&mut self) -> Result<Option<DataChunk>, ExecError> {
        if let MergeState::Pending(_) = self.state {
            let MergeState::Pending(producers) =
                std::mem::replace(&mut self.state, MergeState::Done)
            else {
                unreachable!()
            };
            self.state = MergeState::Running(MergeExchange::start(producers));
        }
        let MergeState::Running(sources) = &mut self.state else {
            return Ok(None);
        };
        match MergeExchange::merge_next(sources, self.key_col) {
            Ok(Some(chunk)) => {
                if let Some(t) = &self.tracker {
                    t.record(crate::ops::chunk_bytes(&chunk));
                }
                Ok(Some(chunk))
            }
            Ok(None) => {
                self.state = MergeState::Done;
                Ok(None)
            }
            Err(e) => {
                // Terminal, like the union's error discipline: further
                // polling reports end-of-stream. Dropping the sources
                // closes the surviving producers' channels.
                self.state = MergeState::Done;
                Err(e)
            }
        }
    }

    fn out_types(&self) -> &[DataType] {
        &self.types
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{collect, total_rows, Scan};
    use ma_vector::{ColumnBuilder, MorselQueue, Table, VECTOR_SIZE};
    use std::sync::Arc;

    fn table(n: usize) -> Arc<Table> {
        let mut a = ColumnBuilder::with_capacity(DataType::I64, n);
        for i in 0..n {
            a.push_i64(i as i64);
        }
        Arc::new(Table::new("t", vec![("a".into(), a.finish())]).unwrap())
    }

    #[test]
    fn union_covers_every_row_exactly_once() {
        let t = table(10 * VECTOR_SIZE + 37);
        let rows = t.rows();
        let queue = Arc::new(MorselQueue::with_morsel(rows, VECTOR_SIZE));
        let factory = move |_w: usize, _n: usize| -> Result<BoxOp, ExecError> {
            Ok(Box::new(Scan::morsel(
                Arc::clone(&t),
                &["a"],
                VECTOR_SIZE,
                Arc::clone(&queue),
            )?))
        };
        let mut par = Parallel::new(4, &factory).unwrap();
        assert_eq!(par.out_types(), &[DataType::I64]);
        let chunks = collect(&mut par).unwrap();
        assert_eq!(total_rows(&chunks), rows);
        let mut vals: Vec<i64> = chunks
            .iter()
            .flat_map(|c| c.column(0).as_i64().to_vec())
            .collect();
        vals.sort_unstable();
        assert!(vals.iter().enumerate().all(|(i, &v)| v == i as i64));
    }

    #[test]
    fn single_worker_matches_plain_scan() {
        let t = table(3000);
        let queue = Arc::new(MorselQueue::new(t.rows()));
        let t2 = Arc::clone(&t);
        let factory = move |_w: usize, _n: usize| -> Result<BoxOp, ExecError> {
            Ok(Box::new(Scan::morsel(
                Arc::clone(&t2),
                &["a"],
                1024,
                Arc::clone(&queue),
            )?))
        };
        let mut par = Parallel::new(1, &factory).unwrap();
        let got = collect(&mut par).unwrap();
        let mut plain = Scan::new(t, &["a"], 1024).unwrap();
        let want = collect(&mut plain).unwrap();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.column(0).as_i64(), w.column(0).as_i64());
        }
    }

    #[test]
    fn factory_error_surfaces_at_construction() {
        let t = table(10);
        let factory = move |w: usize, _n: usize| -> Result<BoxOp, ExecError> {
            if w == 2 {
                Err(ExecError::Plan("boom".into()))
            } else {
                Ok(Box::new(Scan::new(Arc::clone(&t), &["a"], 16)?))
            }
        };
        assert!(Parallel::new(4, &factory).is_err());
    }

    #[test]
    fn drop_mid_stream_does_not_hang() {
        let t = table(64 * VECTOR_SIZE);
        let queue = Arc::new(MorselQueue::with_morsel(t.rows(), VECTOR_SIZE));
        let factory = move |_w: usize, _n: usize| -> Result<BoxOp, ExecError> {
            Ok(Box::new(Scan::morsel(
                Arc::clone(&t),
                &["a"],
                VECTOR_SIZE,
                Arc::clone(&queue),
            )?))
        };
        let mut par = Parallel::new(4, &factory).unwrap();
        let first = par.next().unwrap();
        assert!(first.is_some());
        drop(par); // workers blocked on a full channel must unblock
    }

    // --- HashPartitionExchange ---------------------------------------------

    /// A consumer that counts its partition's tuples into one output row
    /// `(partition, count, keymod_sum)` — enough to check routing without
    /// dragging the aggregate operator into exchange tests.
    struct CountConsumer {
        child: BoxOp,
        partition: i64,
        types: Vec<DataType>,
        done: bool,
    }

    impl Operator for CountConsumer {
        fn next(&mut self) -> Result<Option<DataChunk>, ExecError> {
            if self.done {
                return Ok(None);
            }
            let mut count = 0i64;
            let mut sum = 0i64;
            while let Some(chunk) = self.child.next()? {
                for p in chunk.live_positions() {
                    count += 1;
                    sum += chunk.column(0).as_i64()[p];
                }
            }
            self.done = true;
            Ok(Some(DataChunk::new(vec![
                Arc::new(Vector::I64(vec![self.partition])),
                Arc::new(Vector::I64(vec![count])),
                Arc::new(Vector::I64(vec![sum])),
            ])))
        }

        fn out_types(&self) -> &[DataType] {
            &self.types
        }
    }

    fn morsel_producers(t: &Arc<Table>, workers: usize) -> Vec<BoxOp> {
        let queue = Arc::new(MorselQueue::with_morsel(t.rows(), VECTOR_SIZE));
        (0..workers)
            .map(|_| -> Result<BoxOp, ExecError> {
                Ok(Box::new(Scan::morsel(
                    Arc::clone(t),
                    &["a"],
                    VECTOR_SIZE,
                    Arc::clone(&queue),
                )?))
            })
            .collect::<Result<_, _>>()
            .unwrap()
    }

    fn partitioned_counts(workers: usize, partitions: usize, rows: usize) -> Vec<(i64, i64, i64)> {
        let t = table(rows);
        let producers = morsel_producers(&t, workers);
        let consumer = |child: BoxOp, p: usize| -> Result<BoxOp, ExecError> {
            Ok(Box::new(CountConsumer {
                child,
                partition: p as i64,
                types: vec![DataType::I64; 3],
                done: false,
            }))
        };
        let mut ex = HashPartitionExchange::new(producers, vec![0], partitions, &consumer).unwrap();
        let chunks = collect(&mut ex).unwrap();
        let mut out: Vec<(i64, i64, i64)> = chunks
            .iter()
            .map(|c| {
                (
                    c.column(0).as_i64()[0],
                    c.column(1).as_i64()[0],
                    c.column(2).as_i64()[0],
                )
            })
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn partitions_cover_every_tuple_exactly_once() {
        let rows = 7 * VECTOR_SIZE + 13;
        let got = partitioned_counts(3, 4, rows);
        assert_eq!(got.len(), 4);
        let total: i64 = got.iter().map(|&(_, c, _)| c).sum();
        assert_eq!(total as usize, rows);
        let sum: i64 = got.iter().map(|&(_, _, s)| s).sum();
        assert_eq!(sum as usize, rows * (rows - 1) / 2);
        // With unique keys and a mixing hash, no partition should be empty.
        assert!(got.iter().all(|&(_, c, _)| c > 0));
    }

    #[test]
    fn routing_is_producer_count_invariant() {
        // The per-partition tuple multiset depends only on the key hash,
        // never on which producer saw the tuple.
        let rows = 5 * VECTOR_SIZE + 99;
        assert_eq!(
            partitioned_counts(1, 4, rows),
            partitioned_counts(4, 4, rows)
        );
    }

    #[test]
    fn partitioned_exchange_rejects_bad_keys() {
        let t = table(16);
        let mk =
            || -> Vec<BoxOp> { vec![Box::new(Scan::new(Arc::clone(&t), &["a"], 16).unwrap())] };
        let consumer = |src: BoxOp, _p: usize| -> Result<BoxOp, ExecError> { Ok(src) };
        assert!(HashPartitionExchange::new(mk(), vec![], 2, &consumer).is_err());
        assert!(HashPartitionExchange::new(mk(), vec![3], 2, &consumer).is_err());
        assert!(HashPartitionExchange::new(Vec::new(), vec![0], 2, &consumer).is_err());
    }

    /// An f64 partition key is a *typed* construction-time error
    /// (`PlanError::TypeMismatch`), not a key-normalization panic on a
    /// worker thread mid-query.
    #[test]
    fn partitioned_exchange_rejects_float_key_with_typed_error() {
        let n = 16;
        let mut f = ColumnBuilder::with_capacity(DataType::F64, n);
        for i in 0..n {
            f.push_f64(i as f64);
        }
        let t = Arc::new(Table::new("tf", vec![("f".into(), f.finish())]).unwrap());
        let consumer = |src: BoxOp, _p: usize| -> Result<BoxOp, ExecError> { Ok(src) };
        let producers = vec![Box::new(Scan::new(t, &["f"], 16).unwrap()) as BoxOp];
        match HashPartitionExchange::new(producers, vec![0], 2, &consumer) {
            Err(ExecError::Plan(msg)) => {
                assert!(msg.contains("hashable key"), "unexpected message: {msg}");
                assert!(msg.contains("f64"), "unexpected message: {msg}");
            }
            Ok(_) => panic!("f64 partition key must be rejected"),
            Err(other) => panic!("expected a plan error, got {other}"),
        }
    }

    #[test]
    fn partitioned_drop_mid_stream_does_not_hang() {
        let rows = 64 * VECTOR_SIZE;
        let t = table(rows);
        let producers = morsel_producers(&t, 2);
        // Pass-through consumers so chunks stream (not block) to the union.
        let consumer = |src: BoxOp, _p: usize| -> Result<BoxOp, ExecError> { Ok(src) };
        let mut ex = HashPartitionExchange::new(producers, vec![0], 2, &consumer).unwrap();
        assert!(ex.next().unwrap().is_some());
        drop(ex); // blocked producers/consumers must unblock
    }

    #[test]
    fn early_exiting_consumer_does_not_truncate_other_partitions() {
        // A consumer may stop before draining its partition; the producers
        // must keep feeding the remaining partitions in full.
        let rows = 9 * VECTOR_SIZE + 5;
        let reference = partitioned_counts(2, 4, rows);
        let t = table(rows);
        let producers = morsel_producers(&t, 2);
        /// Immediately reports end-of-stream without draining its input.
        struct EarlyExit(Vec<DataType>);
        impl Operator for EarlyExit {
            fn next(&mut self) -> Result<Option<DataChunk>, ExecError> {
                Ok(None)
            }
            fn out_types(&self) -> &[DataType] {
                &self.0
            }
        }
        let consumer = |child: BoxOp, p: usize| -> Result<BoxOp, ExecError> {
            if p == 0 {
                Ok(Box::new(EarlyExit(vec![DataType::I64; 3])))
            } else {
                Ok(Box::new(CountConsumer {
                    child,
                    partition: p as i64,
                    types: vec![DataType::I64; 3],
                    done: false,
                }))
            }
        };
        let mut ex = HashPartitionExchange::new(producers, vec![0], 4, &consumer).unwrap();
        let chunks = collect(&mut ex).unwrap();
        let mut got: Vec<(i64, i64, i64)> = chunks
            .iter()
            .map(|c| {
                (
                    c.column(0).as_i64()[0],
                    c.column(1).as_i64()[0],
                    c.column(2).as_i64()[0],
                )
            })
            .collect();
        got.sort_unstable();
        // Partitions 1..3 must match the all-consumers reference exactly
        // (routing is deterministic); partition 0's tuples are dropped by
        // its consumer, not rerouted.
        assert_eq!(got, reference[1..].to_vec());
    }

    #[test]
    fn error_terminates_stream_for_good() {
        // After a fragment error surfaces, further polling must report
        // end-of-stream, not resume the surviving workers' output.
        struct FailAfter(usize, Vec<DataType>);
        impl Operator for FailAfter {
            fn next(&mut self) -> Result<Option<DataChunk>, ExecError> {
                if self.0 == 0 {
                    return Err(ExecError::Plan("injected".into()));
                }
                self.0 -= 1;
                Ok(Some(DataChunk::new(vec![Arc::new(Vector::I64(vec![1]))])))
            }
            fn out_types(&self) -> &[DataType] {
                &self.1
            }
        }
        let factory = |w: usize, _n: usize| -> Result<BoxOp, ExecError> {
            // Worker 0 fails fast; the others would happily stream forever.
            let budget = if w == 0 { 2 } else { usize::MAX };
            Ok(Box::new(FailAfter(budget, vec![DataType::I64])))
        };
        let mut par = Parallel::new(3, &factory).unwrap();
        let err = loop {
            match par.next() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("stream ended without surfacing the error"),
                Err(e) => break e,
            }
        };
        assert!(err.to_string().contains("injected"));
        assert!(par.next().unwrap().is_none(), "stream must stay terminated");
        assert!(par.next().unwrap().is_none());
    }

    // --- shared join builds -------------------------------------------------

    /// `n` probers of `shared` (anti joins: an empty table passes every
    /// tuple) over morsel scans of `t`.
    fn probers(
        shared: &SharedBuild,
        t: &Arc<Table>,
        n: usize,
        ctx: &crate::QueryContext,
    ) -> Vec<BoxOp> {
        let probes = morsel_producers(t, n).into_iter();
        probes
            .map(|probe| -> BoxOp {
                let kind = crate::ops::JoinKind::Anti;
                Box::new(
                    shared
                        .prober(probe, vec![0], kind, vec![], ctx, "j")
                        .unwrap(),
                )
            })
            .collect()
    }

    /// A [`Parallel`] over ready-made fragments.
    fn parallel_over(fragments: Vec<BoxOp>) -> Parallel {
        let n = fragments.len();
        let fragments = std::sync::Mutex::new(fragments);
        Parallel::new(n, &|_, _| Ok(fragments.lock().unwrap().pop().unwrap())).unwrap()
    }

    fn test_ctx() -> crate::QueryContext {
        let dict = Arc::new(ma_primitives::build_dictionary());
        crate::QueryContext::new(dict, crate::ExecConfig::fixed_default())
    }

    /// Yields `budget` one-row chunks, then fails with a typed error. With
    /// a `gate`, the first poll announces itself on `started` and blocks
    /// until the gate's sender is gone.
    struct FailingBuild {
        budget: usize,
        gate: Option<(SyncSender<()>, std::sync::mpsc::Receiver<()>)>,
    }

    impl Operator for FailingBuild {
        fn next(&mut self) -> Result<Option<DataChunk>, ExecError> {
            if let Some((started, gate)) = self.gate.take() {
                started.send(()).unwrap();
                assert!(gate.recv().is_err(), "the gate only ever closes");
            }
            if self.budget == 0 {
                return Err(ExecError::UnknownPrimitive("injected".into()));
            }
            self.budget -= 1;
            Ok(Some(DataChunk::new(vec![Arc::new(Vector::I64(vec![1]))])))
        }
        fn out_types(&self) -> &[DataType] {
            &[DataType::I64]
        }
    }

    #[test]
    fn failing_shared_build_reports_once_and_ends_the_stream() {
        // The build child of a join probing in 4 fragments fails. The
        // thread starting the fragments runs the build, so it alone sees
        // the error — the original typed one — and no fragment ever
        // starts over the table that was never published.
        let ctx = test_ctx();
        let t = table(8 * VECTOR_SIZE);
        let failing = || -> BoxOp {
            Box::new(FailingBuild {
                budget: 3,
                gate: None,
            })
        };
        let assert_reports_once = |op: &mut dyn Operator| {
            match op.next() {
                Err(ExecError::UnknownPrimitive(m)) => assert_eq!(m, "injected"),
                other => panic!("expected the build's typed error, got {other:?}"),
            }
            assert!(op.next().unwrap().is_none(), "stream must stay terminated");
            assert!(op.next().unwrap().is_none());
        };

        let shared = SharedBuild::new(failing(), vec![0], vec![], false).unwrap();
        let mut par = parallel_over(probers(&shared, &t, 4, &ctx)).after_builds(vec![shared]);
        assert_reports_once(&mut par);

        // Same contract where the fragments route into a partitioned
        // consumer directly.
        let shared = SharedBuild::new(failing(), vec![0], vec![], false).unwrap();
        let producers = probers(&shared, &t, 4, &ctx);
        let consumer = |src: BoxOp, _p: usize| -> Result<BoxOp, ExecError> { Ok(src) };
        let mut ex = HashPartitionExchange::new(producers, vec![0], 2, &consumer)
            .unwrap()
            .after_builds(vec![shared]);
        assert_reports_once(&mut ex);
    }

    #[test]
    fn drop_during_a_shared_build_does_not_hang() {
        // An exchange running a shared build sits inside a fragment of an
        // outer exchange that is dropped mid-build: the outer drop joins
        // that fragment, which must come back — build finished or failed,
        // inner workers reaped — rather than wait on anyone.
        let ctx = test_ctx();
        let t = table(8 * VECTOR_SIZE);
        let (started_tx, started) = std::sync::mpsc::sync_channel(1);
        let (gate_tx, gate) = std::sync::mpsc::sync_channel(1);
        let build = FailingBuild {
            budget: 200,
            gate: Some((started_tx, gate)),
        };
        let shared = SharedBuild::new(Box::new(build), vec![0], vec![], false).unwrap();
        let building = parallel_over(probers(&shared, &t, 2, &ctx)).after_builds(vec![shared]);
        let mut outer = parallel_over(vec![Box::new(building), Box::new(Replay::over(&[7], 1))]);
        // The replay fragment's chunk arrives; the other fragment is in
        // its build, one poll in and held there until the gate closes.
        assert!(outer.next().unwrap().is_some());
        started.recv().unwrap();
        drop(gate_tx);
        drop(outer);
    }

    #[test]
    fn splitmix_mixes_and_fnv_differs() {
        assert_ne!(splitmix64(0), splitmix64(1));
        assert_ne!(fnv1a("a"), fnv1a("b"));
        assert_eq!(fnv1a("abc"), fnv1a("abc"));
    }

    // --- MergeExchange ------------------------------------------------------

    /// Replays a fixed chunk list (a stand-in for a sorted worker stream).
    struct Replay {
        chunks: std::collections::VecDeque<DataChunk>,
        types: Vec<DataType>,
    }

    impl Replay {
        fn over(values: &[i64], chunk_rows: usize) -> Replay {
            let chunks = values
                .chunks(chunk_rows.max(1))
                .map(|c| DataChunk::new(vec![Arc::new(Vector::I64(c.to_vec()))]))
                .collect();
            Replay {
                chunks,
                types: vec![DataType::I64],
            }
        }
    }

    impl Operator for Replay {
        fn next(&mut self) -> Result<Option<DataChunk>, ExecError> {
            Ok(self.chunks.pop_front())
        }
        fn out_types(&self) -> &[DataType] {
            &self.types
        }
    }

    fn merged_values(streams: &[Vec<i64>], chunk_rows: usize) -> Vec<i64> {
        let producers: Vec<BoxOp> = streams
            .iter()
            .map(|s| Box::new(Replay::over(s, chunk_rows)) as BoxOp)
            .collect();
        let mut ex = MergeExchange::new(producers, 0).unwrap();
        let chunks = collect(&mut ex).unwrap();
        chunks
            .iter()
            .flat_map(|c| {
                c.live_positions()
                    .into_iter()
                    .map(|p| c.column(0).as_i64()[p])
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    #[test]
    fn merge_interleaves_disjoint_ranges() {
        // Morsel-style streams: each producer holds disjoint ascending
        // ranges of a globally sorted table.
        let streams = vec![
            vec![0, 1, 2, 10, 11, 12, 30, 31],
            vec![3, 4, 5, 20, 21, 22],
            vec![6, 7, 8, 9, 23, 24, 25],
        ];
        let got = merged_values(&streams, 3);
        let mut want: Vec<i64> = streams.iter().flatten().copied().collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn merge_handles_duplicates_across_producers() {
        // Equal keys straddling producer boundaries (a duplicate-key run
        // split across morsels) must merge into a non-decreasing stream
        // with nothing lost.
        let streams = vec![vec![1, 2, 2, 2, 5, 5], vec![2, 2, 3, 5, 7], vec![2, 5, 5]];
        let got = merged_values(&streams, 2);
        let mut want: Vec<i64> = streams.iter().flatten().copied().collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn merge_single_producer_passes_through() {
        let streams = vec![vec![1, 3, 5, 7, 9]];
        assert_eq!(merged_values(&streams, 2), streams[0]);
    }

    #[test]
    fn merge_with_empty_streams() {
        let streams = vec![vec![], vec![4, 5, 6], vec![]];
        assert_eq!(merged_values(&streams, 2), vec![4, 5, 6]);
    }

    #[test]
    fn merge_respects_selection_vectors() {
        // Dead positions of a producer chunk must not surface in the merge.
        let mut c1 = DataChunk::new(vec![Arc::new(Vector::I64(vec![1, 100, 3, 200, 5]))]);
        c1.set_sel(Some(SelVec::from_positions(vec![0, 2, 4])));
        let r1 = Replay {
            chunks: [c1].into_iter().collect(),
            types: vec![DataType::I64],
        };
        let r2 = Replay::over(&[2, 4, 6], 2);
        let mut ex = MergeExchange::new(vec![Box::new(r1) as BoxOp, Box::new(r2)], 0).unwrap();
        let chunks = collect(&mut ex).unwrap();
        let got: Vec<i64> = chunks
            .iter()
            .flat_map(|c| {
                c.live_positions()
                    .into_iter()
                    .map(|p| c.column(0).as_i64()[p])
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(got, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn merge_over_morsel_scans_matches_sequential_scan() {
        // The planner's actual shape: sharded morsel scans over a table
        // sorted by its first column, merged back on that column — the
        // result must be the sequential scan, row for row.
        let rows = 13 * VECTOR_SIZE + 271;
        let t = table(rows);
        for workers in [1, 2, 4] {
            let producers = morsel_producers(&t, workers);
            let mut ex = MergeExchange::new(producers, 0).unwrap();
            let chunks = collect(&mut ex).unwrap();
            assert_eq!(total_rows(&chunks), rows);
            let vals: Vec<i64> = chunks
                .iter()
                .flat_map(|c| {
                    c.live_positions()
                        .into_iter()
                        .map(|p| c.column(0).as_i64()[p])
                        .collect::<Vec<_>>()
                })
                .collect();
            assert!(
                vals.iter().enumerate().all(|(i, &v)| v == i as i64),
                "{workers}-producer merge is not the identity scan"
            );
        }
    }

    #[test]
    fn merge_rejects_bad_keys() {
        let mk = || Box::new(Replay::over(&[1, 2], 2)) as BoxOp;
        assert!(MergeExchange::new(vec![mk()], 3).is_err());
        assert!(MergeExchange::new(Vec::new(), 0).is_err());
        let strs = Box::new(Replay {
            chunks: Default::default(),
            types: vec![DataType::Str],
        }) as BoxOp;
        assert!(MergeExchange::new(vec![strs], 0).is_err());
    }

    #[test]
    fn merge_drop_mid_stream_does_not_hang() {
        let rows = 64 * VECTOR_SIZE;
        let t = table(rows);
        let producers = morsel_producers(&t, 4);
        let mut ex = MergeExchange::new(producers, 0).unwrap();
        assert!(ex.next().unwrap().is_some());
        drop(ex); // producers blocked on full channels must unblock
    }

    #[test]
    fn merge_error_terminates_stream() {
        struct Fail;
        impl Operator for Fail {
            fn next(&mut self) -> Result<Option<DataChunk>, ExecError> {
                Err(ExecError::Plan("injected".into()))
            }
            fn out_types(&self) -> &[DataType] {
                const T: [DataType; 1] = [DataType::I64];
                &T
            }
        }
        let producers: Vec<BoxOp> = vec![Box::new(Replay::over(&[1, 2, 3], 2)), Box::new(Fail)];
        let mut ex = MergeExchange::new(producers, 0).unwrap();
        let err = loop {
            match ex.next() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("stream ended without surfacing the error"),
                Err(e) => break e,
            }
        };
        assert!(err.to_string().contains("injected"));
        assert!(ex.next().unwrap().is_none(), "stream must stay terminated");
    }
}
