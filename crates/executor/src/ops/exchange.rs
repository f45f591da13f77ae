//! The unified exchange layer: every operator that moves tuples between
//! threads lives here, built on one routing/channel/teardown core.
//!
//! * [`Parallel`] runs N copies of a plan fragment on worker threads and
//!   streams their union to the parent (Vectorwise's `Xchg`);
//! * [`HashPartitionExchange`] *repartitions* a set of producer streams
//!   by a key hash so that P consumer pipelines each see a disjoint,
//!   complete key range (Vectorwise's `XchgHashSplit`) — the shape of a
//!   partitioned aggregation.
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
//! `tests/parallel_determinism.rs` verifies. No exchange restores an
//! order: an ordered pipeline (a merge-join input) runs serially.

use std::num::NonZeroUsize;
use std::sync::mpsc::SyncSender;

use ma_vector::{DataChunk, DataType, SelVec, Vector};

use crate::ops::xrt::{Rt, RtJoinHandle, RtReceiver, RtSender, StdRt};
use crate::ops::{BoxOp, Operator, SharedBuild};
use crate::plan::PlanError;
use crate::{ExecError, NodeKey};

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
/// every sender is gone or one sent an error — joins every worker, turning
/// a worker's panic into [`ExecError::Worker`]. Dropping a
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
    /// The plan node a worker panic is reported against.
    node: NodeKey,
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
            node: NodeKey::default(),
        }
    }

    /// Reports a worker panic against `node`.
    pub(crate) fn at(mut self, node: NodeKey) -> UnionCore<R> {
        self.node = node;
        self
    }

    /// An already-exhausted union (placeholder during state swaps).
    fn done() -> UnionCore<R> {
        UnionCore {
            rx: None,
            handles: Vec::new(),
            buffered: std::collections::VecDeque::new(),
            node: NodeKey::default(),
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
                    return Err(self.reap().unwrap_or(e));
                }
                Err(()) => {
                    // All senders gone: every worker finished. Join to
                    // reap panics.
                    self.rx = None;
                    return match self.reap() {
                        Some(e) => Err(e),
                        None => Ok(None),
                    };
                }
            }
        }
    }

    /// Joins every worker, returning the first one's panic as a typed
    /// [`ExecError::Worker`].
    fn reap(&mut self) -> Option<ExecError> {
        let mut failure = None;
        for h in self.handles.drain(..) {
            if let Err(payload) = h.join() {
                failure.get_or_insert(ExecError::Worker {
                    node: self.node,
                    message: panic_message(payload.as_ref()),
                });
            }
        }
        failure
    }
}

/// A panic payload's text: the `&str` or `String` a `panic!` carries.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    match payload.downcast_ref::<&str>() {
        Some(s) => s.to_string(),
        None => match payload.downcast_ref::<String>() {
            Some(s) => s.clone(),
            None => "<non-string panic>".to_string(),
        },
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
    /// The node a worker panic is reported against (its tracker's).
    node: NodeKey,
}

impl Parallel {
    /// Builds `workers` fragments via `factory` (all on the calling
    /// thread). Workers start lazily on the first [`Operator::next`] call.
    pub fn new(workers: NonZeroUsize, factory: &FragmentFactory<'_>) -> Result<Self, ExecError> {
        let n = workers.get();
        let ops: Vec<BoxOp> = (0..n).map(|w| factory(w, n)).collect::<Result<_, _>>()?;
        let types = same_out_types(&ops, "parallel fragment")?;
        Ok(Parallel {
            state: State::Pending(ops),
            builds: Vec::new(),
            types,
            tracker: None,
            node: NodeKey::default(),
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
    /// planner's exchange bound is stated in). Its node is the one a
    /// worker panic is reported against.
    pub(crate) fn tracked(mut self, tracker: crate::adaptive::MemTracker) -> Self {
        self.node = tracker.key();
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
            self.state = State::Running(Union::spawn(ops).at(self.node));
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

fn fnv1a(s: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in s {
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
                hashes[p] = splitmix64(hashes[p] ^ fnv1a(c.get_bytes(p)));
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
    /// The node a worker panic is reported against (its tracker's).
    node: NodeKey,
}

impl HashPartitionExchange {
    /// Builds the exchange: `producers` are drained concurrently, their
    /// tuples routed by `key_cols` (columns of the producers' output
    /// schema, folded in order) into `partitions` consumer pipelines built
    /// by `consumer` (all construction on the calling thread).
    pub fn new(
        producers: Vec<BoxOp>,
        key_cols: Vec<usize>,
        partitions: NonZeroUsize,
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
        let nparts = partitions.get();
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
            node: NodeKey::default(),
        })
    }

    /// [`Parallel::after_builds`] for the producer fragments.
    pub fn after_builds(mut self, builds: Vec<SharedBuild>) -> Self {
        self.builds = builds;
        self
    }

    /// Attaches a byte-accounting tracker recording the size of every
    /// chunk this exchange yields (the per-chunk channel-buffer unit the
    /// planner's exchange bound is stated in). Its node is the one a
    /// worker panic is reported against.
    pub(crate) fn tracked(mut self, tracker: crate::adaptive::MemTracker) -> Self {
        self.node = tracker.key();
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
            let union = HashPartitionExchange::start(producers, part_txs, &key_cols, consumers)
                .at(self.node);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{collect, total_rows, Scan};
    use ma_vector::{ColumnBuilder, MorselQueue, Table, VECTOR_SIZE};
    use std::sync::Arc;

    fn nz(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

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
        let mut par = Parallel::new(nz(4), &factory).unwrap();
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
        let mut par = Parallel::new(nz(1), &factory).unwrap();
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
        assert!(Parallel::new(nz(4), &factory).is_err());
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
        let mut par = Parallel::new(nz(4), &factory).unwrap();
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
        let mut ex =
            HashPartitionExchange::new(producers, vec![0], nz(partitions), &consumer).unwrap();
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
        assert!(HashPartitionExchange::new(mk(), vec![], nz(2), &consumer).is_err());
        assert!(HashPartitionExchange::new(mk(), vec![3], nz(2), &consumer).is_err());
        assert!(HashPartitionExchange::new(Vec::new(), vec![0], nz(2), &consumer).is_err());
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
        match HashPartitionExchange::new(producers, vec![0], nz(2), &consumer) {
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
        let mut ex = HashPartitionExchange::new(producers, vec![0], nz(2), &consumer).unwrap();
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
        let mut ex = HashPartitionExchange::new(producers, vec![0], nz(4), &consumer).unwrap();
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
        let mut par = Parallel::new(nz(3), &factory).unwrap();
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

    /// Emits one-row chunks and calls `boom`, which panics, on its `k`-th
    /// `next()` (never when `k` is 0); `live` counts the copies not yet dropped, so it reads 0
    /// only once every worker thread has let go of its fragment.
    struct PanicAt {
        k: usize,
        calls: usize,
        boom: fn(),
        live: Arc<std::sync::atomic::AtomicUsize>,
        types: Vec<DataType>,
    }

    impl PanicAt {
        fn new(k: usize, boom: fn(), live: &Arc<std::sync::atomic::AtomicUsize>) -> PanicAt {
            live.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            PanicAt {
                k,
                calls: 0,
                boom,
                live: Arc::clone(live),
                types: vec![DataType::I64],
            }
        }
    }

    impl Operator for PanicAt {
        fn next(&mut self) -> Result<Option<DataChunk>, ExecError> {
            self.calls += 1;
            if self.calls == self.k {
                (self.boom)();
            }
            if self.calls > 50 {
                return Ok(None);
            }
            Ok(Some(DataChunk::new(vec![Arc::new(Vector::I64(vec![1]))])))
        }
        fn out_types(&self) -> &[DataType] {
            &self.types
        }
    }

    impl Drop for PanicAt {
        fn drop(&mut self) {
            self.live.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    /// Drains `op` to its first error.
    fn first_error(op: &mut dyn Operator) -> ExecError {
        loop {
            match op.next() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("stream ended without surfacing the panic"),
                Err(e) => break e,
            }
        }
    }

    #[test]
    fn a_worker_panic_is_a_typed_error_with_every_worker_joined() {
        let booms: [(fn(), &str); 3] = [
            (|| panic!("static text"), "static text"),
            (|| panic!("{} text", "owned"), "owned text"),
            (|| std::panic::panic_any(7u32), "<non-string panic>"),
        ];
        for (k, (boom, want)) in [1, 3, 12].into_iter().zip(booms) {
            let live = Arc::new(std::sync::atomic::AtomicUsize::new(0));
            // Worker 1 panics on its k-th call; the others finish.
            let factory = |w: usize, _n: usize| -> Result<BoxOp, ExecError> {
                let k = if w == 1 { k } else { 0 };
                Ok(Box::new(PanicAt::new(k, boom, &live)))
            };
            let mut par = Parallel::new(nz(3), &factory).unwrap();
            let err = first_error(&mut par);
            assert!(
                matches!(&err, ExecError::Worker { message, .. } if message == want),
                "k = {k}: {err:?}"
            );
            assert_eq!(live.load(std::sync::atomic::Ordering::SeqCst), 0, "k = {k}");
            assert!(par.next().unwrap().is_none(), "stream must stay terminated");
        }
    }

    #[test]
    fn a_partition_producer_panic_is_a_typed_error_with_every_worker_joined() {
        let live = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let producers: Vec<BoxOp> = (0..2)
            .map(|w| -> BoxOp {
                let k = if w == 0 { 4 } else { 0 };
                Box::new(PanicAt::new(k, || panic!("producer"), &live))
            })
            .collect();
        let consumer = |source: BoxOp, _p: usize| Ok(source);
        let mut ex = HashPartitionExchange::new(producers, vec![0], nz(3), &consumer).unwrap();
        let err = first_error(&mut ex);
        assert!(
            matches!(&err, ExecError::Worker { message, .. } if message == "producer"),
            "{err:?}"
        );
        assert_eq!(live.load(std::sync::atomic::Ordering::SeqCst), 0);
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
                        .prober(probe, vec![0], kind, vec![], &ctx.scope("j"))
                        .unwrap(),
                )
            })
            .collect()
    }

    /// A [`Parallel`] over ready-made fragments.
    fn parallel_over(fragments: Vec<BoxOp>) -> Parallel {
        let n = fragments.len();
        let fragments = std::sync::Mutex::new(fragments);
        Parallel::new(nz(n), &|_, _| Ok(fragments.lock().unwrap().pop().unwrap())).unwrap()
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
        let mut ex = HashPartitionExchange::new(producers, vec![0], nz(2), &consumer)
            .unwrap()
            .after_builds(vec![shared]);
        assert_reports_once(&mut ex);
    }

    /// Replays a fixed chunk list.
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
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
    }
}
