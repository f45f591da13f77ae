//! Hash join with optional bloom-filter probe acceleration.
//!
//! The build side is materialized into a chained hash table; probing is
//! vectorized: a `map_hash_*`/`map_rehash_*` instance chain computes the
//! probe hash vector, the optional `sel_bloomfilter` instance (the loop
//! fission flavor set, §2) pre-filters probe positions, and matched output
//! columns are produced by adaptive `map_fetch_*` gathers (the Fig. 4(d)
//! primitive). The chain walk itself is plain code — §4.1 notes Vectorwise's
//! hash-table lookup also bypasses the expression evaluator.

use std::sync::{Arc, OnceLock};

use ma_primitives::hashing::{combine_hash, hash_u64};
use ma_primitives::{BloomFilter, MapHash, SelBloom};
use ma_vector::{DataChunk, DataType, SelVec, Vector};

use crate::adaptive::{HeurKind, MemTracker};
use crate::expr::Value;
use crate::ops::fetch::FetchInst;
use crate::ops::{normalize_keys_i64, BoxOp, FrozenStore, Operator, RowStore};
use crate::{ExecError, NodeScope, PrimInstance};

/// Join semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// All matching pairs; output = probe columns ++ build payload.
    Inner,
    /// Probe tuples with at least one match (selection-vector narrowing).
    Semi,
    /// Probe tuples with no match.
    Anti,
    /// At most one match per probe tuple (unique build keys); unmatched
    /// tuples get default payload values. Used for e.g. Q13's
    /// customer ⟕ per-customer order counts.
    LeftSingle,
}

/// A finished build table. Immutable from [`JoinBuild::finish`] on, so
/// any number of probers read one behind an [`Arc`] with no
/// synchronization (DESIGN.md §8).
struct BuildSide {
    /// Normalized key columns, one `Vec<i64>` per key.
    keys: Vec<Vec<i64>>,
    payload: FrozenStore,
    heads: Vec<u32>,
    chain: Vec<u32>,
    mask: u64,
    bloom: Option<BloomFilter>,
}

const NIL: u32 = u32::MAX;

/// The accumulator of a join's build phase: collects build-side chunks
/// into normalized key columns plus a payload row store, then freezes
/// them into the chained hash table the probe phase walks.
struct JoinBuild {
    key_idx: Vec<usize>,
    payload_idx: Vec<usize>,
    keys: Vec<Vec<i64>>,
    payload: RowStore,
    scratch: Vec<i64>,
}

impl JoinBuild {
    fn new(
        key_idx: Vec<usize>,
        payload_idx: Vec<usize>,
        payload_types: Vec<DataType>,
        row_hint: Option<usize>,
    ) -> Self {
        let nkeys = key_idx.len();
        // Pre-reserve the key vectors to the planner's proven build-row
        // bound — clamped so a wild estimate can't allocate unbounded
        // memory up front (the vectors still grow on demand past it).
        let cap = row_hint.map_or(0, |h| h.min(1 << 16));
        JoinBuild {
            key_idx,
            payload_idx,
            keys: vec![Vec::with_capacity(cap); nkeys],
            payload: RowStore::new(payload_types),
            scratch: Vec::new(),
        }
    }

    /// Appends one build-side chunk (live rows only).
    fn add(&mut self, chunk: &DataChunk) {
        let positions = chunk.live_positions();
        for (kv, &ci) in self.keys.iter_mut().zip(&self.key_idx) {
            normalize_keys_i64(chunk.column(ci), &mut self.scratch);
            kv.extend(positions.iter().map(|&p| self.scratch[p]));
        }
        self.payload.append(chunk, &self.payload_idx);
    }

    /// Freezes the accumulated rows into a chained hash table (plus an
    /// optional bloom filter over the row hashes). The build side bypasses
    /// the expression evaluator, like Vectorwise (§4.1).
    fn finish(self, want_bloom: bool, tracker: Option<&MemTracker>) -> BuildSide {
        let rows = self.keys[0].len();
        let mut row_hashes = vec![0u64; rows];
        for (k, kv) in self.keys.iter().enumerate() {
            if k == 0 {
                for (h, &v) in row_hashes.iter_mut().zip(kv) {
                    *h = hash_u64(v as u64);
                }
            } else {
                for (h, &v) in row_hashes.iter_mut().zip(kv) {
                    *h = combine_hash(*h, v as u64);
                }
            }
        }
        let slots = rows.saturating_mul(2).next_power_of_two().max(64);
        let mut heads = vec![NIL; slots];
        let mut chain = vec![NIL; rows];
        let mask = slots as u64 - 1;
        for (r, &h) in row_hashes.iter().enumerate() {
            let s = (h & mask) as usize;
            chain[r] = heads[s];
            heads[s] = r as u32;
        }
        let bloom = want_bloom.then(|| {
            let mut bf = BloomFilter::for_keys(rows);
            for &h in &row_hashes {
                bf.insert_hash(h);
            }
            bf
        });
        if let Some(t) = tracker {
            // Live bytes at the build's high-water point: normalized keys,
            // payload rows, the transient hash column, and the chained
            // table (heads + chain) plus the optional bloom filter.
            let key_bytes: u64 = self.keys.iter().map(|k| (k.len() * 8) as u64).sum();
            let table = (row_hashes.len() * 8) as u64
                + (heads.len() * 4) as u64
                + (chain.len() * 4) as u64
                + bloom.as_ref().map_or(0, |b| b.bytes() as u64);
            t.record(
                key_bytes
                    .saturating_add(self.payload.bytes())
                    .saturating_add(table),
            );
        }
        BuildSide {
            keys: self.keys,
            payload: self.payload.freeze(),
            heads,
            chain,
            mask,
            bloom,
        }
    }
}

impl BuildSide {
    fn probe_chain(&self, hash: u64) -> u32 {
        self.heads[(hash & self.mask) as usize]
    }

    fn key_matches(&self, row: u32, probe_keys: &[Vec<i64>], pos: usize) -> bool {
        self.keys
            .iter()
            .zip(probe_keys)
            .all(|(bk, pk)| bk[row as usize] == pk[pos])
    }
}

/// The *build phase* of a hash join, separated from probing: drains the
/// build child once into one hash table that every prober made by
/// [`SharedBuild::prober`] reads.
///
/// A plain [`HashJoin`] owns its build and runs it on its first `next()`.
/// A join compiled into worker fragments (see `plan::lower`) has one
/// `SharedBuild` and one prober per fragment, each with private primitive
/// instances: the exchange that starts the fragments runs the build first,
/// on the thread starting them ([`crate::ops::Parallel::after_builds`]),
/// so the table has one writer, strictly before its N readers run. A
/// build that fails publishes nothing — the exchange reports the error
/// and never starts the fragments.
pub struct SharedBuild {
    /// The build child; `None` once [`SharedBuild::run`] took it.
    child: Option<BoxOp>,
    key_idx: Vec<usize>,
    payload_idx: Vec<usize>,
    payload_types: Vec<DataType>,
    use_bloom: bool,
    /// Planner-proven build-row bound, used to pre-size build allocations.
    row_hint: Option<usize>,
    /// Byte-accounting slot the build reports its high-water to.
    tracker: Option<MemTracker>,
    table: Arc<OnceLock<BuildSide>>,
}

impl SharedBuild {
    /// A build over `build`'s integer `build_keys`, keeping the `payload`
    /// columns (and a bloom filter over the key hashes when `use_bloom`).
    pub fn new(
        build: BoxOp,
        build_keys: Vec<usize>,
        payload: Vec<usize>,
        use_bloom: bool,
    ) -> Result<Self, ExecError> {
        let build_types = build.out_types();
        if build_keys.is_empty() {
            return Err(ExecError::Plan("join key lists must match".into()));
        }
        for &k in &build_keys {
            if k >= build_types.len() {
                return Err(ExecError::Plan(format!("build key {k} out of range")));
            }
        }
        let payload_types = payload
            .iter()
            .map(|&i| {
                build_types
                    .get(i)
                    .copied()
                    .ok_or_else(|| ExecError::Plan(format!("payload column {i} out of range")))
            })
            .collect::<Result<_, _>>()?;
        Ok(SharedBuild {
            child: Some(build),
            key_idx: build_keys,
            payload_idx: payload,
            payload_types,
            use_bloom,
            row_hint: None,
            tracker: None,
            table: Arc::new(OnceLock::new()),
        })
    }

    /// Sets the planner-proven build-row bound, pre-sizing build
    /// allocations (clamped inside `JoinBuild::new`).
    pub fn with_build_rows(mut self, rows: usize) -> Self {
        self.row_hint = Some(rows);
        self
    }

    /// Attaches a byte-accounting tracker the build reports to.
    pub fn with_tracker(mut self, tracker: MemTracker) -> Self {
        self.tracker = Some(tracker);
        self
    }

    /// Drains the build child and publishes the table to the probers. An
    /// `Err` from the child publishes nothing; a second call is a no-op.
    pub fn run(&mut self) -> Result<(), ExecError> {
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        let mut build = JoinBuild::new(
            self.key_idx.clone(),
            self.payload_idx.clone(),
            self.payload_types.clone(),
            self.row_hint,
        );
        while let Some(chunk) = child.next()? {
            build.add(&chunk);
        }
        let built = build.finish(self.use_bloom, self.tracker.as_ref());
        assert!(self.table.set(built).is_ok(), "a join build runs once");
        Ok(())
    }

    /// A probe instance over `probe` reading this build's table, with its
    /// own primitive instances (registered in `scope`) and scratch.
    ///
    /// * `probe_keys`: integer key columns, index-aligned with the build
    ///   keys.
    /// * `defaults`: LeftSingle payload values for unmatched probe tuples
    ///   (must match payload types; empty otherwise).
    pub fn prober(
        &self,
        probe: BoxOp,
        probe_keys: Vec<usize>,
        kind: JoinKind,
        defaults: Vec<Value>,
        scope: &NodeScope,
    ) -> Result<HashJoin, ExecError> {
        if probe_keys.len() != self.key_idx.len() {
            return Err(ExecError::Plan("join key lists must match".into()));
        }
        let probe_types = probe.out_types().to_vec();
        for &k in &probe_keys {
            if k >= probe_types.len() {
                return Err(ExecError::Plan(format!("probe key {k} out of range")));
            }
        }
        let payload_types = &self.payload_types;
        let types: Vec<DataType> = match kind {
            JoinKind::Inner | JoinKind::LeftSingle => probe_types
                .iter()
                .copied()
                .chain(payload_types.iter().copied())
                .collect(),
            JoinKind::Semi | JoinKind::Anti => probe_types.clone(),
        };
        if kind == JoinKind::LeftSingle {
            if defaults.len() != payload_types.len() {
                return Err(ExecError::Plan(
                    "LeftSingle needs one default per payload column".into(),
                ));
            }
            for (d, t) in defaults.iter().zip(payload_types) {
                if *t == DataType::Str {
                    return Err(ExecError::Plan(
                        "LeftSingle payload only supports numeric columns".into(),
                    ));
                }
                if d.data_type() != *t {
                    return Err(ExecError::Plan(format!(
                        "default type {} does not match payload {t}",
                        d.data_type()
                    )));
                }
            }
        }

        // The first key is hashed, every further one combined in (the
        // same primitive type); each step names its key's index.
        let probe_hash_steps = (0..probe_keys.len())
            .map(|k| {
                let (sig, name) = match k {
                    0 => ("map_hash_i64_col", "map_hash"),
                    _ => ("map_rehash_i64_col", "map_rehash"),
                };
                let inst = scope.instance(sig, name, HeurKind::None)?;
                Ok((inst, k))
            })
            .collect::<Result<_, ExecError>>()?;
        let bloom_inst = if self.use_bloom {
            Some(scope.instance("sel_bloomfilter", "sel_bloomfilter", HeurKind::Fission)?)
        } else {
            None
        };
        // Inner joins gather probe columns through fetch instances.
        let probe_fetch = if kind == JoinKind::Inner {
            probe_types
                .iter()
                .map(|&t| FetchInst::create(t, scope))
                .collect::<Result<_, _>>()?
        } else {
            Vec::new()
        };
        let payload_fetch = if kind == JoinKind::Inner {
            payload_types
                .iter()
                .map(|&t| FetchInst::create(t, scope))
                .collect::<Result<_, _>>()?
        } else {
            Vec::new()
        };

        let nkeys = probe_keys.len();
        Ok(HashJoin {
            own_build: None,
            table: Arc::clone(&self.table),
            probe,
            probe_key_idx: probe_keys,
            kind,
            types,
            vector_size: scope.ctx().vector_size(),
            probe_hash_steps,
            bloom_inst,
            probe_fetch,
            payload_fetch,
            defaults,
            pending: None,
            hashes: Vec::new(),
            probe_keys: vec![Vec::new(); nkeys],
            bloom_buf: Vec::new(),
        })
    }
}

/// Hash join operator: the probe phase over one [`SharedBuild`]'s table.
pub struct HashJoin {
    /// The join's private build, run on the first `next()`; `None` for a
    /// prober of a shared build (and once the private build ran).
    own_build: Option<SharedBuild>,
    /// The build table, empty until the build published it.
    table: Arc<OnceLock<BuildSide>>,
    probe: BoxOp,
    probe_key_idx: Vec<usize>,
    kind: JoinKind,
    types: Vec<DataType>,
    vector_size: usize,

    /// One hash step per probe key: the instance and the key's index
    /// into `probe_keys`.
    probe_hash_steps: Vec<(PrimInstance<MapHash<i64>>, usize)>,
    bloom_inst: Option<PrimInstance<SelBloom>>,
    probe_fetch: Vec<FetchInst>,
    payload_fetch: Vec<FetchInst>,
    defaults: Vec<Value>,

    /// Pending inner-join matches: source chunk + (probe pos, build row).
    pending: Option<(DataChunk, Vec<u32>, Vec<u32>, usize)>,
    // scratch
    hashes: Vec<u64>,
    probe_keys: Vec<Vec<i64>>,
    /// Candidate probe positions of the chunk in flight.
    bloom_buf: Vec<u32>,
}

impl HashJoin {
    /// Builds a hash join with a private build: a [`SharedBuild`] over
    /// `build` and its one prober over `probe` (see those for the
    /// parameters).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        build: BoxOp,
        probe: BoxOp,
        build_keys: Vec<usize>,
        probe_keys: Vec<usize>,
        payload: Vec<usize>,
        kind: JoinKind,
        use_bloom: bool,
        defaults: Vec<Value>,
        scope: &NodeScope,
    ) -> Result<Self, ExecError> {
        let build = SharedBuild::new(build, build_keys, payload, use_bloom)?;
        let mut join = build.prober(probe, probe_keys, kind, defaults, scope)?;
        join.own_build = Some(build);
        Ok(join)
    }

    /// [`SharedBuild::with_build_rows`] on the join's private build.
    pub fn with_build_rows(mut self, rows: usize) -> Self {
        self.own_build = self.own_build.map(|b| b.with_build_rows(rows));
        self
    }

    /// [`SharedBuild::with_tracker`] on the join's private build.
    pub fn with_tracker(mut self, tracker: MemTracker) -> Self {
        self.own_build = self.own_build.map(|b| b.with_tracker(tracker));
        self
    }

    /// Emits up to `vector_size` pending inner-join pairs as one chunk.
    fn emit_pending(&mut self) -> Option<DataChunk> {
        let (chunk, ppos, brow, offset) = self.pending.as_mut()?;
        let n = (ppos.len() - *offset).min(self.vector_size);
        if n == 0 {
            self.pending = None;
            return None;
        }
        let pp = &ppos[*offset..][..n];
        let bb = &brow[*offset..][..n];
        let built = self.table.get().expect("built");
        let mut cols: Vec<Arc<Vector>> = Vec::with_capacity(self.types.len());
        for (ci, inst) in self.probe_fetch.iter_mut().enumerate() {
            cols.push(Arc::new(inst.fetch(chunk.column(ci), pp)));
        }
        for (pi, inst) in self.payload_fetch.iter_mut().enumerate() {
            cols.push(Arc::new(inst.fetch(built.payload.col(pi), bb)));
        }
        *offset += n;
        let done = *offset >= ppos.len();
        let out = DataChunk::new(cols);
        if done {
            self.pending = None;
        }
        Some(out)
    }

    /// Probes one chunk; returns an output chunk unless everything was
    /// filtered out.
    fn probe_chunk(&mut self, chunk: DataChunk) -> Option<DataChunk> {
        let n = chunk.len();
        let sel = chunk.sel().map(SelVec::as_slice);
        let live = chunk.live_count() as u64;

        // Normalize probe keys.
        for (kv, &ci) in self.probe_keys.iter_mut().zip(&self.probe_key_idx) {
            normalize_keys_i64(chunk.column(ci), kv);
        }
        // Hash pipeline.
        self.hashes.resize(n.max(self.hashes.len()), 0);
        let hashes = &mut self.hashes[..n];
        for (inst, k) in &mut self.probe_hash_steps {
            let keys = &self.probe_keys[*k];
            inst.invoke(live, |f| f(hashes, keys, sel));
        }

        let built = self.table.get().expect("built");

        // Bloom pre-filter (candidates that *may* match).
        let bloom_buf = &mut self.bloom_buf;
        let candidates: &[u32] = match (&mut self.bloom_inst, &built.bloom, sel) {
            (Some(inst), Some(bf), _) => {
                bloom_buf.resize(live as usize, 0);
                inst.hint(bf.bytes() as f64);
                let k = inst.invoke(live, |f| f(bloom_buf, bf, hashes, sel));
                &bloom_buf[..k]
            }
            (_, _, Some(s)) => s,
            (_, _, None) => {
                bloom_buf.clear();
                bloom_buf.extend(0..n as u32);
                bloom_buf
            }
        };

        match self.kind {
            JoinKind::Inner => {
                let mut ppos = Vec::new();
                let mut brow = Vec::new();
                for &i in candidates {
                    let mut r = built.probe_chain(hashes[i as usize]);
                    while r != NIL {
                        if built.key_matches(r, &self.probe_keys, i as usize) {
                            ppos.push(i);
                            brow.push(r);
                        }
                        r = built.chain[r as usize];
                    }
                }
                if ppos.is_empty() {
                    return None;
                }
                self.pending = Some((chunk, ppos, brow, 0));
                self.emit_pending()
            }
            JoinKind::Semi | JoinKind::Anti => {
                let mut matched = vec![false; n];
                for &i in candidates {
                    let mut r = built.probe_chain(hashes[i as usize]);
                    while r != NIL {
                        if built.key_matches(r, &self.probe_keys, i as usize) {
                            matched[i as usize] = true;
                            break;
                        }
                        r = built.chain[r as usize];
                    }
                }
                let want = self.kind == JoinKind::Semi;
                let positions: Vec<u32> = match sel {
                    Some(s) => s
                        .iter()
                        .copied()
                        .filter(|&i| matched[i as usize] == want)
                        .collect(),
                    None => (0..n as u32)
                        .filter(|&i| matched[i as usize] == want)
                        .collect(),
                };
                if positions.is_empty() {
                    return None;
                }
                Some(chunk.with_sel(Some(SelVec::from_positions(positions))))
            }
            JoinKind::LeftSingle => {
                // One output row per live probe tuple; payload from the
                // unique match or the defaults.
                let mut match_row = vec![NIL; n];
                for &i in candidates {
                    let mut r = built.probe_chain(hashes[i as usize]);
                    while r != NIL {
                        if built.key_matches(r, &self.probe_keys, i as usize) {
                            match_row[i as usize] = r;
                            break;
                        }
                        r = built.chain[r as usize];
                    }
                }
                let mut cols: Vec<Arc<Vector>> = chunk.columns().to_vec();
                for (pi, d) in self.defaults.iter().enumerate() {
                    let src = built.payload.col(pi);
                    let col = left_single_payload(src, &match_row, d, sel, n);
                    cols.push(Arc::new(col));
                }
                let mut out = DataChunk::new(cols);
                out.set_sel(chunk.sel().cloned());
                Some(out)
            }
        }
    }
}

/// Builds a LeftSingle payload column: match value or default.
fn left_single_payload(
    src: &Vector,
    match_row: &[u32],
    default: &Value,
    sel: Option<&[u32]>,
    n: usize,
) -> Vector {
    macro_rules! fill {
        ($srcv:expr, $d:expr, $variant:ident, $zero:expr) => {{
            let mut out = vec![$zero; n];
            let apply = |i: usize, out: &mut Vec<_>| {
                out[i] = if match_row[i] == NIL {
                    $d
                } else {
                    $srcv[match_row[i] as usize]
                };
            };
            match sel {
                Some(s) => {
                    for &i in s {
                        apply(i as usize, &mut out);
                    }
                }
                None => {
                    for i in 0..n {
                        apply(i, &mut out);
                    }
                }
            }
            Vector::$variant(out)
        }};
    }
    match (src, default) {
        (Vector::I16(v), Value::I16(d)) => fill!(v, *d, I16, 0i16),
        (Vector::I32(v), Value::I32(d)) => fill!(v, *d, I32, 0i32),
        (Vector::I64(v), Value::I64(d)) => fill!(v, *d, I64, 0i64),
        (Vector::F64(v), Value::F64(d)) => fill!(v, *d, F64, 0f64),
        _ => panic!("LeftSingle payload only supports numeric columns"),
    }
}

impl Operator for HashJoin {
    fn next(&mut self) -> Result<Option<DataChunk>, ExecError> {
        if let Some(mut build) = self.own_build.take() {
            build.run()?;
        }
        // A table never published means the build failed, and whoever ran
        // it reported the error: this prober just ends.
        if self.table.get().is_none() {
            return Ok(None);
        }
        if let Some(out) = self.emit_pending() {
            return Ok(Some(out));
        }
        loop {
            let Some(chunk) = self.probe.next()? else {
                return Ok(None);
            };
            if chunk.live_count() == 0 {
                continue;
            }
            if let Some(out) = self.probe_chunk(chunk) {
                return Ok(Some(out));
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
    use crate::config::ExecConfig;
    use crate::ops::{collect, total_rows, Scan};
    use crate::QueryContext;
    use ma_primitives::build_dictionary;
    use ma_vector::{ColumnBuilder, Table};

    fn ctx() -> QueryContext {
        QueryContext::new(Arc::new(build_dictionary()), ExecConfig::fixed_default())
    }

    /// Dim table: key 0..n, name "n{key}".
    fn dim(n: usize) -> BoxOp {
        let mut k = ColumnBuilder::with_capacity(DataType::I32, n);
        let mut s = ColumnBuilder::with_capacity(DataType::Str, n);
        for i in 0..n {
            k.push_i32(i as i32);
            s.push_str(&format!("n{i}"));
        }
        let t = Arc::new(
            Table::new(
                "d",
                vec![("k".into(), k.finish()), ("s".into(), s.finish())],
            )
            .unwrap(),
        );
        Box::new(Scan::new(t, &["k", "s"], 128).unwrap())
    }

    /// Fact table: fk = i % m, v = i.
    fn fact_table(n: usize, m: usize) -> Arc<Table> {
        let mut fk = ColumnBuilder::with_capacity(DataType::I32, n);
        let mut v = ColumnBuilder::with_capacity(DataType::I64, n);
        for i in 0..n {
            fk.push_i32((i % m) as i32);
            v.push_i64(i as i64);
        }
        Arc::new(
            Table::new(
                "f",
                vec![("fk".into(), fk.finish()), ("v".into(), v.finish())],
            )
            .unwrap(),
        )
    }

    fn fact(n: usize, m: usize) -> BoxOp {
        Box::new(Scan::new(fact_table(n, m), &["fk", "v"], 128).unwrap())
    }

    fn join(kind: JoinKind, use_bloom: bool, dim_n: usize, fact_n: usize) -> HashJoin {
        let c = ctx();
        HashJoin::new(
            dim(dim_n),
            fact(fact_n, 10),
            vec![0],
            vec![0],
            if matches!(kind, JoinKind::Inner) {
                vec![1]
            } else {
                vec![]
            },
            kind,
            use_bloom,
            vec![],
            &c.scope("t"),
        )
        .unwrap()
    }

    #[test]
    fn inner_join_matches_and_fetches_payload() {
        // dim keys 0..5; fact fk cycles 0..10 → half the fact rows match.
        let mut j = join(JoinKind::Inner, false, 5, 1000);
        assert_eq!(
            j.out_types(),
            &[DataType::I32, DataType::I64, DataType::Str]
        );
        let chunks = collect(&mut j).unwrap();
        assert_eq!(total_rows(&chunks), 500);
        for ch in &chunks {
            for p in ch.live_positions() {
                let fk = ch.column(0).as_i32()[p];
                assert!(fk < 5);
                assert_eq!(ch.column(2).as_str_vec().get(p), format!("n{fk}"));
                // v % 10 == fk by construction
                assert_eq!(ch.column(1).as_i64()[p] % 10, fk as i64);
            }
        }
    }

    #[test]
    fn inner_join_with_bloom_gives_same_result() {
        let plain = collect(&mut join(JoinKind::Inner, false, 5, 1000)).unwrap();
        let bloom = collect(&mut join(JoinKind::Inner, true, 5, 1000)).unwrap();
        assert_eq!(total_rows(&plain), total_rows(&bloom));
        let sum = |chunks: &[DataChunk]| -> i64 {
            chunks
                .iter()
                .flat_map(|c| {
                    c.live_positions()
                        .into_iter()
                        .map(move |p| c.column(1).as_i64()[p])
                })
                .sum()
        };
        assert_eq!(sum(&plain), sum(&bloom));
    }

    #[test]
    fn semi_and_anti_partition_probe() {
        let semi = collect(&mut join(JoinKind::Semi, false, 5, 1000)).unwrap();
        let anti = collect(&mut join(JoinKind::Anti, false, 5, 1000)).unwrap();
        assert_eq!(total_rows(&semi), 500);
        assert_eq!(total_rows(&anti), 500);
        for ch in &semi {
            for p in ch.live_positions() {
                assert!(ch.column(0).as_i32()[p] < 5);
            }
        }
        for ch in &anti {
            for p in ch.live_positions() {
                assert!(ch.column(0).as_i32()[p] >= 5);
            }
        }
    }

    #[test]
    fn anti_with_bloom_keeps_filtered_positions() {
        let plain = collect(&mut join(JoinKind::Anti, false, 7, 500)).unwrap();
        let bloom = collect(&mut join(JoinKind::Anti, true, 7, 500)).unwrap();
        assert_eq!(total_rows(&plain), total_rows(&bloom));
    }

    #[test]
    fn one_to_many_expansion() {
        // dim key 0..2, fact fk = i % 10 → keys 0,1 match 100 rows each...
        // plus duplicate build rows: make dim with duplicated keys to force
        // multiple matches per probe row.
        let c = ctx();
        let mut k = ColumnBuilder::with_capacity(DataType::I32, 4);
        let mut s = ColumnBuilder::with_capacity(DataType::Str, 4);
        for (key, name) in [(0, "a"), (0, "b"), (1, "c"), (2, "d")] {
            k.push_i32(key);
            s.push_str(name);
        }
        let t = Arc::new(
            Table::new(
                "d",
                vec![("k".into(), k.finish()), ("s".into(), s.finish())],
            )
            .unwrap(),
        );
        let build: BoxOp = Box::new(Scan::new(t, &["k", "s"], 128).unwrap());
        let mut j = HashJoin::new(
            build,
            fact(10, 10),
            vec![0],
            vec![0],
            vec![1],
            JoinKind::Inner,
            false,
            vec![],
            &c.scope("t"),
        )
        .unwrap();
        let chunks = collect(&mut j).unwrap();
        // fk=0 matches 2 build rows; fk=1 and fk=2 match 1 each → 4 rows.
        assert_eq!(total_rows(&chunks), 4);
    }

    #[test]
    fn left_single_fills_defaults() {
        let c = ctx();
        // build: counts per key (0..3); probe: keys 0..6
        let mut k = ColumnBuilder::with_capacity(DataType::I32, 3);
        let mut cnt = ColumnBuilder::with_capacity(DataType::I64, 3);
        for i in 0..3i32 {
            k.push_i32(i);
            cnt.push_i64(i as i64 * 100);
        }
        let t = Arc::new(
            Table::new(
                "b",
                vec![("k".into(), k.finish()), ("c".into(), cnt.finish())],
            )
            .unwrap(),
        );
        let build: BoxOp = Box::new(Scan::new(t, &["k", "c"], 128).unwrap());
        let mut j = HashJoin::new(
            build,
            fact(6, 6),
            vec![0],
            vec![0],
            vec![1],
            JoinKind::LeftSingle,
            false,
            vec![Value::I64(0)],
            &c.scope("t"),
        )
        .unwrap();
        let chunks = collect(&mut j).unwrap();
        assert_eq!(total_rows(&chunks), 6);
        let ch = &chunks[0];
        for p in ch.live_positions() {
            let key = ch.column(0).as_i32()[p];
            let got = ch.column(2).as_i64()[p];
            let expect = if key < 3 { key as i64 * 100 } else { 0 };
            assert_eq!(got, expect, "key {key}");
        }
    }

    #[test]
    fn pending_matches_split_into_vector_sized_chunks() {
        // Single build key matching every fact row → expansion of 5000 rows
        // must be emitted in ≤1024-row chunks.
        let c = ctx();
        let mut k = ColumnBuilder::with_capacity(DataType::I32, 1);
        let mut s = ColumnBuilder::with_capacity(DataType::Str, 1);
        k.push_i32(0);
        s.push_str("only");
        let t = Arc::new(
            Table::new(
                "d",
                vec![("k".into(), k.finish()), ("s".into(), s.finish())],
            )
            .unwrap(),
        );
        let build: BoxOp = Box::new(Scan::new(t, &["k", "s"], 128).unwrap());
        let mut j = HashJoin::new(
            build,
            fact(5000, 1),
            vec![0],
            vec![0],
            vec![1],
            JoinKind::Inner,
            false,
            vec![],
            &c.scope("t"),
        )
        .unwrap();
        let chunks = collect(&mut j).unwrap();
        assert_eq!(total_rows(&chunks), 5000);
        for ch in &chunks {
            assert!(ch.len() <= 1024);
        }
    }

    // --- shared builds -----------------------------------------------------

    /// Build side for the shared-build tests: keys `0..keys`, each `dups`
    /// times over, with a distinct i64 payload per row.
    fn dup_dim(keys: usize, dups: usize) -> BoxOp {
        let n = keys * dups;
        let mut k = ColumnBuilder::with_capacity(DataType::I32, n);
        let mut c = ColumnBuilder::with_capacity(DataType::I64, n);
        for i in 0..n {
            k.push_i32((i % keys) as i32);
            c.push_i64(i as i64 * 1000);
        }
        let t = Arc::new(
            Table::new(
                "b",
                vec![("k".into(), k.finish()), ("c".into(), c.finish())],
            )
            .unwrap(),
        );
        Box::new(Scan::new(t, &["k", "c"], 128).unwrap())
    }

    /// Every live row, rendered and sorted: the multiset a join emitted.
    fn row_multiset(chunks: &[DataChunk]) -> Vec<String> {
        let mut rows = Vec::new();
        for ch in chunks {
            for p in ch.live_positions() {
                let cols = ch.columns().iter().map(|c| match c.as_ref() {
                    Vector::I32(v) => v[p].to_string(),
                    Vector::I64(v) => v[p].to_string(),
                    other => panic!("unexpected column type {}", other.data_type()),
                });
                rows.push(cols.collect::<Vec<_>>().join("|"));
            }
        }
        rows.sort_unstable();
        rows
    }

    /// One join two ways over the same inputs — a plain [`HashJoin`], and
    /// `n` probers over one [`SharedBuild`] splitting the probe side by
    /// morsels behind a [`crate::ops::Parallel`] that runs the build —
    /// returning both outputs as multisets plus the shared path's widest
    /// chunk.
    fn plain_and_shared(
        kind: JoinKind,
        bloom: bool,
        build: &dyn Fn() -> BoxOp,
        n: usize,
    ) -> (Vec<String>, Vec<String>, usize) {
        use crate::ops::Parallel;
        use ma_vector::MorselQueue;
        let c = ctx();
        let payload = if matches!(kind, JoinKind::Inner | JoinKind::LeftSingle) {
            vec![1]
        } else {
            vec![]
        };
        let defaults = if kind == JoinKind::LeftSingle {
            vec![Value::I64(-1)]
        } else {
            vec![]
        };
        let mut plain = HashJoin::new(
            build(),
            fact(3000, 10),
            vec![0],
            vec![0],
            payload.clone(),
            kind,
            bloom,
            defaults.clone(),
            &c.scope("t"),
        )
        .unwrap();
        let want = row_multiset(&collect(&mut plain).unwrap());

        let shared = SharedBuild::new(build(), vec![0], payload, bloom).unwrap();
        let t = fact_table(3000, 10);
        let queue = Arc::new(MorselQueue::with_morsel(t.rows(), 256));
        let factory = |_w: usize, _n: usize| -> Result<BoxOp, ExecError> {
            let scan = Scan::morsel(Arc::clone(&t), &["fk", "v"], 128, Arc::clone(&queue))?;
            let probe: BoxOp = Box::new(scan);
            let prober = shared.prober(probe, vec![0], kind, defaults.clone(), &c.scope("s"))?;
            Ok(Box::new(prober))
        };
        let mut par = Parallel::new(std::num::NonZeroUsize::new(n).unwrap(), &factory)
            .unwrap()
            .after_builds(vec![shared]);
        let chunks = collect(&mut par).unwrap();
        let widest = chunks.iter().map(DataChunk::len).max().unwrap_or(0);
        (want, row_multiset(&chunks), widest)
    }

    #[test]
    fn probers_over_a_shared_build_match_the_plain_join() {
        for bloom in [false, true] {
            // Inner, 1:N: every 128-row probe chunk with a matching key
            // yields 64 × 20 pairs, past the 1024-row vector size, so each
            // prober's `pending` split is crossed many times over.
            let (want, got, widest) =
                plain_and_shared(JoinKind::Inner, bloom, &|| dup_dim(5, 20), 4);
            assert_eq!(want.len(), 1500 * 20);
            assert_eq!(want, got, "inner, bloom={bloom}");
            assert_eq!(widest, 1024, "inner output must split at the vector size");
            for kind in [JoinKind::Semi, JoinKind::Anti] {
                let (want, got, _) = plain_and_shared(kind, bloom, &|| dup_dim(5, 20), 4);
                assert_eq!(want.len(), 1500);
                assert_eq!(want, got, "{kind:?}, bloom={bloom}");
            }
            // LeftSingle needs unique build keys.
            let (want, got, _) =
                plain_and_shared(JoinKind::LeftSingle, bloom, &|| dup_dim(5, 1), 4);
            assert_eq!(want.len(), 3000);
            assert_eq!(want, got, "left-single, bloom={bloom}");
        }
    }

    #[test]
    fn probers_over_an_empty_shared_build() {
        // Nothing matches an empty table: Inner and Semi yield nothing,
        // Anti and LeftSingle (with its defaults) pass every probe tuple.
        for bloom in [false, true] {
            for (kind, rows) in [
                (JoinKind::Inner, 0),
                (JoinKind::Semi, 0),
                (JoinKind::Anti, 3000),
                (JoinKind::LeftSingle, 3000),
            ] {
                let (want, got, _) = plain_and_shared(kind, bloom, &|| dup_dim(0, 0), 4);
                assert_eq!(got.len(), rows, "{kind:?}, bloom={bloom}");
                assert_eq!(want, got, "{kind:?}, bloom={bloom}");
            }
        }
    }

    #[test]
    fn a_prober_whose_build_never_published_just_ends() {
        // The build's owner reports a failed build; a prober polled
        // anyway must neither panic nor probe a table that is not there.
        let c = ctx();
        let shared = SharedBuild::new(dim(5), vec![0], vec![], false).unwrap();
        let mut prober = shared
            .prober(
                fact(100, 10),
                vec![0],
                JoinKind::Anti,
                vec![],
                &c.scope("s"),
            )
            .unwrap();
        assert!(prober.next().unwrap().is_none());
    }

    #[test]
    fn key_list_mismatch_rejected() {
        let c = ctx();
        assert!(HashJoin::new(
            dim(5),
            fact(10, 10),
            vec![0],
            vec![0, 1],
            vec![],
            JoinKind::Semi,
            false,
            vec![],
            &c.scope("t")
        )
        .is_err());
    }

    #[test]
    fn left_single_str_payload_rejected() {
        // Unmatched tuples are filled by numeric defaults only; a str
        // payload is refused before a probe chunk reaches the fill.
        let c = ctx();
        let shared = SharedBuild::new(dim(5), vec![0], vec![1], false).unwrap();
        match shared.prober(
            fact(100, 10),
            vec![0],
            JoinKind::LeftSingle,
            vec![Value::Str("none".into())],
            &c.scope("ls"),
        ) {
            Err(ExecError::Plan(m)) => assert!(m.contains("numeric columns"), "{m}"),
            Err(other) => panic!("expected ExecError::Plan, got {other:?}"),
            Ok(_) => panic!("built a str left-single payload"),
        }
    }
}
