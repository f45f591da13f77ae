//! Aggregation operators.
//!
//! [`HashAggregate`] implements vectorized hash aggregation exactly as §1
//! sketches: per input vector it computes a hash vector (`map_hash_*` /
//! `map_rehash_*` instances), finds-or-inserts group ids
//! (`hash_insertcheck_*`, the primitive of Fig. 4e), then updates
//! accumulators with grouped `aggr_*` primitives. [`StreamAggregate`]
//! handles the ungrouped case with `aggr0_*` primitives.

use std::sync::Arc;

use ma_primitives::{
    AggrCountGrouped, AggrMinMaxI64, AggrMinMaxI64Grouped, AggrSumF64, AggrSumF64Grouped,
    AggrSumI64, AggrSumI64Grouped, GroupInsertCheck, GroupTable, MapHash, MapHashStr,
    StrGroupInsertCheck, StrGroupTable,
};
use ma_vector::{ColumnBuilder, DataChunk, DataType, Field, Schema, SelVec, Vector};

use crate::adaptive::HeurKind;
use crate::expr::{Agg, AggFunc, NumType};
use crate::ops::{normalize_keys_i64, BoxOp, Operator, RowStore};
use crate::plan::PlanError;
use crate::{ExecError, PrimInstance, QueryContext};

/// Types `aggs` against the child's output by the shared rule
/// ([`Agg::type_of`]), so a mistyped or out-of-range input column is a
/// plan error at construction. Operators know types, not names: columns
/// are named by position.
fn out_types(aggs: &[Agg], input: &[DataType]) -> Result<Vec<DataType>, ExecError> {
    let fields = input.iter().enumerate();
    let schema = Schema::new(
        fields
            .map(|(i, &t)| Field::new(format!("#{i}"), t))
            .collect(),
    );
    aggs.iter()
        .map(|a| Ok(a.type_of(&schema).map_err(PlanError::from)?))
        .collect()
}

/// Where an operator gets its primitive instances: signature `sig`,
/// labelled `{label}/{name}` in the statistics.
struct Instances<'a> {
    ctx: &'a QueryContext,
    label: &'a str,
}

impl Instances<'_> {
    fn get<F>(&self, sig: &str, name: &str) -> Result<PrimInstance<F>, ExecError>
    where
        F: Copy + Send + Sync + 'static,
    {
        let label = format!("{}/{name}", self.label);
        self.ctx.instance(sig, label, HeurKind::None)
    }

    /// The primitive computing `func` over `ty`: `aggr_sum128_i64_col`
    /// labelled `{label}/aggr_sum128_i64`, with `pre` `aggr` (grouped)
    /// or `aggr0` (ungrouped).
    fn aggr<F>(&self, pre: &str, func: AggFunc, ty: NumType) -> Result<PrimInstance<F>, ExecError>
    where
        F: Copy + Send + Sync + 'static,
    {
        let stem = match (func, ty) {
            (AggFunc::Sum, NumType::I64) => "sum128",
            _ => func.name(),
        };
        let name = format!("{pre}_{stem}_{}", ty.data_type());
        self.get(&format!("{name}_col"), &name)
    }
}

/// The checked narrowing of a 128-bit sum to its `i64` output column:
/// overflow must panic, not wrap.
fn narrow_sum(v: i128) -> i64 {
    i64::try_from(v).expect("sum exceeds i64 output range")
}

// --- grouped accumulator buffers -------------------------------------------

/// One variant per primitive type (the `f64` sum and min/max primitives
/// share theirs); `unit` is what a fresh group holds.
enum AccBuf {
    Sum128 {
        inst: PrimInstance<AggrSumI64Grouped>,
        accs: Vec<i128>,
        col: usize,
    },
    I64 {
        inst: PrimInstance<AggrMinMaxI64Grouped>,
        accs: Vec<i64>,
        col: usize,
        unit: i64,
    },
    F64 {
        inst: PrimInstance<AggrSumF64Grouped>,
        accs: Vec<f64>,
        col: usize,
        unit: f64,
    },
    Count {
        inst: PrimInstance<AggrCountGrouped>,
        accs: Vec<i64>,
    },
}

impl AccBuf {
    /// Live accumulator bytes (length-based): 16 per group for the
    /// 128-bit sums, 8 otherwise. Reported by the byte-accounting facade.
    fn bytes(&self) -> u64 {
        let (groups, width) = match self {
            AccBuf::Sum128 { accs, .. } => (accs.len(), 16),
            AccBuf::I64 { accs, .. } | AccBuf::Count { accs, .. } => (accs.len(), 8),
            AccBuf::F64 { accs, .. } => (accs.len(), 8),
        };
        (groups as u64).saturating_mul(width)
    }

    fn create(agg: &Agg, prims: &Instances) -> Result<Self, ExecError> {
        let Some((func, ty, col)) = agg.of else {
            return Ok(AccBuf::Count {
                inst: prims.get("aggr_count", "aggr_count")?,
                accs: Vec::new(),
            });
        };
        Ok(match (func, ty) {
            (AggFunc::Sum, NumType::I64) => AccBuf::Sum128 {
                inst: prims.aggr("aggr", func, ty)?,
                accs: Vec::new(),
                col,
            },
            (_, NumType::I64) => AccBuf::I64 {
                inst: prims.aggr("aggr", func, ty)?,
                accs: Vec::new(),
                col,
                unit: func.over_i64().0,
            },
            (_, NumType::F64) => AccBuf::F64 {
                inst: prims.aggr("aggr", func, ty)?,
                accs: Vec::new(),
                col,
                unit: func.over_f64().0,
            },
        })
    }

    fn grow(&mut self, groups: usize) {
        match self {
            AccBuf::Sum128 { accs, .. } => accs.resize(groups, 0),
            AccBuf::I64 { accs, unit, .. } => accs.resize(groups, *unit),
            AccBuf::F64 { accs, unit, .. } => accs.resize(groups, *unit),
            AccBuf::Count { accs, .. } => accs.resize(groups, 0),
        }
    }

    fn update(&mut self, chunk: &DataChunk, gids: &[u32], sel: Option<&[u32]>, live: u64) {
        match self {
            AccBuf::Sum128 { inst, accs, col } => {
                let c = chunk.column(*col).as_i64();
                inst.invoke(live, |f| f(accs, gids, c, sel));
            }
            AccBuf::I64 {
                inst, accs, col, ..
            } => {
                let c = chunk.column(*col).as_i64();
                inst.invoke(live, |f| f(accs, gids, c, sel));
            }
            AccBuf::F64 {
                inst, accs, col, ..
            } => {
                let c = chunk.column(*col).as_f64();
                inst.invoke(live, |f| f(accs, gids, c, sel));
            }
            AccBuf::Count { inst, accs } => {
                inst.invoke(live, |f| f(accs, gids, sel));
            }
        }
    }

    fn finish(self) -> Vector {
        match self {
            AccBuf::Sum128 { accs, .. } => Vector::I64(accs.into_iter().map(narrow_sum).collect()),
            AccBuf::I64 { accs, .. } | AccBuf::Count { accs, .. } => Vector::I64(accs),
            AccBuf::F64 { accs, .. } => Vector::F64(accs),
        }
    }
}

// --- key handling -----------------------------------------------------------

/// One step of the hash pipeline over the key columns: the first key
/// column is hashed (`map_hash_*`), every further one combined in
/// (`map_rehash_*`, the same primitive type).
enum HashStep {
    /// Integer key column: hash the normalized i64 scratch.
    I64(PrimInstance<MapHash<i64>>, usize),
    /// String key column.
    Str(PrimInstance<MapHashStr>, usize),
}

enum KeyTable {
    /// One integer key column: `GroupTable` on the normalized value.
    Int {
        table: GroupTable,
        insert: PrimInstance<GroupInsertCheck>,
    },
    /// Anything else goes through the byte-keyed `StrGroupTable` (the
    /// Fig. 4(e) path): one string key column passes its arena and views
    /// straight through, several key columns pass their [`KeyRows`].
    Bytes {
        table: StrGroupTable,
        insert: PrimInstance<StrGroupInsertCheck>,
    },
}

/// How many new groups to reserve room for before an insertcheck pass:
/// `live` (every live tuple may open a group) clamped to the groups a
/// proven bound still permits — a sound bound guarantees at most
/// `hint - groups` further distinct keys, so the clamp never
/// under-reserves (the group tables never rehash inside `find_or_insert`,
/// and probing a *present* key terminates at any load factor, so a
/// zero-room pass over already-seen keys is safe). An unsound bound is
/// caught by the post-pass group-count guard in `consume_chunk`: the
/// table's ≤50% load invariant leaves at least `hint` free slots of
/// headroom, so the offending pass still terminates and errors out.
fn clamped_reserve(live: usize, groups: usize, hint: Option<usize>) -> usize {
    match hint {
        Some(h) => live.min(h.saturating_sub(groups)),
        None => live,
    }
}

/// Calls `f` with every live position of a chunk of `n` tuples.
#[inline]
fn for_each_live(sel: Option<&[u32]>, n: usize, mut f: impl FnMut(usize)) {
    match sel {
        Some(s) => s.iter().for_each(|&i| f(i as usize)),
        None => (0..n).for_each(f),
    }
}

/// Bytes a key column of type `ty` adds to every key row, not counting a
/// string's own bytes; `None` for a type that cannot be a group key. The
/// cost pass sizes the stored keys from the same table.
pub(crate) fn key_row_width(ty: DataType) -> Option<u32> {
    match ty {
        DataType::I16 => Some(2),
        DataType::I32 => Some(4),
        DataType::I64 => Some(8),
        // the `u32` length prefix
        DataType::Str => Some(4),
        DataType::F64 => None,
    }
}

/// The composite group keys of one chunk as byte rows, built a column at a
/// time: per live tuple the little-endian bytes of each integer key column
/// and a `u32` length + the bytes of each string key column. The column
/// types are fixed per operator, which makes the encoding injective. Both
/// buffers are operator scratch, reused across chunks.
#[derive(Default)]
struct KeyRows {
    /// Bytes of a row before its strings: the integer keys plus one `u32`
    /// length per string key.
    fixed: u32,
    arena: Vec<u8>,
    /// Per chunk position; meaningful at live positions only.
    views: Vec<(u32, u32)>,
}

impl KeyRows {
    /// Scratch for keys of these column types, in key order.
    fn for_types(types: impl Iterator<Item = DataType>) -> Result<Self, ExecError> {
        let mut fixed = 0;
        for ty in types {
            fixed += key_row_width(ty).ok_or_else(|| {
                ExecError::Plan(format!(
                    "{ty} group keys are unsupported: group by integers or strings"
                ))
            })?;
        }
        Ok(KeyRows {
            fixed,
            ..KeyRows::default()
        })
    }

    fn fill(
        &mut self,
        chunk: &DataChunk,
        cols: &[usize],
        sel: Option<&[u32]>,
    ) -> Result<(), ExecError> {
        let n = chunk.len();
        let KeyRows {
            fixed,
            arena,
            views,
        } = self;

        // Row sizes, held in each view's length field: the fixed part plus
        // every string key's length.
        views.clear();
        views.resize(n, (0, *fixed));
        let mut overflow = false;
        for &c in cols {
            if let Vector::Str(sv) = chunk.column(c).as_ref() {
                let lens = sv.views();
                for_each_live(sel, n, |i| {
                    let (size, o) = views[i].1.overflowing_add(lens[i].1);
                    views[i].1 = size;
                    overflow |= o;
                });
            }
        }
        // Offsets in live order. The length field restarts at zero and is
        // each row's write cursor below, ending at the row size again.
        let mut end = 0u32;
        for_each_live(sel, n, |i| {
            let size = views[i].1;
            views[i] = (end, 0);
            let (e, o) = end.overflowing_add(size);
            end = e;
            overflow |= o;
        });
        if overflow {
            return Err(ExecError::Plan(
                "the group keys of one vector exceed 4 GiB".into(),
            ));
        }
        arena.clear();
        arena.resize(end as usize, 0);

        let mut put = |i: usize, bytes: &[u8]| {
            let (off, len) = &mut views[i];
            arena[*off as usize + *len as usize..][..bytes.len()].copy_from_slice(bytes);
            *len += bytes.len() as u32;
        };
        for &c in cols {
            match chunk.column(c).as_ref() {
                Vector::I16(v) => for_each_live(sel, n, |i| put(i, &v[i].to_le_bytes())),
                Vector::I32(v) => for_each_live(sel, n, |i| put(i, &v[i].to_le_bytes())),
                Vector::I64(v) => for_each_live(sel, n, |i| put(i, &v[i].to_le_bytes())),
                Vector::Str(v) => for_each_live(sel, n, |i| {
                    put(i, &v.views()[i].1.to_le_bytes());
                    put(i, v.get_bytes(i));
                }),
                Vector::F64(_) => unreachable!("HashAggregate::new rejects f64 group keys"),
            }
        }
        Ok(())
    }
}

// --- the operator ------------------------------------------------------------

/// Hash aggregation: `GROUP BY group_cols` computing `specs`.
pub struct HashAggregate {
    child: BoxOp,
    group_cols: Vec<usize>,
    hash_steps: Vec<HashStep>,
    key_table: KeyTable,
    accs: Vec<AccBuf>,
    key_builders: Vec<ColumnBuilder>,
    types: Vec<DataType>,
    vector_size: usize,
    done: Option<std::vec::IntoIter<DataChunk>>,
    /// The analyzer's proven distinct-group bound, when lowered from a
    /// plan: clamps speculative reservations (`with_group_bound`).
    group_hint: Option<usize>,
    /// Byte-accounting slot recording this instance's high-water mark.
    tracker: Option<crate::adaptive::MemTracker>,
    // scratch
    hashes: Vec<u64>,
    gids: Vec<u32>,
    keyscratch: Vec<i64>,
    keys_u64: Vec<u64>,
    key_rows: KeyRows,
}

impl HashAggregate {
    /// Builds the operator. `group_cols` must be non-empty (use
    /// [`StreamAggregate`] otherwise); integer and string key columns are
    /// supported, an `F64` one is a plan error.
    pub fn new(
        child: BoxOp,
        group_cols: Vec<usize>,
        specs: Vec<Agg>,
        ctx: &QueryContext,
        label: &str,
    ) -> Result<Self, ExecError> {
        if group_cols.is_empty() {
            return Err(ExecError::Plan(
                "HashAggregate requires group columns; use StreamAggregate".into(),
            ));
        }
        let in_types = child.out_types().to_vec();
        for &c in &group_cols {
            if c >= in_types.len() {
                return Err(ExecError::Plan(format!("group column {c} out of range")));
            }
        }
        let key_rows = KeyRows::for_types(group_cols.iter().map(|&c| in_types[c]))?;

        // Hash pipeline over the key columns.
        let prims = Instances { ctx, label };
        let mut hash_steps = Vec::with_capacity(group_cols.len());
        for (k, &c) in group_cols.iter().enumerate() {
            let is_str = in_types[c] == DataType::Str;
            let (sig, name) = match (k == 0, is_str) {
                (true, false) => ("map_hash_i64_col", "map_hash"),
                (false, false) => ("map_rehash_i64_col", "map_rehash"),
                (true, true) => ("map_hash_str_col", "map_hash_str"),
                (false, true) => ("map_rehash_str_col", "map_rehash_str"),
            };
            hash_steps.push(if is_str {
                HashStep::Str(prims.get(sig, name)?, c)
            } else {
                HashStep::I64(prims.get(sig, name)?, c)
            });
        }

        // Group table choice.
        let key_table = if group_cols.len() == 1 && in_types[group_cols[0]] != DataType::Str {
            KeyTable::Int {
                table: GroupTable::new(),
                insert: prims.get("hash_insertcheck_u64_col", "insertcheck_u64")?,
            }
        } else {
            KeyTable::Bytes {
                table: StrGroupTable::new(),
                insert: prims.get("hash_insertcheck_str_col", "insertcheck_str")?,
            }
        };

        let mut types: Vec<DataType> = group_cols.iter().map(|&c| in_types[c]).collect();
        types.extend(out_types(&specs, &in_types)?);
        let accs = specs
            .iter()
            .map(|s| AccBuf::create(s, &prims))
            .collect::<Result<Vec<_>, _>>()?;

        let key_builders = group_cols
            .iter()
            .map(|&c| ColumnBuilder::with_capacity(in_types[c], 1024))
            .collect();

        Ok(HashAggregate {
            child,
            group_cols,
            hash_steps,
            key_table,
            accs,
            key_builders,
            types,
            vector_size: ctx.vector_size(),
            done: None,
            group_hint: None,
            tracker: None,
            hashes: Vec::new(),
            gids: Vec::new(),
            keyscratch: Vec::new(),
            keys_u64: Vec::new(),
            key_rows,
        })
    }

    /// Clamps speculative reservations to the analyzer's proven
    /// distinct-group bound: key builders pre-allocate `min(1024, bound)`
    /// rows, and per-chunk group-table reserves never exceed the groups
    /// the bound still permits. Call before the first chunk is consumed.
    pub fn with_group_bound(mut self, bound: usize) -> Self {
        self.group_hint = Some(bound);
        let cap = bound.min(1024);
        self.key_builders = self
            .group_cols
            .iter()
            .enumerate()
            .map(|(i, _)| ColumnBuilder::with_capacity(self.types[i], cap))
            .collect();
        self
    }

    /// Attaches a byte-accounting slot; the operator records its live
    /// table + builder + accumulator bytes after every consumed chunk.
    pub fn with_tracker(mut self, tracker: crate::adaptive::MemTracker) -> Self {
        self.tracker = Some(tracker);
        self
    }

    /// Live resident bytes of the aggregation state (length-based).
    fn resident_bytes(&self) -> u64 {
        let table = match &self.key_table {
            KeyTable::Int { table, .. } => table.bytes(),
            KeyTable::Bytes { table, .. } => table.bytes(),
        };
        let builders = self
            .key_builders
            .iter()
            .fold(0u64, |a, b| a.saturating_add(b.bytes() as u64));
        let accs = self
            .accs
            .iter()
            .fold(0u64, |a, b| a.saturating_add(b.bytes()));
        table.saturating_add(builders).saturating_add(accs)
    }

    fn consume_chunk(&mut self, chunk: &DataChunk) -> Result<(), ExecError> {
        let n = chunk.len();
        let sel = chunk.sel().map(SelVec::as_slice);
        let live = chunk.live_count() as u64;
        if live == 0 {
            return Ok(());
        }
        self.hashes.resize(n.max(self.hashes.len()), 0);
        self.gids.resize(n.max(self.gids.len()), 0);
        let hashes = &mut self.hashes[..n];
        let gids = &mut self.gids[..n];

        // 1. hash pipeline
        for step in &mut self.hash_steps {
            match step {
                HashStep::I64(inst, c) => {
                    normalize_keys_i64(chunk.column(*c), &mut self.keyscratch);
                    let keys = &self.keyscratch;
                    inst.invoke(live, |f| f(hashes, keys, sel));
                }
                HashStep::Str(inst, c) => {
                    let keys = chunk.column(*c).as_str_vec();
                    inst.invoke(live, |f| f(hashes, keys, sel));
                }
            }
        }

        // 2. insertcheck (group-id assignment)
        let (prev_groups, groups_now) = match &mut self.key_table {
            KeyTable::Int { table, insert } => {
                let prev = table.groups();
                // The one hash step above left this column's normalized
                // values in `keyscratch`.
                self.keys_u64.clear();
                self.keys_u64
                    .extend(self.keyscratch.iter().map(|&k| k as u64));
                let keys = &self.keys_u64;
                table.reserve(clamped_reserve(
                    live as usize,
                    prev as usize,
                    self.group_hint,
                ));
                let now = insert.invoke(live, |f| f(table, hashes, keys, gids, sel));
                (prev, now)
            }
            KeyTable::Bytes { table, insert } => {
                let prev = table.groups();
                table.reserve(clamped_reserve(
                    live as usize,
                    prev as usize,
                    self.group_hint,
                ));
                let (arena, views): (&[u8], &[(u32, u32)]) = match self.group_cols[..] {
                    [c] => {
                        let keys = chunk.column(c).as_str_vec();
                        (keys.arena(), keys.views())
                    }
                    _ => {
                        self.key_rows.fill(chunk, &self.group_cols, sel)?;
                        (&self.key_rows.arena, &self.key_rows.views)
                    }
                };
                let now = insert.invoke(live, |f| f(table, hashes, arena, views, gids, sel));
                (prev, now)
            }
        };

        // The clamped reservation above leans on the proven bound; verify
        // it held rather than trusting the analyzer blindly. (The ≤50%
        // load invariant guarantees the pass itself terminated.)
        if let Some(h) = self.group_hint {
            if groups_now as usize > h {
                return Err(ExecError::Plan(format!(
                    "proven group bound violated: {groups_now} groups exceed \
                     the analyzer's bound of {h} (unsound analysis)"
                )));
            }
        }

        // 3. record representative key values for new groups, in gid order
        // (insertcheck assigns fresh gids densely, in position order).
        if groups_now > prev_groups {
            let mut next = prev_groups;
            for_each_live(sel, n, |p| {
                if gids[p] == next {
                    for (b, &c) in self.key_builders.iter_mut().zip(&self.group_cols) {
                        match chunk.column(c).as_ref() {
                            Vector::I16(v) => b.push_i16(v[p]),
                            Vector::I32(v) => b.push_i32(v[p]),
                            Vector::I64(v) => b.push_i64(v[p]),
                            Vector::F64(v) => b.push_f64(v[p]),
                            Vector::Str(v) => b.push_str(v.get(p)),
                        }
                    }
                    next += 1;
                }
            });
            debug_assert_eq!(next, groups_now, "dense gid assignment violated");
        }

        // 4. update accumulators
        for acc in &mut self.accs {
            acc.grow(groups_now as usize);
            acc.update(chunk, gids, sel, live);
        }

        if let Some(t) = &self.tracker {
            t.record(self.resident_bytes());
        }
        Ok(())
    }

    fn finalize(&mut self) -> Vec<DataChunk> {
        let groups = match &self.key_table {
            KeyTable::Int { table, .. } => table.groups() as usize,
            KeyTable::Bytes { table, .. } => table.groups() as usize,
        };
        // Ensure accumulators cover groups even if zero chunks arrived.
        for acc in &mut self.accs {
            acc.grow(groups);
        }
        let mut store = RowStore::new(self.types.clone());
        // Build one big chunk column-wise: keys then aggregates.
        let mut cols: Vec<Arc<Vector>> = Vec::with_capacity(self.types.len());
        for b in std::mem::take(&mut self.key_builders) {
            let col = b.finish();
            cols.push(Arc::new(col.slice_vector(0, groups)));
        }
        for acc in std::mem::take(&mut self.accs) {
            cols.push(Arc::new(acc.finish()));
        }
        if groups == 0 {
            return Vec::new();
        }
        let chunk = DataChunk::new(cols);
        store.append(&chunk, &(0..self.types.len()).collect::<Vec<_>>());
        if let Some(t) = &self.tracker {
            // Emission phase: the table is still resident alongside the
            // materialized output copy (covered by the bound's output
            // term).
            let table = match &self.key_table {
                KeyTable::Int { table, .. } => table.bytes(),
                KeyTable::Bytes { table, .. } => table.bytes(),
            };
            t.record(table.saturating_add(store.bytes()));
        }
        store.freeze().to_chunks(self.vector_size)
    }
}

impl Operator for HashAggregate {
    fn next(&mut self) -> Result<Option<DataChunk>, ExecError> {
        if self.done.is_none() {
            while let Some(chunk) = self.child.next()? {
                self.consume_chunk(&chunk)?;
            }
            self.done = Some(self.finalize().into_iter());
        }
        Ok(self.done.as_mut().unwrap().next())
    }

    fn out_types(&self) -> &[DataType] {
        &self.types
    }
}

// --- ungrouped ---------------------------------------------------------------

/// As [`AccBuf`], with `combine` folding each vector's partial result in.
enum Acc0 {
    Sum128 {
        inst: PrimInstance<AggrSumI64>,
        acc: i128,
        col: usize,
    },
    I64 {
        inst: PrimInstance<AggrMinMaxI64>,
        acc: i64,
        col: usize,
        combine: fn(i64, i64) -> i64,
    },
    F64 {
        inst: PrimInstance<AggrSumF64>,
        acc: f64,
        col: usize,
        combine: fn(f64, f64) -> f64,
    },
    Count {
        acc: i64,
    },
}

impl Acc0 {
    fn create(agg: &Agg, prims: &Instances) -> Result<Self, ExecError> {
        let Some((func, ty, col)) = agg.of else {
            return Ok(Acc0::Count { acc: 0 });
        };
        Ok(match (func, ty) {
            (AggFunc::Sum, NumType::I64) => Acc0::Sum128 {
                inst: prims.aggr("aggr0", func, ty)?,
                acc: 0,
                col,
            },
            (_, NumType::I64) => {
                let inst = prims.aggr("aggr0", func, ty)?;
                let (acc, combine) = func.over_i64();
                Acc0::I64 {
                    inst,
                    acc,
                    col,
                    combine,
                }
            }
            (_, NumType::F64) => {
                let inst = prims.aggr("aggr0", func, ty)?;
                let (acc, combine) = func.over_f64();
                Acc0::F64 {
                    inst,
                    acc,
                    col,
                    combine,
                }
            }
        })
    }
}

/// Ungrouped aggregation: one output row.
pub struct StreamAggregate {
    child: BoxOp,
    accs: Vec<Acc0>,
    types: Vec<DataType>,
    done: bool,
}

impl StreamAggregate {
    /// Builds the operator over `specs`.
    pub fn new(
        child: BoxOp,
        specs: Vec<Agg>,
        ctx: &QueryContext,
        label: &str,
    ) -> Result<Self, ExecError> {
        let types = out_types(&specs, child.out_types())?;
        let accs = specs
            .iter()
            .map(|s| Acc0::create(s, &Instances { ctx, label }))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(StreamAggregate {
            child,
            accs,
            types,
            done: false,
        })
    }
}

impl Operator for StreamAggregate {
    fn next(&mut self) -> Result<Option<DataChunk>, ExecError> {
        if self.done {
            return Ok(None);
        }
        while let Some(chunk) = self.child.next()? {
            let sel_owned = chunk.sel().cloned();
            let sel = sel_owned.as_ref().map(SelVec::as_slice);
            let live = chunk.live_count() as u64;
            for acc in &mut self.accs {
                match acc {
                    Acc0::Sum128 { inst, acc, col } => {
                        let c = chunk.column(*col).as_i64();
                        *acc += inst.invoke(live, |f| f(c, sel));
                    }
                    Acc0::I64 {
                        inst,
                        acc,
                        col,
                        combine,
                    } => {
                        let c = chunk.column(*col).as_i64();
                        *acc = combine(*acc, inst.invoke(live, |f| f(c, sel)));
                    }
                    Acc0::F64 {
                        inst,
                        acc,
                        col,
                        combine,
                    } => {
                        let c = chunk.column(*col).as_f64();
                        *acc = combine(*acc, inst.invoke(live, |f| f(c, sel)));
                    }
                    Acc0::Count { acc } => *acc += live as i64,
                }
            }
        }
        self.done = true;
        let cols = self
            .accs
            .iter()
            .map(|acc| {
                Arc::new(match acc {
                    Acc0::Sum128 { acc, .. } => Vector::I64(vec![narrow_sum(*acc)]),
                    Acc0::I64 { acc, .. } | Acc0::Count { acc } => Vector::I64(vec![*acc]),
                    Acc0::F64 { acc, .. } => Vector::F64(vec![*acc]),
                })
            })
            .collect();
        Ok(Some(DataChunk::new(cols)))
    }

    fn out_types(&self) -> &[DataType] {
        &self.types
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecConfig;
    use crate::expr::{CmpKind, Pred, Value};
    use crate::ops::{collect, total_rows, Scan, Select};
    use ma_primitives::build_dictionary;
    use ma_vector::{StrVec, Table};

    fn ctx() -> QueryContext {
        QueryContext::new(Arc::new(build_dictionary()), ExecConfig::fixed_default())
    }

    /// Table: k in 0..7 cycling, v = row index, s in {"a","b","c"} cycling.
    fn scan(n: usize) -> BoxOp {
        let mut k = ColumnBuilder::with_capacity(DataType::I32, n);
        let mut v = ColumnBuilder::with_capacity(DataType::I64, n);
        let mut s = ColumnBuilder::with_capacity(DataType::Str, n);
        let names = ["a", "b", "c"];
        for i in 0..n {
            k.push_i32((i % 7) as i32);
            v.push_i64(i as i64);
            s.push_str(names[i % 3]);
        }
        let t = Arc::new(
            Table::new(
                "t",
                vec![
                    ("k".into(), k.finish()),
                    ("v".into(), v.finish()),
                    ("s".into(), s.finish()),
                ],
            )
            .unwrap(),
        );
        Box::new(Scan::new(t, &["k", "v", "s"], 128).unwrap())
    }

    #[test]
    fn single_int_key_grouping() {
        let c = ctx();
        let mut agg = HashAggregate::new(
            scan(700),
            vec![0],
            vec![Agg::count(), Agg::sum_i64(1)],
            &c,
            "t",
        )
        .unwrap();
        let chunks = collect(&mut agg).unwrap();
        assert_eq!(total_rows(&chunks), 7);
        let ch = &chunks[0];
        // Each key occurs 100 times.
        for g in 0..7 {
            assert_eq!(ch.column(1).as_i64()[g], 100);
        }
        // Sums: key appears at rows key, key+7, ... → sum = 100*key + 7*(0+..+99)
        for g in 0..7 {
            let key = ch.column(0).as_i32()[g] as i64;
            assert_eq!(ch.column(2).as_i64()[g], 100 * key + 7 * 4950);
        }
    }

    #[test]
    fn single_str_key_grouping() {
        let c = ctx();
        let mut agg = HashAggregate::new(scan(300), vec![2], vec![Agg::count()], &c, "t").unwrap();
        let chunks = collect(&mut agg).unwrap();
        assert_eq!(total_rows(&chunks), 3);
        let ch = &chunks[0];
        for g in 0..3 {
            assert_eq!(ch.column(1).as_i64()[g], 100);
            assert!(["a", "b", "c"].contains(&ch.column(0).as_str_vec().get(g)));
        }
    }

    #[test]
    fn multi_key_grouping() {
        let c = ctx();
        // (k mod 7, s mod 3): 21 distinct pairs over 2100 rows → 100 each.
        let mut agg = HashAggregate::new(
            scan(2100),
            vec![0, 2],
            vec![Agg::count(), Agg::min_i64(1), Agg::max_i64(1)],
            &c,
            "t",
        )
        .unwrap();
        let chunks = collect(&mut agg).unwrap();
        assert_eq!(total_rows(&chunks), 21);
        for ch in &chunks {
            for p in ch.live_positions() {
                assert_eq!(ch.column(2).as_i64()[p], 100);
                let min = ch.column(3).as_i64()[p];
                let max = ch.column(4).as_i64()[p];
                assert!(min < max);
                // rows repeat with period 21
                assert_eq!((max - min) % 21, 0);
            }
        }
    }

    fn key_rows(chunk: &DataChunk, sel: Option<&[u32]>) -> KeyRows {
        let cols: Vec<usize> = (0..chunk.columns().len()).collect();
        let mut rows = KeyRows::for_types(chunk.columns().iter().map(|c| c.data_type())).unwrap();
        rows.fill(chunk, &cols, sel).unwrap();
        rows
    }

    fn row(rows: &KeyRows, i: usize) -> &[u8] {
        let (off, len) = rows.views[i];
        &rows.arena[off as usize..][..len as usize]
    }

    #[test]
    fn key_rows_layout_and_selection() {
        let chunk = DataChunk::new(vec![
            Arc::new(Vector::I16(vec![-2, 7, 7])),
            Arc::new(Vector::Str(StrVec::from_strings(&["ab", "", "a\0"]))),
            Arc::new(Vector::I64(vec![1, -1, 1 << 40])),
        ]);
        let rows = key_rows(&chunk, None);
        assert_eq!(
            row(&rows, 0),
            [&[0xfe, 0xff][..], &[2, 0, 0, 0], b"ab", &1i64.to_le_bytes()].concat()
        );
        assert_eq!(
            row(&rows, 1),
            [&[7, 0][..], &[0, 0, 0, 0], &(-1i64).to_le_bytes()].concat()
        );
        assert_eq!(rows.arena.len(), 16 + 14 + 16);

        // Only live rows are written, packed in selection order; the
        // scratch is reused.
        let mut rows = rows;
        rows.fill(&chunk, &[0, 1, 2], Some(&[2])).unwrap();
        assert_eq!(rows.views[2], (0, 16));
        assert_eq!(rows.arena.len(), 16);
        assert_eq!(&row(&rows, 2)[..8], [7, 0, 2, 0, 0, 0, b'a', 0]);
    }

    /// The hex encoding this replaces wrote a string's length as
    /// `len as u16`, so these two rows serialized to the same bytes
    /// (`"0001a;0000xxx…x;0000;"`) and only their hashes kept them apart.
    #[test]
    fn key_rows_stay_injective_past_64k_strings() {
        let filler = "x".repeat(65_531);
        let s1 = format!("a;0000{filler}");
        let t2 = format!("{filler};0000");
        assert_eq!((s1.len(), t2.len()), (65_537, 65_536));
        let chunk = DataChunk::new(vec![
            Arc::new(Vector::Str(StrVec::from_strings(&[s1.as_str(), "a"]))),
            Arc::new(Vector::Str(StrVec::from_strings(&["", t2.as_str()]))),
        ]);
        let rows = key_rows(&chunk, None);
        assert_ne!(row(&rows, 0), row(&rows, 1));
        // ("", "ab") and ("a", "b") differ in the first length already.
        let chunk = DataChunk::new(vec![
            Arc::new(Vector::Str(StrVec::from_strings(&["", "a"]))),
            Arc::new(Vector::Str(StrVec::from_strings(&["ab", "b"]))),
        ]);
        let rows = key_rows(&chunk, None);
        assert_ne!(row(&rows, 0), row(&rows, 1));
    }

    #[test]
    fn grouping_respects_selection_vector() {
        let c = ctx();
        let pred = Pred::cmp_val(1, CmpKind::Lt, Value::I64(70));
        let sel = Select::new(scan(700), &pred, &c, "s").unwrap();
        let mut agg =
            HashAggregate::new(Box::new(sel), vec![0], vec![Agg::count()], &c, "t").unwrap();
        let chunks = collect(&mut agg).unwrap();
        assert_eq!(total_rows(&chunks), 7);
        let ch = &chunks[0];
        let total: i64 = (0..7).map(|g| ch.column(1).as_i64()[g]).sum();
        assert_eq!(total, 70);
    }

    #[test]
    fn stream_aggregate_totals() {
        let c = ctx();
        let mut agg = StreamAggregate::new(
            scan(100),
            vec![
                Agg::sum_i64(1),
                Agg::count(),
                Agg::min_i64(1),
                Agg::max_i64(1),
            ],
            &c,
            "t",
        )
        .unwrap();
        let chunks = collect(&mut agg).unwrap();
        assert_eq!(chunks.len(), 1);
        let ch = &chunks[0];
        assert_eq!(ch.len(), 1);
        assert_eq!(ch.column(0).as_i64()[0], 4950);
        assert_eq!(ch.column(1).as_i64()[0], 100);
        assert_eq!(ch.column(2).as_i64()[0], 0);
        assert_eq!(ch.column(3).as_i64()[0], 99);
    }

    #[test]
    fn empty_input_yields_no_groups() {
        let c = ctx();
        let pred = Pred::cmp_val(1, CmpKind::Lt, Value::I64(-1));
        let sel = Select::new(scan(100), &pred, &c, "s").unwrap();
        let mut agg =
            HashAggregate::new(Box::new(sel), vec![0], vec![Agg::count()], &c, "t").unwrap();
        assert!(agg.next().unwrap().is_none());
    }

    #[test]
    fn empty_group_cols_rejected() {
        let c = ctx();
        assert!(HashAggregate::new(scan(10), vec![], vec![Agg::count()], &c, "t").is_err());
    }

    /// A mistyped or out-of-range aggregate column is a plan error at
    /// construction (both used to build, then panic on their first chunk).
    #[test]
    fn bad_aggregate_columns_rejected_at_construction() {
        let c = ctx();
        assert!(matches!(
            HashAggregate::new(scan(10), vec![0], vec![Agg::sum_i64(9)], &c, "t"),
            Err(ExecError::Plan(_))
        ));
        assert!(matches!(
            StreamAggregate::new(scan(10), vec![Agg::sum_f64(1)], &c, "t"),
            Err(ExecError::Plan(_))
        ));
    }

    #[test]
    fn f64_aggregates() {
        let c = ctx();
        // Project v to f64 via a scan of v only — easier: sum f64 over cast
        // is covered in eval tests; here use MinF64/MaxF64 over f64 column
        // derived from v with Project.
        use crate::expr::Expr;
        use crate::ops::{ProjItem, Project};
        let p = Project::new(
            scan(50),
            vec![
                ProjItem::Pass(0),
                ProjItem::Expr(Expr::Col(1).cast(DataType::F64)),
            ],
            &c,
            "p",
        )
        .unwrap();
        let mut agg = StreamAggregate::new(
            Box::new(p),
            vec![Agg::sum_f64(1), Agg::min_f64(1), Agg::max_f64(1)],
            &c,
            "t",
        )
        .unwrap();
        let ch = agg.next().unwrap().unwrap();
        assert_eq!(ch.column(0).as_f64()[0], 1225.0);
        assert_eq!(ch.column(1).as_f64()[0], 0.0);
        assert_eq!(ch.column(2).as_f64()[0], 49.0);
    }
}
