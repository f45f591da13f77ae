//! Aggregation operators.
//!
//! [`HashAggregate`] implements vectorized hash aggregation exactly as §1
//! sketches: per input vector it computes a hash vector (`map_hash_*` /
//! `map_rehash_*` instances), finds-or-inserts group ids
//! (`hash_insertcheck_*`, the primitive of Fig. 4e), then updates
//! accumulators with grouped `aggr_*` primitives. When every group key has
//! a small proven domain ([`KeyDomain`]) the planner builds it with
//! [`HashAggregate::new_dense`] instead: each key maps to its slot in the
//! domains' product and `hash_insertcheck_dense` indexes that slot, with no
//! hashing at all. [`StreamAggregate`] handles the ungrouped case with
//! `aggr0_*` primitives.

use std::sync::Arc;

use ma_primitives::{
    AggrCountGrouped, AggrMinMaxI64, AggrMinMaxI64Grouped, AggrSumF64, AggrSumF64Grouped,
    AggrSumI64, AggrSumI64Grouped, DenseGroupTable, DenseInsertCheck, GroupInsertCheck, GroupTable,
    MapHash, MapHashStr, StrGroupInsertCheck, StrGroupTable,
};
use ma_vector::encode::DictStr;
use ma_vector::{DataChunk, DataType, Field, Schema, SelVec, StrVec, Vector};

use crate::adaptive::HeurKind;
use crate::expr::{Agg, AggFunc, NumType};
use crate::ops::{normalize_keys_i64, BoxOp, Operator, RowStore};
use crate::plan::PlanError;
use crate::{ExecError, NodeScope, PrimInstance};

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

/// The instance computing `func` over `ty`: `aggr_sum128_i64_col`
/// displayed as `{label}/aggr_sum128_i64`, with `pre` `aggr` (grouped) or
/// `aggr0` (ungrouped).
fn aggr<F>(
    scope: &NodeScope,
    pre: &str,
    func: AggFunc,
    ty: NumType,
) -> Result<PrimInstance<F>, ExecError>
where
    F: Copy + Send + Sync + 'static,
{
    let stem = match (func, ty) {
        (AggFunc::Sum, NumType::I64) => "sum128",
        _ => func.name(),
    };
    let name = format!("{pre}_{stem}_{}", ty.data_type());
    scope.instance(&format!("{name}_col"), &name, HeurKind::None)
}

/// The checked narrowing of `inst`'s 128-bit sum `v` to its `i64` output
/// column: overflow is a typed error, never a wrap.
fn narrow_sum<F: Copy>(v: i128, inst: &PrimInstance<F>) -> Result<i64, ExecError> {
    i64::try_from(v).map_err(|_| ExecError::SumOverflow {
        instance: inst.label().to_string(),
        sum: v,
    })
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

    fn create(agg: &Agg, scope: &NodeScope) -> Result<Self, ExecError> {
        let Some((func, ty, col)) = agg.of else {
            return Ok(AccBuf::Count {
                inst: scope.instance("aggr_count", "aggr_count", HeurKind::None)?,
                accs: Vec::new(),
            });
        };
        Ok(match (func, ty) {
            (AggFunc::Sum, NumType::I64) => AccBuf::Sum128 {
                inst: aggr(scope, "aggr", func, ty)?,
                accs: Vec::new(),
                col,
            },
            (_, NumType::I64) => AccBuf::I64 {
                inst: aggr(scope, "aggr", func, ty)?,
                accs: Vec::new(),
                col,
                unit: func.over_i64().0,
            },
            (_, NumType::F64) => AccBuf::F64 {
                inst: aggr(scope, "aggr", func, ty)?,
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

    fn finish(self) -> Result<Vector, ExecError> {
        Ok(match self {
            AccBuf::Sum128 { accs, inst, .. } => {
                let sums = accs.into_iter().map(|v| narrow_sum(v, &inst));
                Vector::I64(sums.collect::<Result<_, _>>()?)
            }
            AccBuf::I64 { accs, .. } | AccBuf::Count { accs, .. } => Vector::I64(accs),
            AccBuf::F64 { accs, .. } => Vector::F64(accs),
        })
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
    /// Every key has a proven domain: `DenseGroupTable` indexed by the
    /// slot the keys map to.
    Dense {
        table: DenseGroupTable,
        insert: PrimInstance<DenseInsertCheck>,
        keys: Vec<DenseKey>,
    },
}

impl KeyTable {
    fn groups(&self) -> u32 {
        match self {
            KeyTable::Int { table, .. } => table.groups(),
            KeyTable::Bytes { table, .. } => table.groups(),
            KeyTable::Dense { table, .. } => table.groups(),
        }
    }

    fn bytes(&self) -> u64 {
        match self {
            KeyTable::Int { table, .. } => table.bytes(),
            KeyTable::Bytes { table, .. } => table.bytes(),
            KeyTable::Dense { table, .. } => table.bytes(),
        }
    }
}

/// The most groups [`HashAggregate::with_group_bound`] sizes the table for
/// up front: 2^17 groups is a 4 MiB slot array, a typical L2 cache. A
/// larger bound grows the table as groups arrive.
const PRESIZE_GROUPS: usize = 1 << 17;

/// The most slots a dense key table may span: at 4 bytes a slot, the same
/// 4 MiB a table pre-sized for [`PRESIZE_GROUPS`] groups takes.
const DENSE_MAX_SLOTS: usize = 8 * PRESIZE_GROUPS;

// --- dense keys --------------------------------------------------------------

/// The proven value domain of one group key: what a dense key table
/// indexes.
#[derive(Debug, Clone)]
pub enum KeyDomain {
    /// An integer key whose every value lies in `[lo, hi]`.
    Int {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// A `Str` key whose every vector carries codes of this dictionary, so
    /// its codes lie in `[0, views.len())`.
    Dict(DictRef),
}

/// A dictionary whose codes a string column's vectors carry: its sorted
/// `views` into `arena`. Two handles name the same dictionary only when
/// they share the views allocation, the identity a dense key's runtime
/// check (`ptr::eq`) compares.
#[derive(Debug, Clone)]
pub struct DictRef {
    /// The dictionary's byte arena.
    pub arena: Arc<[u8]>,
    /// The dictionary's sorted entries.
    pub views: Arc<Vec<(u32, u32)>>,
}

impl DictRef {
    /// The dictionary of a dictionary-coded column.
    pub fn of(d: &DictStr) -> DictRef {
        DictRef {
            arena: Arc::clone(&d.arena),
            views: Arc::clone(&d.views),
        }
    }
}

impl PartialEq for DictRef {
    fn eq(&self, other: &DictRef) -> bool {
        Arc::ptr_eq(&self.views, &other.views)
    }
}

impl KeyDomain {
    /// The inclusive bounds of the key's slot offsets before `lo` is
    /// subtracted: the interval, or the dictionary's code range.
    fn bounds(&self) -> (i64, i64) {
        match self {
            KeyDomain::Int { lo, hi } => (*lo, *hi),
            KeyDomain::Dict(d) => (0, d.views.len() as i64 - 1),
        }
    }

    /// Distinct values the domain admits (0 when empty), saturating.
    fn width(&self) -> u64 {
        let (lo, hi) = self.bounds();
        let w = i128::from(hi) - i128::from(lo) + 1;
        u64::try_from(w.max(0)).unwrap_or(u64::MAX)
    }
}

/// Slots a dense key table over `domains` spans: the product of their
/// widths. `None` when a domain is empty or the product exceeds the 4 MiB
/// cap.
pub(crate) fn dense_slots(domains: &[KeyDomain]) -> Option<usize> {
    let mut slots = 1u64;
    for d in domains {
        slots = slots.checked_mul(d.width())?;
    }
    let slots = usize::try_from(slots).ok()?;
    (slots > 0 && slots <= DENSE_MAX_SLOTS).then_some(slots)
}

/// The dense-table rule: whether the slots a dense table over `domains`
/// spans number at most 8 per group the proven `group_bound` permits (a
/// bound above [`PRESIZE_GROUPS`] counts as that many). That is byte
/// parity with the hash table it replaces: a dense slot is 4 bytes, while
/// the open-addressing table spends at least 32 bytes per group at ≤ 50 %
/// load.
pub(crate) fn goes_dense(domains: &[KeyDomain], group_bound: usize) -> bool {
    dense_slots(domains).is_some_and(|slots| slots <= 8 * group_bound.min(PRESIZE_GROUPS))
}

/// The combine over the partials of a two-phase aggregate with `k` group
/// keys, aggregates `aggs` and dense `domains`, whose partials emit the
/// keys and then one column per aggregate: its group keys (the partials'
/// key columns), its aggregates (each folding its column of partial
/// results, [`Agg::combined`]) and the domains it stays dense over — all
/// of them when every key is an integer, none otherwise: a partial emits
/// a dictionary key's strings without their codes.
pub(crate) fn combine_of<'d>(
    k: usize,
    aggs: &[Agg],
    domains: &'d [KeyDomain],
) -> (Vec<usize>, Vec<Agg>, &'d [KeyDomain]) {
    let combined = aggs.iter().enumerate().map(|(i, a)| a.combined(k + i));
    let ints = domains.iter().all(|d| matches!(d, KeyDomain::Int { .. }));
    let dense = if ints { domains } else { &[] };
    ((0..k).collect(), combined.collect(), dense)
}

/// One key column of a dense key table.
struct DenseKey {
    col: usize,
    domain: KeyDomain,
    /// The product of the widths of the keys before this one.
    stride: u32,
}

impl DenseKey {
    /// Adds this key's share of the slot index, `(key − lo) × stride`, at
    /// every live position of `v`. A value outside the domain, or a string
    /// vector without the planned dictionary's codes, is an error: the
    /// planner's proof did not hold.
    fn add_slots(
        &self,
        v: &Vector,
        slots: &mut [u32],
        sel: Option<&[u32]>,
    ) -> Result<(), ExecError> {
        let in_domain = match (v, &self.domain) {
            (Vector::I16(k), KeyDomain::Int { .. }) => self.add_int_slots(k, slots, sel),
            (Vector::I32(k), KeyDomain::Int { .. }) => self.add_int_slots(k, slots, sel),
            (Vector::I64(k), KeyDomain::Int { .. }) => self.add_int_slots(k, slots, sel),
            (Vector::Str(s), KeyDomain::Dict(d)) => match s.dict_codes() {
                Some((dict, codes)) if std::ptr::eq(dict, d.views.as_slice()) => {
                    self.add_int_slots(codes, slots, sel)
                }
                _ => {
                    return Err(ExecError::Plan(format!(
                        "dense group key column {} arrived without the codes of its \
                         planned dictionary",
                        self.col
                    )))
                }
            },
            _ => unreachable!("HashAggregate::new_dense matches each domain to its column"),
        };
        if in_domain {
            Ok(())
        } else {
            let (lo, hi) = self.domain.bounds();
            Err(ExecError::Plan(format!(
                "proven key domain violated: group key column {} holds a value outside \
                 [{lo}, {hi}] (unsound analysis)",
                self.col
            )))
        }
    }

    /// [`DenseKey::add_slots`] over integer keys: whether every live key
    /// lay in `[lo, hi]`. An out-of-domain key leaves a wrapped slot index
    /// behind, which the caller never uses.
    fn add_int_slots<T: Copy + Into<i64>>(
        &self,
        keys: &[T],
        slots: &mut [u32],
        sel: Option<&[u32]>,
    ) -> bool {
        let ((lo, hi), stride) = (self.domain.bounds(), self.stride);
        let keys = &keys[..slots.len()];
        let mut ok = true;
        for_each_live(sel, slots.len(), |i| {
            let k: i64 = keys[i].into();
            ok &= lo <= k && k <= hi;
            let off = k.wrapping_sub(lo) as u32;
            slots[i] = slots[i].wrapping_add(off.wrapping_mul(stride));
        });
        ok
    }

    /// This key's column for the groups at `slots` (by gid).
    fn column(&self, ty: DataType, slots: &[u32]) -> Vector {
        let width = self.domain.width();
        let offs = slots.iter().map(|&s| u64::from(s / self.stride) % width);
        match &self.domain {
            KeyDomain::Int { lo, .. } => int_column(ty, offs.map(|o| lo + o as i64)),
            KeyDomain::Dict(d) => Vector::Str(StrVec::from_views(
                Arc::clone(&d.arena),
                offs.map(|o| d.views[o as usize]).collect(),
            )),
        }
    }
}

/// The dense keys of `group_cols` over `domains` (one each, checked
/// against the column types), with each key's stride the product of the
/// widths before it. [`dense_slots`] has bounded the whole product.
fn dense_keys(
    group_cols: &[usize],
    domains: Vec<KeyDomain>,
    in_types: &[DataType],
) -> Result<Vec<DenseKey>, ExecError> {
    if domains.len() != group_cols.len() {
        return Err(ExecError::Plan(format!(
            "{} dense key domains for {} group columns",
            domains.len(),
            group_cols.len()
        )));
    }
    let mut stride = 1u64;
    let mut keys = Vec::with_capacity(domains.len());
    for (&col, domain) in group_cols.iter().zip(domains) {
        let ty = in_types[col];
        let (fits, kind) = match domain {
            KeyDomain::Int { .. } => (
                matches!(ty, DataType::I16 | DataType::I32 | DataType::I64),
                "an integer",
            ),
            KeyDomain::Dict(_) => (ty == DataType::Str, "a dictionary"),
        };
        if !fits {
            return Err(ExecError::Plan(format!(
                "group column {col} of type {ty} cannot take {kind} dense domain"
            )));
        }
        let next = stride.saturating_mul(domain.width());
        keys.push(DenseKey {
            col,
            domain,
            stride: u32::try_from(stride)
                .map_err(|_| ExecError::Plan("dense key strides exceed u32 slots".into()))?,
        });
        stride = next;
    }
    Ok(keys)
}

/// An integer key column of type `ty` from `keys` widened to `i64` from
/// values of that very type, so narrowing them back is exact.
fn int_column(ty: DataType, keys: impl Iterator<Item = i64>) -> Vector {
    match ty {
        DataType::I16 => Vector::I16(keys.map(|k| k as i16).collect()),
        DataType::I32 => Vector::I32(keys.map(|k| k as i32).collect()),
        _ => Vector::I64(keys.collect()),
    }
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

    /// The key columns of `types` back out of rows [`KeyRows::fill`]
    /// wrote, one value per row: the rows are consumed front to back, one
    /// key column at a time.
    fn decode_columns(mut rows: Vec<&[u8]>, types: &[DataType]) -> Vec<Vector> {
        types
            .iter()
            .map(|ty| match ty {
                DataType::I16 => Vector::I16(read_keys(&mut rows, i16::from_le_bytes)),
                DataType::I32 => Vector::I32(read_keys(&mut rows, i32::from_le_bytes)),
                DataType::I64 => Vector::I64(read_keys(&mut rows, i64::from_le_bytes)),
                DataType::F64 => unreachable!("HashAggregate::new rejects f64 group keys"),
                DataType::Str => {
                    let strs: Vec<&[u8]> = rows
                        .iter_mut()
                        .map(|r| {
                            let len = u32::from_le_bytes(split_key(r));
                            let (s, rest) = r.split_at(len as usize);
                            *r = rest;
                            s
                        })
                        .collect();
                    Vector::Str(StrVec::from_byte_slices(strs.iter().copied()))
                }
            })
            .collect()
    }
}

/// Splits the first `N` bytes off a key row.
fn split_key<const N: usize>(row: &mut &[u8]) -> [u8; N] {
    let (head, rest) = row.split_at(N);
    *row = rest;
    let mut bytes = [0; N];
    bytes.copy_from_slice(head);
    bytes
}

/// One integer key column, split off the front of every key row.
fn read_keys<T, const N: usize>(rows: &mut [&[u8]], from_le: fn([u8; N]) -> T) -> Vec<T> {
    rows.iter_mut().map(|r| from_le(split_key(r))).collect()
}

// --- the operator ------------------------------------------------------------

/// Hash aggregation: `GROUP BY group_cols` computing `specs`.
pub struct HashAggregate {
    child: BoxOp,
    group_cols: Vec<usize>,
    hash_steps: Vec<HashStep>,
    key_table: KeyTable,
    accs: Vec<AccBuf>,
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
    slots: Vec<u32>,
}

impl HashAggregate {
    /// Builds the operator. `group_cols` must be non-empty (use
    /// [`StreamAggregate`] otherwise); integer and string key columns are
    /// supported, an `F64` one is a plan error.
    pub fn new(
        child: BoxOp,
        group_cols: Vec<usize>,
        specs: Vec<Agg>,
        scope: &NodeScope,
    ) -> Result<Self, ExecError> {
        Self::build(child, group_cols, None, specs, scope)
    }

    /// As [`HashAggregate::new`], but with a dense key table over
    /// `domains`, one per group column: an [`KeyDomain::Int`] for an
    /// integer column, a [`KeyDomain::Dict`] for a string column. Together
    /// they may span at most 2^20 slots. Gids, and so the output order, are
    /// the hash table's. A key outside its domain, or a string vector
    /// without the dictionary's codes, fails the query with a typed error.
    pub fn new_dense(
        child: BoxOp,
        group_cols: Vec<usize>,
        domains: Vec<KeyDomain>,
        specs: Vec<Agg>,
        scope: &NodeScope,
    ) -> Result<Self, ExecError> {
        Self::build(child, group_cols, Some(domains), specs, scope)
    }

    fn build(
        child: BoxOp,
        group_cols: Vec<usize>,
        domains: Option<Vec<KeyDomain>>,
        specs: Vec<Agg>,
        scope: &NodeScope,
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

        let mut hash_steps = Vec::new();
        let key_table = match domains {
            Some(domains) => KeyTable::Dense {
                table: DenseGroupTable::new(dense_slots(&domains).ok_or_else(|| {
                    ExecError::Plan(format!(
                        "dense key domains must be non-empty and span at most \
                         {DENSE_MAX_SLOTS} slots"
                    ))
                })?),
                insert: scope.instance(
                    "hash_insertcheck_dense_col",
                    "insertcheck_dense",
                    HeurKind::None,
                )?,
                keys: dense_keys(&group_cols, domains, &in_types)?,
            },
            None => {
                // Hash pipeline over the key columns.
                for (k, &c) in group_cols.iter().enumerate() {
                    let is_str = in_types[c] == DataType::Str;
                    let (sig, name) = match (k == 0, is_str) {
                        (true, false) => ("map_hash_i64_col", "map_hash"),
                        (false, false) => ("map_rehash_i64_col", "map_rehash"),
                        (true, true) => ("map_hash_str_col", "map_hash_str"),
                        (false, true) => ("map_rehash_str_col", "map_rehash_str"),
                    };
                    hash_steps.push(if is_str {
                        HashStep::Str(scope.instance(sig, name, HeurKind::None)?, c)
                    } else {
                        HashStep::I64(scope.instance(sig, name, HeurKind::None)?, c)
                    });
                }
                if group_cols.len() == 1 && in_types[group_cols[0]] != DataType::Str {
                    KeyTable::Int {
                        table: GroupTable::new(),
                        insert: scope.instance(
                            "hash_insertcheck_u64_col",
                            "insertcheck_u64",
                            HeurKind::None,
                        )?,
                    }
                } else {
                    KeyTable::Bytes {
                        table: StrGroupTable::new(),
                        insert: scope.instance(
                            "hash_insertcheck_str_col",
                            "insertcheck_str",
                            HeurKind::None,
                        )?,
                    }
                }
            }
        };

        let mut types: Vec<DataType> = group_cols.iter().map(|&c| in_types[c]).collect();
        types.extend(out_types(&specs, &in_types)?);
        let accs = specs
            .iter()
            .map(|s| AccBuf::create(s, scope))
            .collect::<Result<Vec<_>, _>>()?;

        Ok(HashAggregate {
            child,
            group_cols,
            hash_steps,
            key_table,
            accs,
            types,
            vector_size: scope.ctx().vector_size(),
            done: None,
            group_hint: None,
            tracker: None,
            hashes: Vec::new(),
            gids: Vec::new(),
            keyscratch: Vec::new(),
            keys_u64: Vec::new(),
            key_rows,
            slots: Vec::new(),
        })
    }

    /// Takes the analyzer's proven distinct-group `bound` and the proven
    /// bound on the rows the aggregate consumes. Per-chunk reserves never
    /// exceed the groups `bound` still permits. A `bound` below
    /// `input_rows` was proven from the keys' distinct counts, so the
    /// table is sized for it once, up to 2^17 groups (a 4 MiB slot
    /// array), and does not rehash as the groups arrive; a bound of one
    /// group per input row says nothing about the groups there will be,
    /// and the table grows as they arrive instead of starting sparse.
    /// Call before the first chunk is consumed.
    pub fn with_group_bound(mut self, bound: usize, input_rows: usize) -> Self {
        self.group_hint = Some(bound);
        if bound < input_rows {
            let groups = bound.min(PRESIZE_GROUPS);
            match &mut self.key_table {
                KeyTable::Int { table, .. } => table.reserve(groups),
                KeyTable::Bytes { table, .. } => table.reserve(groups),
                // Sized for its whole domain at construction.
                KeyTable::Dense { .. } => {}
            }
        }
        self
    }

    /// Attaches a byte-accounting slot; the operator records its live
    /// table + accumulator bytes after every consumed chunk.
    pub fn with_tracker(mut self, tracker: crate::adaptive::MemTracker) -> Self {
        self.tracker = Some(tracker);
        self
    }

    /// Live resident bytes of the aggregation state (length-based).
    fn resident_bytes(&self) -> u64 {
        let table = self.key_table.bytes();
        let accs = self
            .accs
            .iter()
            .fold(0u64, |a, b| a.saturating_add(b.bytes()));
        table.saturating_add(accs)
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
        let groups_now = match &mut self.key_table {
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
                insert.invoke(live, |f| f(table, hashes, keys, gids, sel))
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
                insert.invoke(live, |f| f(table, hashes, arena, views, gids, sel))
            }
            KeyTable::Dense {
                table,
                insert,
                keys,
            } => {
                self.slots.clear();
                self.slots.resize(n, 0);
                for key in keys.iter() {
                    key.add_slots(chunk.column(key.col), &mut self.slots, sel)?;
                }
                let slots = &self.slots;
                insert.invoke(live, |f| f(table, slots, gids, sel))
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

        // 3. update accumulators
        for acc in &mut self.accs {
            acc.grow(groups_now as usize);
            acc.update(chunk, gids, sel, live);
        }

        if let Some(t) = &self.tracker {
            t.record(self.resident_bytes());
        }
        Ok(())
    }

    /// The group key columns in gid order, read back from the group table:
    /// an integer key from its `(key, gid)` slots, a string key or a
    /// composite key row from the stored key bytes, dense keys from each
    /// group's slot index.
    fn key_columns(&self) -> Vec<Vector> {
        let key_types = &self.types[..self.group_cols.len()];
        let table = match &self.key_table {
            KeyTable::Int { table, .. } => {
                let keys = table.keys_by_gid().into_iter().map(|k| k as i64);
                return vec![int_column(key_types[0], keys)];
            }
            KeyTable::Dense { table, keys, .. } => {
                let slots = table.slots_by_gid();
                let cols = keys.iter().zip(key_types);
                return cols.map(|(k, &ty)| k.column(ty, slots)).collect();
            }
            KeyTable::Bytes { table, .. } => table,
        };
        let groups = table.groups();
        let keys = (0..groups).map(|gid| table.key(gid));
        if let [DataType::Str] = key_types {
            return vec![Vector::Str(StrVec::from_byte_slices(keys))];
        }
        KeyRows::decode_columns(keys.collect(), key_types)
    }

    fn finalize(&mut self) -> Result<Vec<DataChunk>, ExecError> {
        let groups = self.key_table.groups() as usize;
        // Ensure accumulators cover groups even if zero chunks arrived.
        for acc in &mut self.accs {
            acc.grow(groups);
        }
        let mut store = RowStore::new(self.types.clone());
        // Build one big chunk column-wise: keys, read back from the group
        // table in gid order, then aggregates.
        let mut cols: Vec<Arc<Vector>> = Vec::with_capacity(self.types.len());
        cols.extend(self.key_columns().into_iter().map(Arc::new));
        for acc in std::mem::take(&mut self.accs) {
            cols.push(Arc::new(acc.finish()?));
        }
        if groups == 0 {
            return Ok(Vec::new());
        }
        let chunk = DataChunk::new(cols);
        store.append(&chunk, &(0..self.types.len()).collect::<Vec<_>>());
        if let Some(t) = &self.tracker {
            // Emission phase: the table is still resident alongside the
            // materialized output copy (covered by the bound's output
            // term).
            t.record(self.key_table.bytes().saturating_add(store.bytes()));
        }
        Ok(store.freeze().to_chunks(self.vector_size))
    }
}

impl Operator for HashAggregate {
    fn next(&mut self) -> Result<Option<DataChunk>, ExecError> {
        if self.done.is_none() {
            while let Some(chunk) = self.child.next()? {
                self.consume_chunk(&chunk)?;
            }
            self.done = Some(self.finalize()?.into_iter());
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
    fn create(agg: &Agg, scope: &NodeScope) -> Result<Self, ExecError> {
        let Some((func, ty, col)) = agg.of else {
            return Ok(Acc0::Count { acc: 0 });
        };
        Ok(match (func, ty) {
            (AggFunc::Sum, NumType::I64) => Acc0::Sum128 {
                inst: aggr(scope, "aggr0", func, ty)?,
                acc: 0,
                col,
            },
            (_, NumType::I64) => {
                let inst = aggr(scope, "aggr0", func, ty)?;
                let (acc, combine) = func.over_i64();
                Acc0::I64 {
                    inst,
                    acc,
                    col,
                    combine,
                }
            }
            (_, NumType::F64) => {
                let inst = aggr(scope, "aggr0", func, ty)?;
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
    pub fn new(child: BoxOp, specs: Vec<Agg>, scope: &NodeScope) -> Result<Self, ExecError> {
        let types = out_types(&specs, child.out_types())?;
        let accs = specs
            .iter()
            .map(|s| Acc0::create(s, scope))
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
                Ok(Arc::new(match acc {
                    Acc0::Sum128 { acc, inst, .. } => Vector::I64(vec![narrow_sum(*acc, inst)?]),
                    Acc0::I64 { acc, .. } | Acc0::Count { acc } => Vector::I64(vec![*acc]),
                    Acc0::F64 { acc, .. } => Vector::F64(vec![*acc]),
                }))
            })
            .collect::<Result<_, ExecError>>()?;
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
    use crate::QueryContext;
    use ma_primitives::build_dictionary;
    use ma_vector::{ColumnBuilder, Table};

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
            &c.scope("t"),
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
        let mut agg =
            HashAggregate::new(scan(300), vec![2], vec![Agg::count()], &c.scope("t")).unwrap();
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
            &c.scope("t"),
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
        let sel = Select::new(scan(700), &pred, &c.scope("s")).unwrap();
        let mut agg =
            HashAggregate::new(Box::new(sel), vec![0], vec![Agg::count()], &c.scope("t")).unwrap();
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
            &c.scope("t"),
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
        let sel = Select::new(scan(100), &pred, &c.scope("s")).unwrap();
        let mut agg =
            HashAggregate::new(Box::new(sel), vec![0], vec![Agg::count()], &c.scope("t")).unwrap();
        assert!(agg.next().unwrap().is_none());
    }

    #[test]
    fn empty_group_cols_rejected() {
        let c = ctx();
        assert!(HashAggregate::new(scan(10), vec![], vec![Agg::count()], &c.scope("t")).is_err());
    }

    /// A mistyped or out-of-range aggregate column is a plan error at
    /// construction (both used to build, then panic on their first chunk).
    #[test]
    fn bad_aggregate_columns_rejected_at_construction() {
        let c = ctx();
        assert!(matches!(
            HashAggregate::new(scan(10), vec![0], vec![Agg::sum_i64(9)], &c.scope("t")),
            Err(ExecError::Plan(_))
        ));
        assert!(matches!(
            StreamAggregate::new(scan(10), vec![Agg::sum_f64(1)], &c.scope("t")),
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
            &c.scope("p"),
        )
        .unwrap();
        let mut agg = StreamAggregate::new(
            Box::new(p),
            vec![Agg::sum_f64(1), Agg::min_f64(1), Agg::max_f64(1)],
            &c.scope("t"),
        )
        .unwrap();
        let ch = agg.next().unwrap().unwrap();
        assert_eq!(ch.column(0).as_f64()[0], 1225.0);
        assert_eq!(ch.column(1).as_f64()[0], 0.0);
        assert_eq!(ch.column(2).as_f64()[0], 49.0);
    }
}
