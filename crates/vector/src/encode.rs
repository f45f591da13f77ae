//! Per-partition column encodings: dictionary, delta, frame-of-reference.
//!
//! Base tables are encoded at build time, one codec verdict per column,
//! chosen from the column's exact [`ColumnStats`]:
//!
//! * **Dictionary** ([`DictStr`]) for string columns with few distinct
//!   values: a single *sorted* global dictionary plus bit-packed per-row
//!   codes. Sorting the dictionary makes code order equal string order, so
//!   equality filters compare codes without touching bytes.
//! * **Delta** ([`DeltaInts`]) for nondecreasing `i32` key columns
//!   (clustered primary keys): per-row deltas bit-packed at the partition's
//!   worst-case delta width, with an absolute sync base every
//!   [`SYNC_ROWS`] rows so any sub-range decodes without replaying the
//!   whole column.
//! * **Frame-of-reference** ([`ForInts`]) for bounded `i32`/`i64` columns:
//!   per-partition `base = min` plus bit-packed offsets at the partition's
//!   proven `bits(max - min)` width.
//!
//! All three codecs partition the column into [`ENC_PART_ROWS`]-row chunks
//! so widths adapt to local value ranges and scans decode exactly the
//! partitions a morsel touches. The packed-word stream is word-aligned per
//! partition and carries one trailing padding word per partition (plus one
//! global sentinel word), so decode kernels may always read two adjacent
//! words branch-free.
//!
//! Codecs are **lossless**: `encode_table` never changes query results,
//! only the resident representation. A codec is selected only when it
//! saves at least 10% over the raw representation, so encoding never
//! inflates a column.

use std::collections::HashMap;
use std::sync::Arc;

use crate::stats::{ColumnStats, StatsDomain};
use crate::table::{Column, Table};
use crate::types::DataType;
use crate::vector::{StrVec, Vector};

/// Rows per encoded partition. A multiple of [`SYNC_ROWS`] so delta sync
/// blocks never straddle a partition boundary.
pub const ENC_PART_ROWS: usize = 1 << 14;

/// Rows per delta sync block: one absolute base value is stored per block
/// so range decodes replay at most `SYNC_ROWS - 1` leading deltas.
pub const SYNC_ROWS: usize = 64;

/// Distinct-value cap for dictionary coding; codes stay well inside `i32`.
pub const DICT_MAX_VALUES: usize = 1 << 16;

/// Which codec an encoded column uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Encoding {
    /// Sorted global dictionary + bit-packed codes (`Str`).
    Dict,
    /// Per-row deltas + sync bases (`I32`, nondecreasing).
    Delta,
    /// Frame-of-reference bit-packing (`I32` / `I64`).
    For,
}

impl std::fmt::Display for Encoding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Encoding::Dict => write!(f, "dict"),
            Encoding::Delta => write!(f, "delta"),
            Encoding::For => write!(f, "for"),
        }
    }
}

/// Packing metadata for one encoded partition.
#[derive(Debug, Clone)]
pub struct EncPart {
    /// Frame-of-reference base (minimum value); unused (0) for dict/delta.
    pub base: i64,
    /// Bit width of each packed value. 0 means all values equal `base`
    /// (FoR), all deltas zero (delta), or a single-entry dictionary.
    pub width: u32,
    /// Index of the partition's first packed word in the shared stream.
    pub word0: usize,
    /// Row count of the partition (`ENC_PART_ROWS` except the tail).
    pub rows: usize,
}

/// A frame-of-reference bit-packed integer column.
#[derive(Debug, Clone)]
pub struct ForInts {
    /// `I32` or `I64`: the decoded scalar type.
    pub dt: DataType,
    /// Total row count.
    pub len: usize,
    /// Per-partition packing metadata.
    pub parts: Vec<EncPart>,
    /// Shared packed-word stream (padded; see module docs).
    pub words: Arc<Vec<u64>>,
}

/// A delta-coded nondecreasing `i32` column.
#[derive(Debug, Clone)]
pub struct DeltaInts {
    /// Total row count.
    pub len: usize,
    /// Per-partition packing metadata (`base` unused).
    pub parts: Vec<EncPart>,
    /// One absolute base value per [`SYNC_ROWS`]-row block, column-global.
    pub sync: Arc<Vec<i64>>,
    /// Shared packed-word stream of per-row deltas (entries at block
    /// starts are stored as zero and never read).
    pub words: Arc<Vec<u64>>,
}

/// A dictionary-coded string column.
#[derive(Debug, Clone)]
pub struct DictStr {
    /// Total row count.
    pub len: usize,
    /// Dictionary byte arena (decoded vectors share it).
    pub arena: Arc<[u8]>,
    /// Sorted dictionary views: code order equals lexicographic order.
    pub views: Arc<Vec<(u32, u32)>>,
    /// Bit width of each packed code (global: the dictionary is global).
    pub width: u32,
    /// Per-partition packing metadata (`base`/`width` unused per part).
    pub parts: Vec<EncPart>,
    /// Shared packed-word stream of codes.
    pub words: Arc<Vec<u64>>,
}

/// One encoded column: the codec plus its packed payload.
#[derive(Debug, Clone)]
pub enum EncColumn {
    /// Dictionary-coded strings.
    Dict(DictStr),
    /// Delta-coded nondecreasing `i32`.
    Delta(DeltaInts),
    /// Frame-of-reference packed integers.
    For(ForInts),
}

/// Mask selecting the low `width` bits.
#[inline]
pub fn low_mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Reads packed value `r` from a partition whose stream starts at bit
/// `pbit0` (reference implementation; the flavored kernels in
/// `ma_primitives::decode` must agree with this bit for bit).
#[inline]
pub fn read_packed(words: &[u64], pbit0: u64, width: u32, r: usize) -> u64 {
    let bit = pbit0 + (r as u64) * u64::from(width);
    let w = (bit / 64) as usize;
    let s = (bit % 64) as u32;
    let pair = u128::from(words[w]) | (u128::from(words[w + 1]) << 64);
    ((pair >> s) as u64) & low_mask(width)
}

/// Appends a word-aligned packed region for `values` at `width` bits each,
/// plus one trailing padding word; returns the region's first word index.
fn pack_region(words: &mut Vec<u64>, width: u32, values: &[u64]) -> usize {
    let word0 = words.len();
    let bits = (values.len() as u64) * u64::from(width);
    let data_words = bits.div_ceil(64) as usize;
    words.resize(word0 + data_words + 1, 0);
    if width > 0 {
        for (r, &v) in values.iter().enumerate() {
            let bit = (r as u64) * u64::from(width);
            let w = word0 + (bit / 64) as usize;
            let s = (bit % 64) as u32;
            words[w] |= v << s;
            if s + width > 64 {
                words[w + 1] |= v >> (64 - s);
            }
        }
    }
    word0
}

/// Bits needed to represent `v` (0 for `v == 0`).
fn bits_for(v: u64) -> u32 {
    64 - v.leading_zeros()
}

/// Iterates the encoded partitions overlapped by global rows
/// `[start, start + n)` as `(part_index, first_row_in_part, run_len)`.
pub fn part_ranges(start: usize, n: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    let end = start + n;
    let first_part = start / ENC_PART_ROWS;
    let last_part = if n == 0 {
        first_part
    } else {
        (end - 1) / ENC_PART_ROWS
    };
    (first_part..=last_part).filter_map(move |p| {
        let pstart = p * ENC_PART_ROWS;
        let lo = start.max(pstart);
        let hi = end.min(pstart + ENC_PART_ROWS);
        (hi > lo).then_some((p, lo - pstart, hi - lo))
    })
}

impl ForInts {
    /// Frame-of-reference-encodes `values` (decoded type `dt`); callers
    /// normally go through [`encode_column`], which also checks savings.
    pub fn encode(dt: DataType, values: &[i64]) -> ForInts {
        let mut parts = Vec::with_capacity(values.len().div_ceil(ENC_PART_ROWS).max(1));
        let mut words = Vec::new();
        for chunk in values.chunks(ENC_PART_ROWS) {
            let base = chunk.iter().copied().min().unwrap_or(0);
            let max = chunk.iter().copied().max().unwrap_or(0);
            let width = bits_for((max as i128 - base as i128) as u64);
            let packed: Vec<u64> = chunk
                .iter()
                .map(|&v| (v as i128 - base as i128) as u64)
                .collect();
            let word0 = pack_region(&mut words, width, &packed);
            parts.push(EncPart {
                base,
                width,
                word0,
                rows: chunk.len(),
            });
        }
        words.push(0); // global sentinel: two-word reads stay in bounds
        ForInts {
            dt,
            len: values.len(),
            parts,
            words: Arc::new(words),
        }
    }

    /// Decodes global row `r` (reference path).
    #[inline]
    pub fn get(&self, r: usize) -> i64 {
        let p = &self.parts[r / ENC_PART_ROWS];
        let d = read_packed(
            &self.words,
            (p.word0 as u64) * 64,
            p.width,
            r % ENC_PART_ROWS,
        );
        p.base.wrapping_add(d as i64)
    }
}

impl DeltaInts {
    /// Encodes a nondecreasing `i32` sequence; the caller guarantees order
    /// ([`encode_column`] checks it before selecting this codec).
    pub fn encode(values: &[i32]) -> DeltaInts {
        let mut parts = Vec::with_capacity(values.len().div_ceil(ENC_PART_ROWS).max(1));
        let mut words = Vec::new();
        let sync: Vec<i64> = values
            .iter()
            .step_by(SYNC_ROWS)
            .map(|&v| i64::from(v))
            .collect();
        for chunk in values.chunks(ENC_PART_ROWS) {
            // Partition starts are multiples of SYNC_ROWS, so chunk-relative
            // block starts are global block starts.
            let delta_at = |r: usize| -> u64 {
                if r.is_multiple_of(SYNC_ROWS) {
                    0
                } else {
                    (i64::from(chunk[r]) - i64::from(chunk[r - 1])) as u64
                }
            };
            let width = (0..chunk.len())
                .map(|r| bits_for(delta_at(r)))
                .max()
                .unwrap_or(0);
            let packed: Vec<u64> = (0..chunk.len()).map(delta_at).collect();
            let word0 = pack_region(&mut words, width, &packed);
            parts.push(EncPart {
                base: 0,
                width,
                word0,
                rows: chunk.len(),
            });
        }
        words.push(0);
        DeltaInts {
            len: values.len(),
            parts,
            sync: Arc::new(sync),
            words: Arc::new(words),
        }
    }

    /// Decodes global row `r` (reference path): replays deltas from the
    /// enclosing sync block's base.
    #[inline]
    pub fn get(&self, r: usize) -> i32 {
        let p = &self.parts[r / ENC_PART_ROWS];
        let pbit0 = (p.word0 as u64) * 64;
        let b0 = (r / SYNC_ROWS) * SYNC_ROWS;
        let mut acc = self.sync[r / SYNC_ROWS];
        for q in (b0 + 1)..=r {
            acc += read_packed(&self.words, pbit0, p.width, q % ENC_PART_ROWS) as i64;
        }
        acc as i32
    }
}

impl DictStr {
    /// Dictionary-encodes a string column given its arena and views;
    /// callers normally go through [`encode_column`].
    pub fn encode(arena: &Arc<[u8]>, views: &[(u32, u32)]) -> DictStr {
        let distinct: Vec<&[u8]> = {
            let mut seen: Vec<&[u8]> = views
                .iter()
                .map(|&(off, len)| &arena[off as usize..(off + len) as usize])
                .collect();
            seen.sort_unstable();
            seen.dedup();
            seen
        };
        let mut dict_arena = Vec::with_capacity(distinct.iter().map(|s| s.len()).sum());
        let mut dict_views = Vec::with_capacity(distinct.len());
        let mut code_of: HashMap<&[u8], u64> = HashMap::with_capacity(distinct.len());
        for (code, s) in distinct.iter().enumerate() {
            let off = dict_arena.len() as u32;
            dict_arena.extend_from_slice(s);
            dict_views.push((off, s.len() as u32));
            code_of.insert(s, code as u64);
        }
        let width = match distinct.len() {
            0 | 1 => 0,
            n => bits_for((n - 1) as u64),
        };
        let mut parts = Vec::with_capacity(views.len().div_ceil(ENC_PART_ROWS).max(1));
        let mut words = Vec::new();
        for chunk in views.chunks(ENC_PART_ROWS) {
            let packed: Vec<u64> = chunk
                .iter()
                .map(|&(off, len)| code_of[&arena[off as usize..(off + len) as usize]])
                .collect();
            let word0 = pack_region(&mut words, width, &packed);
            parts.push(EncPart {
                base: 0,
                width,
                word0,
                rows: chunk.len(),
            });
        }
        words.push(0);
        DictStr {
            len: views.len(),
            arena: Arc::from(dict_arena.into_boxed_slice()),
            views: Arc::new(dict_views),
            width,
            parts,
            words: Arc::new(words),
        }
    }

    /// Decodes the code at global row `r` (reference path).
    #[inline]
    pub fn code(&self, r: usize) -> usize {
        let p = &self.parts[r / ENC_PART_ROWS];
        read_packed(
            &self.words,
            (p.word0 as u64) * 64,
            self.width,
            r % ENC_PART_ROWS,
        ) as usize
    }
}

impl EncColumn {
    /// The decoded scalar type.
    pub fn data_type(&self) -> DataType {
        match self {
            EncColumn::Dict(_) => DataType::Str,
            EncColumn::Delta(_) => DataType::I32,
            EncColumn::For(c) => c.dt,
        }
    }

    /// Total row count.
    pub fn len(&self) -> usize {
        match self {
            EncColumn::Dict(c) => c.len,
            EncColumn::Delta(c) => c.len,
            EncColumn::For(c) => c.len,
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The codec in use.
    pub fn encoding(&self) -> Encoding {
        match self {
            EncColumn::Dict(_) => Encoding::Dict,
            EncColumn::Delta(_) => Encoding::Delta,
            EncColumn::For(_) => Encoding::For,
        }
    }

    /// Resident bytes of the encoded representation: packed words,
    /// partition metadata, and (for dict/delta) dictionary or sync bases.
    pub fn encoded_bytes(&self) -> usize {
        let part_bytes = std::mem::size_of::<EncPart>();
        match self {
            EncColumn::Dict(c) => {
                c.words.len() * 8 + c.parts.len() * part_bytes + c.arena.len() + c.views.len() * 8
            }
            EncColumn::Delta(c) => {
                c.words.len() * 8 + c.parts.len() * part_bytes + c.sync.len() * 8
            }
            EncColumn::For(c) => c.words.len() * 8 + c.parts.len() * part_bytes,
        }
    }

    /// Materializes rows `[start, start + n)` through the reference decode
    /// path. Dictionary vectors share the dictionary arena and carry their
    /// codes, so downstream code-comparison filters work on this path too.
    pub fn slice_vector(&self, start: usize, n: usize) -> Vector {
        match self {
            EncColumn::For(c) => match c.dt {
                DataType::I32 => Vector::I32((start..start + n).map(|r| c.get(r) as i32).collect()),
                _ => Vector::I64((start..start + n).map(|r| c.get(r)).collect()),
            },
            EncColumn::Delta(c) => {
                // Walk sync blocks once instead of per-row replay.
                let mut out = Vec::with_capacity(n);
                let mut r = start;
                let end = start + n;
                while r < end {
                    let blk = r / SYNC_ROWS;
                    let b0 = blk * SYNC_ROWS;
                    let p = &c.parts[r / ENC_PART_ROWS];
                    let pbit0 = (p.word0 as u64) * 64;
                    let stop = end.min(b0 + SYNC_ROWS);
                    let mut acc = c.sync[blk];
                    if r == b0 {
                        out.push(acc as i32);
                    }
                    for q in (b0 + 1)..stop {
                        acc += read_packed(&c.words, pbit0, p.width, q % ENC_PART_ROWS) as i64;
                        if q >= r {
                            out.push(acc as i32);
                        }
                    }
                    r = stop;
                }
                Vector::I32(out)
            }
            EncColumn::Dict(c) => {
                let mut views = Vec::with_capacity(n);
                let mut codes = Vec::with_capacity(n);
                for r in start..start + n {
                    let code = c.code(r);
                    views.push(c.views[code]);
                    codes.push(code as i32);
                }
                Vector::Str(StrVec::from_dict(
                    Arc::clone(&c.arena),
                    Arc::clone(&c.views),
                    views,
                    codes,
                ))
            }
        }
    }

    /// Materializes arbitrary `rows` (a gather) through reference decode.
    pub fn gather_vector(&self, rows: &[usize]) -> Vector {
        match self {
            EncColumn::For(c) => match c.dt {
                DataType::I32 => Vector::I32(rows.iter().map(|&r| c.get(r) as i32).collect()),
                _ => Vector::I64(rows.iter().map(|&r| c.get(r)).collect()),
            },
            EncColumn::Delta(c) => Vector::I32(rows.iter().map(|&r| c.get(r)).collect()),
            EncColumn::Dict(c) => {
                let mut views = Vec::with_capacity(rows.len());
                let mut codes = Vec::with_capacity(rows.len());
                for &r in rows {
                    let code = c.code(r);
                    views.push(c.views[code]);
                    codes.push(code as i32);
                }
                Vector::Str(StrVec::from_dict(
                    Arc::clone(&c.arena),
                    Arc::clone(&c.views),
                    views,
                    codes,
                ))
            }
        }
    }

    /// Fully decodes back to a raw (unencoded) [`Column`].
    pub fn to_raw(&self) -> Column {
        match self.slice_vector(0, self.len()) {
            Vector::I32(v) => Column::I32(Arc::new(v)),
            Vector::I64(v) => Column::I64(Arc::new(v)),
            Vector::Str(sv) => Column::Str {
                arena: Arc::clone(sv.arena()),
                views: Arc::new(sv.views().to_vec()),
            },
            _ => unreachable!("codecs only produce i32/i64/str"),
        }
    }

    /// Exact statistics without full decode where the codec already proves
    /// them (dictionary columns), falling back to decode-and-scan.
    pub(crate) fn compute_stats(&self) -> ColumnStats {
        match self {
            EncColumn::Dict(c) => ColumnStats {
                // Every dictionary entry is referenced by construction, so
                // the dictionary size is the exact distinct count.
                distinct: c.views.len(),
                domain: StatsDomain::Str,
                max_bytes: c.views.iter().map(|&(_, l)| l as usize).max().unwrap_or(0),
                zones: Vec::new(),
            },
            _ => ColumnStats::compute(&self.to_raw()),
        }
    }
}

/// Raw resident bytes of a column's uncompressed representation.
pub fn raw_bytes(col: &Column) -> usize {
    match col {
        Column::I16(v) => v.len() * 2,
        Column::I32(v) => v.len() * 4,
        Column::I64(v) => v.len() * 8,
        Column::F64(v) => v.len() * 8,
        Column::Str { arena, views } => arena.len() + views.len() * 8,
        Column::Enc(e) => match &**e {
            EncColumn::Dict(c) => {
                let dict_of = |code: usize| c.views[code].1 as usize;
                (0..c.len).map(|r| dict_of(c.code(r)) + 8).sum()
            }
            EncColumn::Delta(c) => c.len * 4,
            EncColumn::For(c) => c.len * if c.dt == DataType::I32 { 4 } else { 8 },
        },
    }
}

/// Picks and applies a codec for one column, or `None` when no codec saves
/// at least 10% over the raw representation (or the type has no codec).
pub fn encode_column(col: &Column, stats: &ColumnStats) -> Option<EncColumn> {
    if col.is_empty() {
        return None;
    }
    let raw = raw_bytes(col);
    let worth = |enc: &EncColumn| enc.encoded_bytes() * 10 <= raw * 9;
    match col {
        Column::Str { arena, views } => {
            if stats.distinct > DICT_MAX_VALUES {
                return None;
            }
            let enc = EncColumn::Dict(DictStr::encode(arena, views));
            worth(&enc).then_some(enc)
        }
        Column::I32(v) => {
            if v.windows(2).all(|w| w[0] <= w[1]) {
                let delta = EncColumn::Delta(DeltaInts::encode(v));
                let fr = EncColumn::For(ForInts::encode(
                    DataType::I32,
                    &v.iter().map(|&x| i64::from(x)).collect::<Vec<_>>(),
                ));
                let best = if delta.encoded_bytes() <= fr.encoded_bytes() {
                    delta
                } else {
                    fr
                };
                return worth(&best).then_some(best);
            }
            let enc = EncColumn::For(ForInts::encode(
                DataType::I32,
                &v.iter().map(|&x| i64::from(x)).collect::<Vec<_>>(),
            ));
            worth(&enc).then_some(enc)
        }
        Column::I64(v) => {
            let enc = EncColumn::For(ForInts::encode(DataType::I64, v));
            worth(&enc).then_some(enc)
        }
        Column::I16(_) | Column::F64(_) | Column::Enc(_) => None,
    }
}

/// Re-encodes every column of `table` through [`encode_column`], seeding
/// the new table's statistics from the raw column scan so analysis facts
/// are identical pre- and post-encoding.
pub fn encode_table(table: &Table) -> Table {
    let stats = table.stats().to_vec();
    let cols: Vec<(String, Column)> = table
        .column_names()
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let col = table.column_at(i);
            let enc = match col {
                Column::Enc(_) => None,
                _ => encode_column(col, &stats[i]).map(|e| Column::Enc(Arc::new(e))),
            };
            (name.clone(), enc.unwrap_or_else(|| col.clone()))
        })
        .collect();
    let out = Table::new(table.name(), cols).expect("re-encoding preserves table shape");
    out.seed_stats(stats);
    out
}

/// Fully decodes every encoded column of `table` back to raw storage,
/// carrying the statistics over unchanged. The result is the exact
/// inverse of [`encode_table`] on the value level: same rows, same
/// stats, no [`Column::Enc`] anywhere — the uncompressed twin the
/// differential fuzzer runs against.
pub fn decode_table(table: &Table) -> Table {
    let stats = table.stats().to_vec();
    let cols: Vec<(String, Column)> = table
        .column_names()
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let col = match table.column_at(i) {
                Column::Enc(e) => e.to_raw(),
                other => other.clone(),
            };
            (name.clone(), col)
        })
        .collect();
    let out = Table::new(table.name(), cols).expect("decoding preserves table shape");
    out.seed_stats(stats);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: deterministic test-local RNG (no external crates).
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn roundtrip_for_i64(values: &[i64]) {
        let enc = ForInts::encode(DataType::I64, values);
        let col = EncColumn::For(enc);
        assert_eq!(col.slice_vector(0, values.len()).as_i64(), values);
    }

    #[test]
    fn for_roundtrip_random_and_adversarial() {
        let mut rng = Rng(0xF0F0);
        for &(n, span) in &[
            (0usize, 1u64),
            (1, 1),
            (100, 1),
            (5000, 1 << 20),
            (40000, 3),
        ] {
            let base = rng.next() as i64 >> 8;
            let values: Vec<i64> = (0..n)
                .map(|_| base.wrapping_add(rng.below(span) as i64))
                .collect();
            roundtrip_for_i64(&values);
        }
        // Full 64-bit range: width 64 must still round-trip.
        roundtrip_for_i64(&[i64::MIN, i64::MAX, 0, -1, 1]);
        // All-equal partition: width 0.
        roundtrip_for_i64(&vec![42i64; ENC_PART_ROWS + 7]);
    }

    #[test]
    fn for_i32_roundtrip_and_gather() {
        let values: Vec<i32> = (0..10_000).map(|i| (i * 7) % 501 - 250).collect();
        let enc = ForInts::encode(
            DataType::I32,
            &values.iter().map(|&x| i64::from(x)).collect::<Vec<_>>(),
        );
        let col = EncColumn::For(enc);
        assert_eq!(col.slice_vector(100, 900).as_i32(), &values[100..1000]);
        let idx = [0usize, 9999, 5000, 1];
        let want: Vec<i32> = idx.iter().map(|&r| values[r]).collect();
        assert_eq!(col.gather_vector(&idx).as_i32(), &want[..]);
    }

    #[test]
    fn delta_roundtrip_random_and_adversarial() {
        let mut rng = Rng(0xDE17A);
        for &(n, step) in &[(1usize, 1u64), (63, 5), (64, 5), (65, 5), (50_000, 1 << 30)] {
            let mut v = Vec::with_capacity(n);
            let mut acc = i32::MIN / 2;
            for _ in 0..n {
                acc = acc.saturating_add(rng.below(step) as i32);
                v.push(acc);
            }
            let col = EncColumn::Delta(DeltaInts::encode(&v));
            assert_eq!(col.slice_vector(0, n).as_i32(), &v[..]);
            // Unaligned sub-ranges exercise the sync-replay path.
            if n > 10 {
                assert_eq!(col.slice_vector(7, n - 9).as_i32(), &v[7..n - 2]);
                assert_eq!(col.gather_vector(&[n - 1, 0, n / 2]).as_i32()[1], v[0]);
            }
        }
        // Full-range deltas: i32::MIN .. i32::MAX in two rows.
        let v = vec![i32::MIN, i32::MAX, i32::MAX];
        let col = EncColumn::Delta(DeltaInts::encode(&v));
        assert_eq!(col.slice_vector(0, 3).as_i32(), &v[..]);
        // All-equal: zero-width deltas.
        let v = vec![9i32; 2 * ENC_PART_ROWS + 1];
        let col = EncColumn::Delta(DeltaInts::encode(&v));
        assert_eq!(col.slice_vector(ENC_PART_ROWS - 3, 7).as_i32(), &[9; 7]);
    }

    #[test]
    fn dict_roundtrip_sorted_codes_and_shared_arena() {
        let strs: Vec<String> = (0..1000).map(|i| format!("val{:03}", i % 37)).collect();
        let sv = StrVec::from_strings(&strs);
        let enc = DictStr::encode(sv.arena(), sv.views());
        assert_eq!(enc.views.len(), 37);
        // Sorted dictionary: code order is string order.
        let dict: Vec<&str> = (0..enc.views.len())
            .map(|c| {
                let (off, len) = enc.views[c];
                std::str::from_utf8(&enc.arena[off as usize..(off + len) as usize]).unwrap()
            })
            .collect();
        let mut sorted = dict.clone();
        sorted.sort_unstable();
        assert_eq!(dict, sorted);
        let col = EncColumn::Dict(enc);
        let v = col.slice_vector(5, 100);
        let out = v.as_str_vec();
        for i in 0..100 {
            assert_eq!(out.get(i), strs[5 + i]);
        }
        // Decoded vectors carry their codes for pushdown.
        let (dict_views, codes) = out.dict_codes().expect("dict vectors carry codes");
        assert_eq!(codes.len(), 100);
        assert_eq!(dict_views.len(), 37);
    }

    #[test]
    fn dict_adversarial_cases() {
        // Single-value dictionary: width 0.
        let strs = vec!["same"; ENC_PART_ROWS + 3];
        let sv = StrVec::from_strings(&strs);
        let col = EncColumn::Dict(DictStr::encode(sv.arena(), sv.views()));
        let v = col.slice_vector(ENC_PART_ROWS - 1, 4);
        assert!(v.as_str_vec().iter().all(|s| s == "same"));
        // Max-width dictionary: all rows distinct.
        let strs: Vec<String> = (0..300).map(|i| format!("u{i:04}")).collect();
        let sv = StrVec::from_strings(&strs);
        let enc = DictStr::encode(sv.arena(), sv.views());
        assert_eq!(enc.views.len(), 300);
        assert_eq!(enc.width, 9);
        let col = EncColumn::Dict(enc);
        for (i, s) in strs.iter().enumerate() {
            assert_eq!(col.gather_vector(&[i]).as_str_vec().get(0), s);
        }
        // Empty strings round-trip.
        let sv = StrVec::from_strings(&["", "a", "", "b"]);
        let col = EncColumn::Dict(DictStr::encode(sv.arena(), sv.views()));
        assert_eq!(col.slice_vector(0, 4).as_str_vec().get(2), "");
    }

    #[test]
    fn selection_rules_follow_stats() {
        // Low-NDV strings: dict chosen.
        let strs: Vec<String> = (0..10_000).map(|i| format!("c{}", i % 5)).collect();
        let sv = StrVec::from_strings(&strs);
        let col = Column::Str {
            arena: Arc::clone(sv.arena()),
            views: Arc::new(sv.views().to_vec()),
        };
        let enc = encode_column(&col, &ColumnStats::compute(&col)).unwrap();
        assert_eq!(enc.encoding(), Encoding::Dict);
        assert!(enc.encoded_bytes() * 2 <= raw_bytes(&col));

        // Nondecreasing keys: delta chosen.
        let col = Column::I32(Arc::new((0..100_000).collect()));
        let enc = encode_column(&col, &ColumnStats::compute(&col)).unwrap();
        assert_eq!(enc.encoding(), Encoding::Delta);
        assert!(enc.encoded_bytes() * 2 <= raw_bytes(&col));

        // Bounded non-sorted ints: frame-of-reference.
        let col = Column::I32(Arc::new((0..100_000).map(|i| (i * 17) % 100).collect()));
        let enc = encode_column(&col, &ColumnStats::compute(&col)).unwrap();
        assert_eq!(enc.encoding(), Encoding::For);

        // Full-width random ints: savings under 10%, stays raw.
        let mut rng = Rng(0x5EED);
        let col = Column::I64(Arc::new((0..10_000).map(|_| rng.next() as i64).collect()));
        assert!(encode_column(&col, &ColumnStats::compute(&col)).is_none());

        // Unencodable types and empty columns stay raw.
        assert!(encode_column(
            &Column::F64(Arc::new(vec![1.0])),
            &ColumnStats::compute(&Column::F64(Arc::new(vec![1.0])))
        )
        .is_none());
        let empty = Column::I32(Arc::new(vec![]));
        assert!(encode_column(&empty, &ColumnStats::compute(&empty)).is_none());
    }

    #[test]
    fn encode_table_preserves_stats_and_data() {
        let keys = Column::I32(Arc::new((0..5000).collect()));
        let vals = Column::I64(Arc::new((0..5000).map(|i| i % 97).collect()));
        let sv = StrVec::from_strings(
            &(0..5000)
                .map(|i| format!("g{}", i % 11))
                .collect::<Vec<_>>(),
        );
        let strs = Column::Str {
            arena: Arc::clone(sv.arena()),
            views: Arc::new(sv.views().to_vec()),
        };
        let raw = Table::new(
            "t",
            vec![("k".into(), keys), ("v".into(), vals), ("s".into(), strs)],
        )
        .unwrap();
        let raw_stats = raw.stats().to_vec();
        let enc = encode_table(&raw);
        assert_eq!(enc.rows(), 5000);
        assert_eq!(enc.stats(), &raw_stats[..]);
        for i in 0..3 {
            assert!(matches!(enc.column_at(i), Column::Enc(_)), "column {i}");
            let a = raw.column_at(i).slice_vector(0, 5000);
            let b = enc.column_at(i).slice_vector(0, 5000);
            match (a, b) {
                (Vector::I32(x), Vector::I32(y)) => assert_eq!(x, y),
                (Vector::I64(x), Vector::I64(y)) => assert_eq!(x, y),
                (Vector::Str(x), Vector::Str(y)) => {
                    assert!(x.iter().eq(y.iter()))
                }
                _ => panic!("type changed by encoding"),
            }
        }
    }

    #[test]
    fn enc_column_stats_match_raw() {
        let sv = StrVec::from_strings(
            &(0..4000)
                .map(|i| format!("s{}", i % 19))
                .collect::<Vec<_>>(),
        );
        let raw = Column::Str {
            arena: Arc::clone(sv.arena()),
            views: Arc::new(sv.views().to_vec()),
        };
        let enc = Column::Enc(Arc::new(
            encode_column(&raw, &ColumnStats::compute(&raw)).unwrap(),
        ));
        assert_eq!(ColumnStats::compute(&enc), ColumnStats::compute(&raw));

        let raw = Column::I32(Arc::new((0..4000).map(|i| i % 1000).collect()));
        let enc = Column::Enc(Arc::new(
            encode_column(&raw, &ColumnStats::compute(&raw)).unwrap(),
        ));
        assert_eq!(ColumnStats::compute(&enc), ColumnStats::compute(&raw));
    }

    #[test]
    fn part_ranges_cover_exactly() {
        let cases = [
            (0usize, 0usize),
            (0, 5),
            (100, ENC_PART_ROWS),
            (ENC_PART_ROWS - 1, 2),
            (0, 3 * ENC_PART_ROWS + 17),
            (2 * ENC_PART_ROWS, ENC_PART_ROWS),
        ];
        for &(start, n) in &cases {
            let ranges: Vec<_> = part_ranges(start, n).collect();
            let total: usize = ranges.iter().map(|&(_, _, m)| m).sum();
            assert_eq!(total, n, "start={start} n={n}");
            let mut pos = start;
            for (p, lo, m) in ranges {
                assert_eq!(p * ENC_PART_ROWS + lo, pos);
                assert!(lo + m <= ENC_PART_ROWS);
                pos += m;
            }
        }
    }
}
