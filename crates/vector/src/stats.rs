//! Per-column base-table statistics: exact min/max, distinct counts, float
//! finiteness, and per-vector zone maps.
//!
//! These are the *base facts* the plan-level abstract interpreter
//! (`ma_executor::analyze`) starts from: every derived interval, NDV bound,
//! and row-count bound is rooted in a [`ColumnStats`] computed here by a
//! single full scan of the column. The counts are **exact**, not sketches —
//! exactness is what lets the analyzer treat `distinct == rows` as a proof
//! of all-distinctness (which in turn keeps join row bounds probe-sided)
//! rather than an estimate that could lie. At the scale factors this
//! repository runs (SF ≤ 1 in tests, dictionary-compressible strings), one
//! hashed pass per column is cheap, and [`Table::stats`](crate::Table::stats)
//! memoizes it so tables that are never analyzed never pay it.
//!
//! The same pass records an integer column's **zones**: the exact
//! `(min, max)` of every [`ZONE_ROWS`]-row run. They are statistics, not
//! storage: `encode_table` and `decode_table` carry them with the rest, so
//! a table and its raw or encoded twin hold identical zones whatever the
//! codec, and no column's resident bytes include them (16 bytes per 1024
//! values). A scan under a Filter reads them to skip the chunks the
//! Filter's guards rule out and to admit the ones a range conjunct passes
//! whole (`ma_executor::ops::Scan`).

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use crate::table::Column;

/// Rows per zone: [`ColumnStats::zones`] holds the exact bounds of each
/// run of this many rows.
pub const ZONE_ROWS: usize = 1024;

/// The set the distinct counts are taken with: std's `HashSet` under a
/// fixed multiply-xorshift hasher instead of SipHash. Column values are
/// the engine's own tables and intermediates, not keys an outsider picks to
/// collide, and SipHash's per-value cost dominated the count.
type ValueSet<T> = HashSet<T, BuildHasherDefault<MixHasher>>;

/// Folds each 64-bit word in with a multiply (FxHash-style) and spreads
/// the high bits down in [`Hasher::finish`], which the table's bucket
/// index reads from the low bits.
#[derive(Default, Clone, Copy)]
struct MixHasher(u64);

const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for MixHasher {
    fn finish(&self) -> u64 {
        let z = (self.0 ^ (self.0 >> 32)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        z ^ (z >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut b = [0; 8];
            b.copy_from_slice(w);
            self.write_u64(u64::from_le_bytes(b));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut b = [0; 8];
            b[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(MIX);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

/// Exact single-pass statistics for one table column.
///
/// `distinct` is the exact number of distinct values in the column (distinct
/// bit patterns for floats, so `-0.0` and `0.0` count as two and every NaN
/// payload as one). The per-type payload carries the value domain.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Exact count of distinct values in the column.
    pub distinct: usize,
    /// Type-specific value domain.
    pub domain: StatsDomain,
    /// Widest single value in bytes: the scalar width for numeric columns
    /// (2/4/8), the longest string's byte length for `Str`. Zero for an
    /// empty column. The memory/cost analyzer multiplies this by row
    /// bounds to bound string-storage bytes.
    pub max_bytes: usize,
    /// For an `I16` / `I32` / `I64` column: the exact `(min, max)` of rows
    /// `[z * ZONE_ROWS, (z + 1) * ZONE_ROWS)` at position `z`, the last
    /// zone possibly shorter. Empty for every other type.
    pub zones: Vec<(i64, i64)>,
}

/// The value domain of a column, by scalar type.
///
/// Integer columns of any width normalize to `i64` bounds. An *empty*
/// column is represented by an empty interval (`min > max` for integers,
/// `min = +inf, max = -inf` for floats) with `distinct == 0`.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsDomain {
    /// `I16` / `I32` / `I64` columns, bounds widened to `i64`.
    Int {
        /// Smallest value present.
        min: i64,
        /// Largest value present.
        max: i64,
    },
    /// `F64` columns. `min`/`max` range over the non-NaN values.
    Float {
        /// Smallest non-NaN value present.
        min: f64,
        /// Largest non-NaN value present.
        max: f64,
        /// True iff no value is NaN or ±infinity.
        all_finite: bool,
    },
    /// `Str` columns: only the distinct count is tracked.
    Str,
}

impl ColumnStats {
    /// Computes exact statistics for `col` in one pass.
    pub fn compute(col: &Column) -> ColumnStats {
        match col {
            Column::I16(v) => int_stats(v.iter().map(|&x| i64::from(x)), 2, v.len()),
            Column::I32(v) => int_stats(v.iter().map(|&x| i64::from(x)), 4, v.len()),
            Column::I64(v) => int_stats(v.iter().copied(), 8, v.len()),
            Column::F64(v) => {
                let mut seen =
                    ValueSet::with_capacity_and_hasher(v.len().min(1 << 16), Default::default());
                let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
                let mut all_finite = true;
                for &x in v.iter() {
                    seen.insert(x.to_bits());
                    if x.is_nan() {
                        all_finite = false;
                    } else {
                        all_finite &= x.is_finite();
                        min = min.min(x);
                        max = max.max(x);
                    }
                }
                ColumnStats {
                    distinct: seen.len(),
                    domain: StatsDomain::Float {
                        min,
                        max,
                        all_finite,
                    },
                    max_bytes: if v.is_empty() { 0 } else { 8 },
                    zones: Vec::new(),
                }
            }
            Column::Enc(e) => e.compute_stats(),
            Column::Str { arena, views } => {
                let mut seen: ValueSet<&[u8]> = ValueSet::with_capacity_and_hasher(
                    views.len().min(1 << 16),
                    Default::default(),
                );
                let mut max_bytes = 0usize;
                for &(off, len) in views.iter() {
                    seen.insert(&arena[off as usize..(off + len) as usize]);
                    max_bytes = max_bytes.max(len as usize);
                }
                ColumnStats {
                    distinct: seen.len(),
                    domain: StatsDomain::Str,
                    max_bytes,
                    zones: Vec::new(),
                }
            }
        }
    }

    /// Bounds on every value in rows `[start, start + n)`: the hull of the
    /// zones those rows overlap. `None` for a column without zones.
    pub fn zone_hull(&self, start: usize, n: usize) -> Option<(i64, i64)> {
        let zones = self
            .zones
            .get(start / ZONE_ROWS..=(start + n.max(1) - 1) / ZONE_ROWS)?;
        zones
            .iter()
            .copied()
            .reduce(|(lo, hi), (l, h)| (lo.min(l), hi.max(h)))
    }
}

fn int_stats(values: impl Iterator<Item = i64>, width: usize, rows: usize) -> ColumnStats {
    let mut seen = ValueSet::default();
    let (mut min, mut max) = (i64::MAX, i64::MIN);
    let mut zones: Vec<(i64, i64)> = Vec::with_capacity(rows.div_ceil(ZONE_ROWS));
    for (i, x) in values.enumerate() {
        seen.insert(x);
        min = min.min(x);
        max = max.max(x);
        match zones.last_mut() {
            Some(z) if i % ZONE_ROWS != 0 => *z = (z.0.min(x), z.1.max(x)),
            _ => zones.push((x, x)),
        }
    }
    ColumnStats {
        distinct: seen.len(),
        domain: StatsDomain::Int { min, max },
        max_bytes: if rows == 0 { 0 } else { width },
        zones,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn int_min_max_distinct_are_exact() {
        let col = Column::I32(Arc::new(vec![3, -7, 3, 42, 0]));
        let s = ColumnStats::compute(&col);
        assert_eq!(s.distinct, 4);
        assert_eq!(s.domain, StatsDomain::Int { min: -7, max: 42 });
        assert_eq!(s.max_bytes, 4);
    }

    #[test]
    fn zones_bound_each_run_of_rows_exactly() {
        let n = 2 * ZONE_ROWS + 5;
        let v: Vec<i32> = (0..n as i32).map(|i| (i * 37) % 1000 - 500).collect();
        let s = ColumnStats::compute(&Column::I32(Arc::new(v.clone())));
        assert_eq!(s.zones.len(), 3);
        for (z, &(lo, hi)) in s.zones.iter().enumerate() {
            let run = &v[z * ZONE_ROWS..((z + 1) * ZONE_ROWS).min(n)];
            let want = (*run.iter().min().unwrap(), *run.iter().max().unwrap());
            assert_eq!((lo, hi), (i64::from(want.0), i64::from(want.1)), "zone {z}");
        }
        // A hull covers every zone its rows touch, and only those.
        for (start, len) in [(0, 1), (1000, 100), (ZONE_ROWS, ZONE_ROWS), (n - 3, 3)] {
            let rows = &v[start..start + len];
            let (lo, hi) = s.zone_hull(start, len).unwrap();
            assert!(rows
                .iter()
                .all(|&x| lo <= i64::from(x) && i64::from(x) <= hi));
            let first = start / ZONE_ROWS;
            let last = (start + len - 1) / ZONE_ROWS;
            let hull = s.zones[first..=last]
                .iter()
                .fold((i64::MAX, i64::MIN), |a, z| (a.0.min(z.0), a.1.max(z.1)));
            assert_eq!((lo, hi), hull, "rows {start}+{len}");
        }
        // Floats and strings carry none.
        let f = ColumnStats::compute(&Column::F64(Arc::new(vec![1.0; 10])));
        assert!(f.zones.is_empty() && f.zone_hull(0, 10).is_none());
    }

    #[test]
    fn empty_int_column_has_empty_interval() {
        let col = Column::I64(Arc::new(vec![]));
        let s = ColumnStats::compute(&col);
        assert_eq!(s.distinct, 0);
        assert_eq!(
            s.domain,
            StatsDomain::Int {
                min: i64::MAX,
                max: i64::MIN
            }
        );
        assert_eq!(s.max_bytes, 0);
    }

    #[test]
    fn float_stats_track_finiteness_and_skip_nan_in_bounds() {
        let col = Column::F64(Arc::new(vec![1.5, f64::NAN, -2.0, 1.5]));
        let s = ColumnStats::compute(&col);
        assert_eq!(s.distinct, 3);
        match s.domain {
            StatsDomain::Float {
                min,
                max,
                all_finite,
            } => {
                assert_eq!((min, max), (-2.0, 1.5));
                assert!(!all_finite);
            }
            other => panic!("unexpected domain: {other:?}"),
        }
    }

    /// The fixed hasher changes no count: NDV equals a `BTreeSet` count
    /// over random values of every column type, duplicates included.
    #[test]
    fn distinct_counts_match_an_ordered_set() {
        use std::collections::BTreeSet;
        let mut state = 0x5EEDu64;
        let mut next = move |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        for round in 0..20u64 {
            let rows = 1 + next(3000) as usize;
            let spread = 1 + next(1 << (4 * (round % 6) + 1));
            let ints: Vec<i64> = (0..rows)
                .map(|_| next(spread) as i64 - (spread / 2) as i64)
                .collect();
            let want = ints.iter().collect::<BTreeSet<_>>().len();
            let s = ColumnStats::compute(&Column::I64(Arc::new(ints.clone())));
            assert_eq!(s.distinct, want, "i64, round {round}");
            let floats: Vec<f64> = ints.iter().map(|&x| x as f64 * 0.25).collect();
            let s = ColumnStats::compute(&Column::F64(Arc::new(floats)));
            assert_eq!(s.distinct, want, "f64, round {round}");
            // Strings of 0..=20 bytes, so words straddle the 8-byte chunks.
            let strs: Vec<String> = ints
                .iter()
                .map(|x| "k".repeat((x.unsigned_abs() % 21) as usize) + &x.to_string())
                .collect();
            let want = strs.iter().collect::<BTreeSet<_>>().len();
            let mut arena = Vec::new();
            let views = strs
                .iter()
                .map(|s| {
                    let off = arena.len() as u32;
                    arena.extend_from_slice(s.as_bytes());
                    (off, s.len() as u32)
                })
                .collect();
            let col = Column::Str {
                arena: Arc::from(arena),
                views: Arc::new(views),
            };
            assert_eq!(
                ColumnStats::compute(&col).distinct,
                want,
                "str, round {round}"
            );
        }
        // Byte strings that differ only past a word boundary or in their
        // zero padding stay apart.
        let arena: Arc<[u8]> = Arc::from(&b"abcdefgh\0abcdefgh"[..]);
        let views = Arc::new(vec![(0u32, 8u32), (0, 9), (9, 8)]);
        let s = ColumnStats::compute(&Column::Str { arena, views });
        assert_eq!(s.distinct, 2);
    }

    #[test]
    fn string_distinct_compares_bytes_not_views() {
        // Two views pointing at identical byte ranges are one value.
        let arena: Arc<[u8]> = Arc::from(&b"abcabx"[..]);
        let views = Arc::new(vec![(0u32, 2u32), (3, 2), (4, 2)]);
        let col = Column::Str { arena, views };
        let s = ColumnStats::compute(&col);
        assert_eq!(s.distinct, 2); // "ab", "ab", "bx"
        assert_eq!(s.domain, StatsDomain::Str);
        assert_eq!(s.max_bytes, 2);
    }
}
