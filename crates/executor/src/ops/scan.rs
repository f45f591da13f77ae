//! Table scan: materializes chunks from an in-memory columnar table.
//!
//! Scan decompression runs *inside* the scan, bypassing the expression
//! evaluator (§4.1 notes Vectorwise does the same) — but the decode loops
//! themselves are flavored primitives: a scan built
//! [`Scan::with_context`] decodes each compressed column partition
//! through a [`PrimInstance`], so the per-morsel bandit picks the
//! fastest unpack variant exactly like any selection or map primitive.
//! Without a context (or under [`crate::config::DecodeMode::Reference`])
//! encoded columns decode through the bit-for-bit reference path in
//! [`ma_vector::encode`].
//!
//! Two cursor modes share one operator: a *sequential* cursor walking the
//! whole table, and a *morsel* cursor pulling row ranges from a shared
//! [`MorselQueue`] so several workers shard one table. Because morsels are
//! vector-aligned, the multiset of chunk boundaries is identical in both
//! modes — only which worker produces a chunk varies.
//!
//! Under a Filter, a scan reads the table's **zone maps**: the exact
//! `(min, max)` of every 1024-row run of each integer column
//! ([`ma_vector::ColumnStats::zones`]), held alike by raw and encoded
//! tables. Of a chunk, the scan looks at the *hull* of the zones its rows
//! overlap, and uses it twice:
//!
//! * **Skip.** A [`ZoneGuard`] is the interval the Filter proves its
//!   passing rows lie in on one column (the analyzer's output fact). A
//!   chunk whose hull some guard misses is dropped before anything is
//!   decoded. Skipping moves no chunk boundary and drops only rows the
//!   Filter would drop.
//! * **Admit.** A guard may stem from a column-to-column comparison, so a
//!   hull inside it does not make the Filter true. Admission is therefore
//!   per conjunct: the scan owns the Filter's *zone conjuncts*
//!   ([`ZonePred`], `col op const` on an integer column) and evaluates
//!   each only on the chunks whose hull its range does not contain. A
//!   chunk every conjunct admits leaves the scan with no selection vector,
//!   so the operators above it take their full-computation path.

use std::sync::Arc;

use ma_primitives::{DecodeDeltaCol, DecodeDictCol, DecodeForCol};
use ma_vector::encode::{part_ranges, DictStr, EncColumn, ENC_PART_ROWS, SYNC_ROWS};
use ma_vector::{
    Column, ColumnStats, DataChunk, DataType, MorselQueue, RowRange, SelVec, StrVec, Table, Vector,
};

use crate::adaptive::{HeurKind, NodeScope, PrimInstance};
use crate::config::DecodeMode;
use crate::eval::CompiledPred;
use crate::expr::Pred;
use crate::ops::Operator;
use crate::ExecError;

enum Cursor {
    /// Walk the whole table front to back.
    Seq { pos: usize },
    /// Pull vector-aligned ranges from a queue shared between workers.
    Morsel {
        queue: Arc<MorselQueue>,
        current: Option<RowRange>,
        off: usize,
    },
}

/// How one scanned column turns encoded partitions into value vectors.
enum ColDecoder {
    /// Raw column, or encoded without a context: `Column::slice_vector`
    /// (the reference decode path for encoded columns).
    Reference,
    /// Frame-of-reference `i32` through a flavored decode instance.
    ForI32(PrimInstance<DecodeForCol<i32>>),
    /// Frame-of-reference `i64` through a flavored decode instance.
    ForI64(PrimInstance<DecodeForCol<i64>>),
    /// Delta-coded `i32` through a flavored decode instance.
    DeltaI32(PrimInstance<DecodeDeltaCol>),
    /// Dictionary-coded strings through a flavored decode instance.
    DictStr(PrimInstance<DecodeDictCol>),
}

/// A zone-map guard: only rows whose scanned column `col` (an output
/// position of the scan) lies in `[lo, hi]` can pass the Filter above the
/// scan. An unbounded side is `i128::MIN` or `MAX`; `lo > hi` is the empty
/// range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneGuard {
    /// Output position of the guarded column.
    pub col: usize,
    /// Least value that can pass.
    pub lo: i128,
    /// Greatest value that can pass.
    pub hi: i128,
}

impl ZoneGuard {
    /// Whether some value in `[lo, hi]` lies in the guard's range.
    pub fn overlaps(&self, lo: i128, hi: i128) -> bool {
        self.lo.max(lo) <= self.hi.min(hi)
    }

    /// Whether every value in `[lo, hi]` lies in the guard's range.
    pub fn contains(&self, lo: i128, hi: i128) -> bool {
        self.lo <= lo && hi <= self.hi
    }
}

/// A zone conjunct a scan owns: `pred`, a comparison of one integer
/// column with a constant (scan output positions), and `range`, the
/// values of that column it passes.
#[derive(Debug, Clone, PartialEq)]
pub struct ZonePred {
    /// The column and the values `pred` passes.
    pub range: ZoneGuard,
    /// The conjunct itself.
    pub pred: Pred,
}

/// A [`ZonePred`] compiled: its range, the table position of its column,
/// and the predicate.
struct OwnedPred {
    range: ZoneGuard,
    table_col: usize,
    pred: CompiledPred,
}

/// Scan over selected columns of a table (sequential or morsel-sharded).
pub struct Scan {
    table: Arc<Table>,
    col_idx: Vec<usize>,
    types: Vec<DataType>,
    vector_size: usize,
    cursor: Cursor,
    decoders: Vec<ColDecoder>,
    /// The guards, each with its column's table position.
    guards: Vec<(ZoneGuard, usize)>,
    /// The zone conjuncts the scan evaluates, in the Filter's order.
    owned: Vec<OwnedPred>,
}

/// The hull of table column `col`'s zones over rows `[start, start + n)`,
/// `None` for a column without zones.
fn hull(stats: &[ColumnStats], col: usize, start: usize, n: usize) -> Option<(i128, i128)> {
    let (lo, hi) = stats[col].zone_hull(start, n)?;
    Some((lo.into(), hi.into()))
}

impl Scan {
    fn build(
        table: Arc<Table>,
        columns: &[&str],
        vector_size: usize,
        cursor: Cursor,
    ) -> Result<Self, ExecError> {
        let mut col_idx = Vec::with_capacity(columns.len());
        let mut types = Vec::with_capacity(columns.len());
        for name in columns {
            let i = table.column_index(name)?;
            col_idx.push(i);
            types.push(table.column_at(i).data_type());
        }
        let decoders = col_idx.iter().map(|_| ColDecoder::Reference).collect();
        Ok(Scan {
            table,
            col_idx,
            types,
            vector_size,
            cursor,
            decoders,
            guards: Vec::new(),
            owned: Vec::new(),
        })
    }

    /// The table position of output column `col`.
    fn table_col(&self, col: usize, what: &str) -> Result<usize, ExecError> {
        self.col_idx.get(col).copied().ok_or_else(|| {
            ExecError::Plan(format!(
                "{what} on column {col} of a {}-column scan",
                self.col_idx.len()
            ))
        })
    }

    /// Attaches zone-map guards: a chunk whose zone hull some guard misses
    /// is skipped undecoded. Every integer column carries zones, whatever
    /// its storage; a guard on any other column rules nothing out.
    pub fn with_guards(mut self, guards: &[ZoneGuard]) -> Result<Self, ExecError> {
        for &g in guards {
            let i = self.table_col(g.col, "zone guard")?;
            self.guards.push((g, i));
        }
        Ok(self)
    }

    /// Makes the scan evaluate the Filter conjuncts `preds` on the chunks
    /// whose zone hull a conjunct's range does not contain, compiled in
    /// `scope` (the Filter node's, so their instances report under it).
    /// The conjunction of what remains of the Filter is the caller's.
    pub fn with_zone_preds(
        mut self,
        preds: &[ZonePred],
        scope: &NodeScope,
    ) -> Result<Self, ExecError> {
        for zp in preds {
            let table_col = self.table_col(zp.range.col, "zone conjunct")?;
            let pred = CompiledPred::compile(&zp.pred, &self.types, scope)?;
            self.owned.push(OwnedPred {
                range: zp.range,
                table_col,
                pred,
            });
        }
        Ok(self)
    }

    /// Attaches flavored decode instances for every encoded column, one
    /// [`PrimInstance`] per column so each compressed stream gets its own
    /// bandit state, displayed as `{label}/{column}/{signature}`. Columns
    /// without a codec — every column when the table is raw, and all of
    /// them under [`DecodeMode::Reference`], which the differential fuzzer
    /// cross-checks against — keep the reference decoder, so this is
    /// always safe to call.
    pub fn with_context(mut self, scope: &NodeScope) -> Result<Self, ExecError> {
        if scope.ctx().config().decode == DecodeMode::Reference {
            return Ok(self);
        }
        for (k, &i) in self.col_idx.iter().enumerate() {
            let Column::Enc(e) = self.table.column_at(i) else {
                continue;
            };
            let col_name = &self.table.column_names()[i];
            let name = |sig: &str| format!("{col_name}/{sig}");
            let none = HeurKind::None;
            self.decoders[k] = match &**e {
                EncColumn::For(c) if c.dt == DataType::I32 => {
                    let sig = "decode_for_i32";
                    ColDecoder::ForI32(scope.instance(sig, &name(sig), none)?)
                }
                EncColumn::For(_) => {
                    let sig = "decode_for_i64";
                    ColDecoder::ForI64(scope.instance(sig, &name(sig), none)?)
                }
                EncColumn::Delta(_) => {
                    let sig = "decode_delta_i32";
                    ColDecoder::DeltaI32(scope.instance(sig, &name(sig), none)?)
                }
                EncColumn::Dict(_) => {
                    let sig = "decode_dict_str";
                    ColDecoder::DictStr(scope.instance(sig, &name(sig), none)?)
                }
            };
        }
        Ok(self)
    }

    /// Builds a sequential scan of `columns` (by name, output order as
    /// given).
    pub fn new(table: Arc<Table>, columns: &[&str], vector_size: usize) -> Result<Self, ExecError> {
        Scan::build(table, columns, vector_size, Cursor::Seq { pos: 0 })
    }

    /// Builds a morsel-sharded scan: ranges come from `queue`, which must
    /// cover exactly this table's rows and is typically shared with the
    /// sibling workers of a [`crate::ops::Parallel`]. The morsel size must
    /// be a multiple of `vector_size` so chunk boundaries coincide with
    /// the sequential scan's (the worker-count-invariance contract of
    /// DESIGN.md §5).
    pub fn morsel(
        table: Arc<Table>,
        columns: &[&str],
        vector_size: usize,
        queue: Arc<MorselQueue>,
    ) -> Result<Self, ExecError> {
        if queue.rows() != table.rows() {
            return Err(ExecError::Plan(format!(
                "morsel queue covers {} rows but table {} has {}",
                queue.rows(),
                table.name(),
                table.rows()
            )));
        }
        if vector_size == 0 || !queue.morsel_rows().is_multiple_of(vector_size) {
            return Err(ExecError::Plan(format!(
                "morsel size {} is not a multiple of vector size {vector_size}",
                queue.morsel_rows()
            )));
        }
        Scan::build(
            table,
            columns,
            vector_size,
            Cursor::Morsel {
                queue,
                current: None,
                off: 0,
            },
        )
    }

    /// The next `(start, len)` slice to emit, advancing the cursor.
    fn next_slice(&mut self) -> Option<(usize, usize)> {
        match &mut self.cursor {
            Cursor::Seq { pos } => {
                let rows = self.table.rows();
                if *pos >= rows {
                    return None;
                }
                let n = (rows - *pos).min(self.vector_size);
                let start = *pos;
                *pos += n;
                Some((start, n))
            }
            Cursor::Morsel {
                queue,
                current,
                off,
            } => loop {
                match current {
                    Some(r) if *off < r.len => {
                        let start = r.start + *off;
                        let n = (r.len - *off).min(self.vector_size);
                        *off += n;
                        return Some((start, n));
                    }
                    _ => {
                        *current = Some(queue.claim()?);
                        *off = 0;
                    }
                }
            },
        }
    }
}

/// Decodes dict partitions overlapping `[start, start + n)` through the
/// flavor chosen for this call, assembling a code-carrying [`StrVec`].
fn decode_dict_slice(
    inst: &mut PrimInstance<DecodeDictCol>,
    c: &DictStr,
    start: usize,
    n: usize,
) -> Vector {
    let mut views = vec![(0u32, 0u32); n];
    let mut codes = vec![0i32; n];
    inst.invoke(n as u64, |f| {
        let mut o = 0;
        for (p, lo, m) in part_ranges(start, n) {
            let part = &c.parts[p];
            f(
                &mut views[o..],
                &mut codes[o..],
                &c.words,
                (part.word0 as u64) * 64,
                c.width,
                &c.views,
                lo,
                m,
            );
            o += m;
        }
    });
    Vector::Str(StrVec::from_dict(
        Arc::clone(&c.arena),
        Arc::clone(&c.views),
        views,
        codes,
    ))
}

impl Operator for Scan {
    fn next(&mut self) -> Result<Option<DataChunk>, ExecError> {
        'chunks: loop {
            let Some((start, n)) = self.next_slice() else {
                return Ok(None);
            };
            if self.guards.is_empty() && self.owned.is_empty() {
                return Ok(Some(self.decode(start, n)));
            }
            let missed = |&(g, i): &(ZoneGuard, usize)| {
                hull(self.table.stats(), i, start, n).is_some_and(|(lo, hi)| !g.overlaps(lo, hi))
            };
            if self.guards.iter().any(missed) {
                continue;
            }
            let mut chunk = self.decode(start, n);
            let stats = self.table.stats();
            let mut sel: Option<SelVec> = None;
            for op in &mut self.owned {
                let admitted = hull(stats, op.table_col, start, n)
                    .is_some_and(|(lo, hi)| op.range.contains(lo, hi));
                if admitted {
                    continue;
                }
                let out = op.pred.apply(&chunk, sel.as_ref().map(SelVec::as_slice));
                if out.is_empty() {
                    continue 'chunks;
                }
                sel = Some(out);
            }
            chunk.set_sel(sel);
            return Ok(Some(chunk));
        }
    }

    fn out_types(&self) -> &[DataType] {
        &self.types
    }
}

impl Scan {
    /// Materializes rows `[start, start + n)` of the scanned columns.
    fn decode(&mut self, start: usize, n: usize) -> DataChunk {
        let mut cols = Vec::with_capacity(self.col_idx.len());
        for (k, &i) in self.col_idx.iter().enumerate() {
            let col = self.table.column_at(i);
            // One `invoke` per vector: the decode instance observes each
            // morsel's chunks individually, the unit the bandit adapts.
            let v = match (&mut self.decoders[k], col) {
                (ColDecoder::Reference, col) => col.slice_vector(start, n),
                (ColDecoder::ForI32(inst), Column::Enc(e)) => {
                    let EncColumn::For(c) = &**e else {
                        unreachable!("decoder built from this column");
                    };
                    let mut out = vec![0i32; n];
                    inst.invoke(n as u64, |f| {
                        let mut o = 0;
                        for (p, lo, m) in part_ranges(start, n) {
                            let part = &c.parts[p];
                            f(
                                &mut out[o..],
                                &c.words,
                                (part.word0 as u64) * 64,
                                part.width,
                                part.base,
                                lo,
                                m,
                            );
                            o += m;
                        }
                    });
                    Vector::I32(out)
                }
                (ColDecoder::ForI64(inst), Column::Enc(e)) => {
                    let EncColumn::For(c) = &**e else {
                        unreachable!("decoder built from this column");
                    };
                    let mut out = vec![0i64; n];
                    inst.invoke(n as u64, |f| {
                        let mut o = 0;
                        for (p, lo, m) in part_ranges(start, n) {
                            let part = &c.parts[p];
                            f(
                                &mut out[o..],
                                &c.words,
                                (part.word0 as u64) * 64,
                                part.width,
                                part.base,
                                lo,
                                m,
                            );
                            o += m;
                        }
                    });
                    Vector::I64(out)
                }
                (ColDecoder::DeltaI32(inst), Column::Enc(e)) => {
                    let EncColumn::Delta(c) = &**e else {
                        unreachable!("decoder built from this column");
                    };
                    let mut out = vec![0i32; n];
                    inst.invoke(n as u64, |f| {
                        let mut o = 0;
                        for (p, lo, m) in part_ranges(start, n) {
                            let part = &c.parts[p];
                            let bases = &c.sync[p * (ENC_PART_ROWS / SYNC_ROWS)..];
                            f(
                                &mut out[o..],
                                &c.words,
                                (part.word0 as u64) * 64,
                                part.width,
                                bases,
                                lo,
                                m,
                            );
                            o += m;
                        }
                    });
                    Vector::I32(out)
                }
                (ColDecoder::DictStr(inst), Column::Enc(e)) => {
                    let EncColumn::Dict(c) = &**e else {
                        unreachable!("decoder built from this column");
                    };
                    decode_dict_slice(inst, c, start, n)
                }
                (_, col) => col.slice_vector(start, n),
            };
            cols.push(Arc::new(v));
        }
        DataChunk::new(cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{collect, total_rows};
    use ma_vector::{Column, ColumnBuilder};

    fn table(n: usize) -> Arc<Table> {
        let mut a = ColumnBuilder::with_capacity(DataType::I32, n);
        let mut s = ColumnBuilder::with_capacity(DataType::Str, n);
        for i in 0..n {
            a.push_i32(i as i32);
            s.push_str(&format!("row{i}"));
        }
        Arc::new(
            Table::new(
                "t",
                vec![("a".into(), a.finish()), ("s".into(), s.finish())],
            )
            .unwrap(),
        )
    }

    #[test]
    fn scans_all_rows_in_chunks() {
        let t = table(2500);
        let mut scan = Scan::new(t, &["a", "s"], 1024).unwrap();
        assert_eq!(scan.out_types(), &[DataType::I32, DataType::Str]);
        let chunks = collect(&mut scan).unwrap();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].len(), 1024);
        assert_eq!(chunks[2].len(), 452);
        assert_eq!(total_rows(&chunks), 2500);
        assert_eq!(chunks[1].column(0).as_i32()[0], 1024);
        assert_eq!(chunks[1].column(1).as_str_vec().get(0), "row1024");
    }

    #[test]
    fn column_order_follows_request() {
        let t = table(10);
        let mut scan = Scan::new(t, &["s", "a"], 16).unwrap();
        assert_eq!(scan.out_types(), &[DataType::Str, DataType::I32]);
        let c = scan.next().unwrap().unwrap();
        assert_eq!(c.column(1).as_i32()[3], 3);
    }

    #[test]
    fn unknown_column_errors() {
        let t = table(1);
        assert!(Scan::new(t, &["nope"], 16).is_err());
    }

    #[test]
    fn morsel_scan_covers_table_with_aligned_boundaries() {
        let t = table(2500);
        let queue = Arc::new(ma_vector::MorselQueue::with_morsel(2500, 1024));
        let mut scan = Scan::morsel(t.clone(), &["a"], 1024, queue).unwrap();
        let chunks = collect(&mut scan).unwrap();
        // Same boundary multiset as the sequential scan: 1024, 1024, 452.
        assert_eq!(
            chunks.iter().map(|c| c.len()).collect::<Vec<_>>(),
            vec![1024, 1024, 452]
        );
        assert_eq!(total_rows(&chunks), 2500);
        assert_eq!(chunks[1].column(0).as_i32()[0], 1024);
    }

    #[test]
    fn morsel_queue_size_mismatch_rejected() {
        let t = table(100);
        let queue = Arc::new(ma_vector::MorselQueue::new(99));
        assert!(Scan::morsel(t, &["a"], 16, queue).is_err());
    }

    #[test]
    fn misaligned_morsel_rejected() {
        // Morsel of 1000 rows with a vector size of 1024: boundaries would
        // diverge from the sequential scan's, so construction must fail.
        let t = table(2500);
        let queue = Arc::new(ma_vector::MorselQueue::with_morsel(2500, 1000));
        assert!(Scan::morsel(t, &["a"], 1024, queue).is_err());
    }

    #[test]
    fn empty_table_yields_no_chunks() {
        let t =
            Arc::new(Table::new("e", vec![("a".into(), Column::I32(Arc::new(vec![])))]).unwrap());
        let mut scan = Scan::new(t, &["a"], 16).unwrap();
        assert!(scan.next().unwrap().is_none());
    }

    fn ctx() -> crate::QueryContext {
        crate::QueryContext::new(
            Arc::new(ma_primitives::build_dictionary()),
            crate::ExecConfig::fixed_default(),
        )
    }

    /// A table whose three columns each pick a different codec: `key` is
    /// nondecreasing i32 (delta), `cat` is low-NDV strings (dict), `qty`
    /// is bounded i64 (frame-of-reference).
    fn encoded_pair(n: usize) -> (Arc<Table>, Arc<Table>) {
        let mut key = ColumnBuilder::with_capacity(DataType::I32, n);
        let mut cat = ColumnBuilder::with_capacity(DataType::Str, n);
        let mut qty = ColumnBuilder::with_capacity(DataType::I64, n);
        for i in 0..n {
            key.push_i32((i / 3) as i32);
            cat.push_str(&format!("cat{}", i % 13));
            qty.push_i64((i % 50) as i64 + 1);
        }
        let raw = Arc::new(
            Table::new(
                "t",
                vec![
                    ("key".into(), key.finish()),
                    ("cat".into(), cat.finish()),
                    ("qty".into(), qty.finish()),
                ],
            )
            .unwrap(),
        );
        let enc = Arc::new(ma_vector::encode_table(&raw));
        (raw, enc)
    }

    #[test]
    fn encoded_scan_with_context_matches_raw_scan() {
        let n = 2 * ENC_PART_ROWS + 777; // straddle a partition boundary
        let (raw, enc) = encoded_pair(n);
        for i in 0..3 {
            assert!(matches!(enc.column_at(i), Column::Enc(_)), "column {i}");
        }
        let ctx = ctx();
        let mut raw_scan = Scan::new(raw, &["key", "cat", "qty"], 1024).unwrap();
        let mut enc_scan = Scan::new(enc, &["key", "cat", "qty"], 1024)
            .unwrap()
            .with_context(&ctx.scope("scan_t"))
            .unwrap();
        loop {
            match (raw_scan.next().unwrap(), enc_scan.next().unwrap()) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    assert_eq!(a.len(), b.len());
                    assert_eq!(a.column(0).as_i32(), b.column(0).as_i32());
                    assert_eq!(a.column(2).as_i64(), b.column(2).as_i64());
                    let (sa, sb) = (a.column(1).as_str_vec(), b.column(1).as_str_vec());
                    assert!(sa.iter().eq(sb.iter()));
                    // The decoded dict vector carries codes for pushdown.
                    assert!(sb.dict_codes().is_some());
                }
                (a, b) => panic!(
                    "chunk count diverged: {:?} vs {:?}",
                    a.is_some(),
                    b.is_some()
                ),
            }
        }
        drop(enc_scan);
        // One decode instance per encoded column, visible under its label.
        let reports = ctx.reports();
        for sig in ["decode_delta_i32", "decode_dict_str", "decode_for_i64"] {
            assert_eq!(
                reports
                    .iter()
                    .filter(|r| r.signature == sig && r.label.starts_with("scan_t/"))
                    .count(),
                1,
                "{sig}"
            );
        }
    }

    #[test]
    fn with_context_on_raw_table_keeps_reference_decoders() {
        let t = table(100);
        let ctx = ctx();
        let mut scan = Scan::new(t, &["a", "s"], 64)
            .unwrap()
            .with_context(&ctx.scope("scan_t"))
            .unwrap();
        let c = scan.next().unwrap().unwrap();
        assert_eq!(c.column(0).as_i32()[5], 5);
        drop(scan);
        assert!(ctx
            .reports()
            .iter()
            .all(|r| !r.signature.starts_with("decode_")));
    }

    #[test]
    fn morsel_scan_decodes_encoded_partitions() {
        let n = 2 * ENC_PART_ROWS;
        let (raw, enc) = encoded_pair(n);
        let queue = Arc::new(ma_vector::MorselQueue::with_morsel(n, 8 * 1024));
        let ctx = ctx();
        let mut scan = Scan::morsel(enc, &["qty", "key"], 1024, queue)
            .unwrap()
            .with_context(&ctx.scope("scan_t"))
            .unwrap();
        let chunks = collect(&mut scan).unwrap();
        assert_eq!(total_rows(&chunks), n);
        let raw_qty = raw.column_at(2).slice_vector(0, n);
        let mut row = 0;
        for ch in &chunks {
            for j in 0..ch.len() {
                assert_eq!(ch.column(0).as_i64()[j], raw_qty.as_i64()[row + j]);
            }
            row += ch.len();
        }
    }
}
