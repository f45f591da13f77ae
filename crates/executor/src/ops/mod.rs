//! Physical operators of the vector-at-a-time engine.

mod aggregate;
pub(crate) mod exchange;
pub(crate) mod fetch;
mod hash_join;
mod merge_join;
mod project;
mod scan;
mod select;
mod sort;
pub(crate) mod xrt;

pub use crate::expr::{Agg, SortKey};
pub(crate) use aggregate::key_row_width;
pub use aggregate::{HashAggregate, StreamAggregate};
pub use exchange::{
    ConsumerFactory, FragmentFactory, HashPartitionExchange, MergeExchange, Parallel,
};
pub use hash_join::{HashJoin, JoinKind, SharedBuild};
pub use merge_join::MergeJoin;
pub use project::{ProjItem, Project};
pub use scan::Scan;
pub use select::Select;
pub use sort::{materialize, Limit, Sort};

use std::sync::Arc;

use ma_vector::{DataChunk, DataType, StrVec, Vector};

use crate::ExecError;

/// A pull-based vectorized operator.
pub trait Operator {
    /// Produces the next chunk, or `None` at end of stream.
    fn next(&mut self) -> Result<Option<DataChunk>, ExecError>;

    /// Output column types.
    fn out_types(&self) -> &[DataType];
}

/// Boxed operator, the unit plans compose. `Send` so whole pipelines can
/// move to scan worker threads (see [`Parallel`]).
pub type BoxOp = Box<dyn Operator + Send>;

/// Drains an operator, returning all chunks.
pub fn collect(op: &mut dyn Operator) -> Result<Vec<DataChunk>, ExecError> {
    let mut out = Vec::new();
    while let Some(chunk) = op.next()? {
        out.push(chunk);
    }
    Ok(out)
}

/// Total live rows across collected chunks.
pub fn total_rows(chunks: &[DataChunk]) -> usize {
    chunks.iter().map(DataChunk::live_count).sum()
}

// ---------------------------------------------------------------------------
// materialized row store, shared by joins and sort
// ---------------------------------------------------------------------------

/// A fully materialized, densely packed column set (only live rows of the
/// appended chunks are kept). Joins materialize their build side into one;
/// `Sort` materializes its whole input.
pub struct RowStore {
    types: Vec<DataType>,
    cols: Vec<StoreCol>,
    rows: usize,
}

enum StoreCol {
    I16(Vec<i16>),
    I32(Vec<i32>),
    I64(Vec<i64>),
    F64(Vec<f64>),
    Str {
        bytes: Vec<u8>,
        views: Vec<(u32, u32)>,
    },
}

impl RowStore {
    /// An empty store with the given column types.
    pub fn new(types: Vec<DataType>) -> Self {
        let cols = types
            .iter()
            .map(|t| match t {
                DataType::I16 => StoreCol::I16(Vec::new()),
                DataType::I32 => StoreCol::I32(Vec::new()),
                DataType::I64 => StoreCol::I64(Vec::new()),
                DataType::F64 => StoreCol::F64(Vec::new()),
                DataType::Str => StoreCol::Str {
                    bytes: Vec::new(),
                    views: Vec::new(),
                },
            })
            .collect();
        RowStore {
            types,
            cols,
            rows: 0,
        }
    }

    /// Column types.
    pub fn types(&self) -> &[DataType] {
        &self.types
    }

    /// Rows stored.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bytes of live stored data (length-based, not capacity): scalar width
    /// × rows per numeric column, packed bytes + 8 bytes per view for `Str`.
    /// Reported by the byte-accounting facade against proven bounds.
    pub fn bytes(&self) -> u64 {
        self.cols
            .iter()
            .map(|c| match c {
                StoreCol::I16(v) => v.len() as u64 * 2,
                StoreCol::I32(v) => v.len() as u64 * 4,
                StoreCol::I64(v) => v.len() as u64 * 8,
                StoreCol::F64(v) => v.len() as u64 * 8,
                StoreCol::Str { bytes, views } => bytes.len() as u64 + views.len() as u64 * 8,
            })
            .sum()
    }

    /// Appends the live rows of `chunk`, taking columns `col_idx` in order.
    pub fn append(&mut self, chunk: &DataChunk, col_idx: &[usize]) {
        debug_assert_eq!(col_idx.len(), self.cols.len());
        let positions = chunk.live_positions();
        for (store, &ci) in self.cols.iter_mut().zip(col_idx) {
            let v = chunk.column(ci);
            match (store, v.as_ref()) {
                (StoreCol::I16(dst), Vector::I16(src)) => {
                    dst.extend(positions.iter().map(|&p| src[p]));
                }
                (StoreCol::I32(dst), Vector::I32(src)) => {
                    dst.extend(positions.iter().map(|&p| src[p]));
                }
                (StoreCol::I64(dst), Vector::I64(src)) => {
                    dst.extend(positions.iter().map(|&p| src[p]));
                }
                (StoreCol::F64(dst), Vector::F64(src)) => {
                    dst.extend(positions.iter().map(|&p| src[p]));
                }
                (StoreCol::Str { bytes, views }, Vector::Str(src)) => {
                    for &p in &positions {
                        let s = src.get(p);
                        let off = bytes.len() as u32;
                        bytes.extend_from_slice(s.as_bytes());
                        views.push((off, s.len() as u32));
                    }
                }
                _ => panic!("RowStore::append type mismatch"),
            }
        }
        self.rows += positions.len();
    }

    /// Freezes into full-length vectors (one per column).
    pub fn freeze(self) -> FrozenStore {
        let cols = self
            .cols
            .into_iter()
            .map(|c| match c {
                StoreCol::I16(v) => Vector::I16(v),
                StoreCol::I32(v) => Vector::I32(v),
                StoreCol::I64(v) => Vector::I64(v),
                StoreCol::F64(v) => Vector::F64(v),
                StoreCol::Str { bytes, views } => {
                    Vector::Str(StrVec::from_views(bytes.into(), views))
                }
            })
            .collect();
        FrozenStore {
            types: self.types,
            cols,
            rows: self.rows,
        }
    }
}

/// An immutable materialized column set.
pub struct FrozenStore {
    types: Vec<DataType>,
    cols: Vec<Vector>,
    rows: usize,
}

impl FrozenStore {
    /// Column types.
    pub fn types(&self) -> &[DataType] {
        &self.types
    }

    /// Rows stored.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column `i` as a full-length vector.
    pub fn col(&self, i: usize) -> &Vector {
        &self.cols[i]
    }

    /// Gathers `rows` of column `i` into a fresh vector (plain gather; the
    /// adaptive `map_fetch` path is used by joins, which fetch through
    /// primitive instances instead).
    pub fn gather(&self, i: usize, rows: &[u32]) -> Vector {
        match &self.cols[i] {
            Vector::I16(v) => Vector::I16(rows.iter().map(|&r| v[r as usize]).collect()),
            Vector::I32(v) => Vector::I32(rows.iter().map(|&r| v[r as usize]).collect()),
            Vector::I64(v) => Vector::I64(rows.iter().map(|&r| v[r as usize]).collect()),
            Vector::F64(v) => Vector::F64(rows.iter().map(|&r| v[r as usize]).collect()),
            Vector::Str(v) => {
                let mut out = v.writable_like(rows.len());
                for (j, &r) in rows.iter().enumerate() {
                    out.views_mut()[j] = v.views()[r as usize];
                }
                Vector::Str(out)
            }
        }
    }

    /// Emits the stored rows as dense chunks of at most `vector_size` rows.
    pub fn to_chunks(&self, vector_size: usize) -> Vec<DataChunk> {
        let mut out = Vec::new();
        let mut start = 0;
        while start < self.rows {
            let n = (self.rows - start).min(vector_size);
            let rows: Vec<u32> = (start as u32..start.saturating_add(n) as u32).collect();
            let cols = (0..self.cols.len())
                .map(|i| Arc::new(self.gather(i, &rows)))
                .collect();
            out.push(DataChunk::new(cols));
            start += n;
        }
        out
    }
}

/// Length-based data bytes of one chunk: scalar width × length per numeric
/// column; per-view string byte lengths plus 8 bytes per view for `Str`
/// (arena bytes actually referenced, not the shared arena's full size).
/// The exchange operators report this per received chunk against the
/// analyzer's chunk bound.
pub fn chunk_bytes(chunk: &DataChunk) -> u64 {
    chunk
        .columns()
        .iter()
        .map(|c| match c.as_ref() {
            Vector::I16(v) => v.len() as u64 * 2,
            Vector::I32(v) => v.len() as u64 * 4,
            Vector::I64(v) => v.len() as u64 * 8,
            Vector::F64(v) => v.len() as u64 * 8,
            Vector::Str(sv) => sv
                .views()
                .iter()
                .map(|&(_, len)| u64::from(len) + 8)
                .sum::<u64>(),
        })
        .sum()
}

/// Extracts a column's live values as `i64` (key normalization for joins
/// and group tables; all TPC-H join keys are integers).
pub(crate) fn normalize_keys_i64(v: &Vector, out: &mut Vec<i64>) {
    out.clear();
    match v {
        Vector::I16(s) => out.extend(s.iter().map(|&x| x as i64)),
        Vector::I32(s) => out.extend(s.iter().map(|&x| x as i64)),
        Vector::I64(s) => out.extend_from_slice(s),
        other => panic!(
            "join/group keys must be integers, got {}",
            other.data_type()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ma_vector::SelVec;

    fn chunk(vals: &[i64], strs: &[&str]) -> DataChunk {
        DataChunk::new(vec![
            Arc::new(Vector::I64(vals.to_vec())),
            Arc::new(Vector::Str(StrVec::from_strings(strs))),
        ])
    }

    #[test]
    fn row_store_appends_live_rows_only() {
        let mut rs = RowStore::new(vec![DataType::I64, DataType::Str]);
        let mut c = chunk(&[1, 2, 3, 4], &["a", "b", "c", "d"]);
        c.set_sel(Some(SelVec::from_positions(vec![1, 3])));
        rs.append(&c, &[0, 1]);
        let c2 = chunk(&[5], &["e"]);
        rs.append(&c2, &[0, 1]);
        assert_eq!(rs.rows(), 3);
        let f = rs.freeze();
        assert_eq!(f.col(0).as_i64(), &[2, 4, 5]);
        let sv = f.col(1).as_str_vec();
        assert_eq!(sv.get(0), "b");
        assert_eq!(sv.get(2), "e");
    }

    #[test]
    fn frozen_gather_and_chunks() {
        let mut rs = RowStore::new(vec![DataType::I64]);
        for i in 0..5 {
            let c = DataChunk::new(vec![Arc::new(Vector::I64(vec![i * 10]))]);
            rs.append(&c, &[0]);
        }
        let f = rs.freeze();
        assert_eq!(f.gather(0, &[4, 0]).as_i64(), &[40, 0]);
        let chunks = f.to_chunks(2);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].column(0).as_i64(), &[0, 10]);
        assert_eq!(chunks[2].column(0).as_i64(), &[40]);
        assert_eq!(total_rows(&chunks), 5);
    }

    #[test]
    fn normalize_keys() {
        let mut out = Vec::new();
        normalize_keys_i64(&Vector::I32(vec![1, -2]), &mut out);
        assert_eq!(out, vec![1, -2]);
        normalize_keys_i64(&Vector::I16(vec![7]), &mut out);
        assert_eq!(out, vec![7]);
        normalize_keys_i64(&Vector::I64(vec![5, 6]), &mut out);
        assert_eq!(out, vec![5, 6]);
    }

    #[test]
    #[should_panic(expected = "keys must be integers")]
    fn normalize_rejects_floats() {
        let mut out = Vec::new();
        normalize_keys_i64(&Vector::F64(vec![1.0]), &mut out);
    }
}
