//! Sort, top-N and limit operators (result finalization; plain code — the
//! paper's flavor sets do not cover sorting).

use std::cmp::Ordering;

use ma_vector::{DataChunk, DataType, Vector};

use crate::expr::SortKey;
use crate::ops::{BoxOp, FrozenStore, Operator, RowStore};
use crate::ExecError;

/// Full sort (optionally truncated to `limit` rows — a top-N).
pub struct Sort {
    child: Option<BoxOp>,
    keys: Vec<SortKey>,
    limit: Option<usize>,
    types: Vec<DataType>,
    vector_size: usize,
    out: Option<std::vec::IntoIter<DataChunk>>,
    tracker: Option<crate::adaptive::MemTracker>,
}

impl Sort {
    /// Builds a sort over `keys` (leftmost is primary).
    pub fn new(
        child: BoxOp,
        keys: Vec<SortKey>,
        limit: Option<usize>,
        vector_size: usize,
    ) -> Result<Self, ExecError> {
        let types = child.out_types().to_vec();
        for k in &keys {
            if k.col >= types.len() {
                return Err(ExecError::Plan(format!("sort key {} out of range", k.col)));
            }
        }
        Ok(Sort {
            child: Some(child),
            keys,
            limit,
            types,
            vector_size,
            out: None,
            tracker: None,
        })
    }

    /// Attaches a byte-accounting tracker the sort reports its buffered
    /// bytes to.
    pub fn with_tracker(mut self, tracker: crate::adaptive::MemTracker) -> Self {
        self.tracker = Some(tracker);
        self
    }

    fn run(&mut self) -> Result<Vec<DataChunk>, ExecError> {
        let mut child = self.child.take().expect("run once");
        let mut store = RowStore::new(self.types.clone());
        let all: Vec<usize> = (0..self.types.len()).collect();
        while let Some(chunk) = child.next()? {
            store.append(&chunk, &all);
        }
        let store_bytes = store.bytes();
        let frozen = store.freeze();
        let mut idx: Vec<u32> = (0..frozen.rows() as u32).collect();
        let keys = &self.keys;
        idx.sort_by(|&a, &b| {
            for k in keys {
                let ord = compare_at(frozen.col(k.col), a as usize, b as usize);
                let ord = if k.desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
        if let Some(l) = self.limit {
            idx.truncate(l);
        }
        // Emit in sorted order, chunked.
        let mut chunks = Vec::new();
        let mut start = 0;
        while start < idx.len() {
            let n = (idx.len() - start).min(self.vector_size);
            let rows = &idx[start..][..n];
            let cols = (0..self.types.len())
                .map(|i| std::sync::Arc::new(frozen.gather(i, rows)))
                .collect();
            chunks.push(DataChunk::new(cols));
            start += n;
        }
        if let Some(t) = &self.tracker {
            // High-water point: the buffered input, the permutation index,
            // and the re-gathered output chunks all live at once.
            let out_bytes: u64 = chunks.iter().map(crate::ops::chunk_bytes).sum();
            t.record(
                store_bytes
                    .saturating_add((idx.len() * 4) as u64)
                    .saturating_add(out_bytes),
            );
        }
        Ok(chunks)
    }
}

fn compare_at(v: &Vector, a: usize, b: usize) -> Ordering {
    match v {
        Vector::I16(x) => x[a].cmp(&x[b]),
        Vector::I32(x) => x[a].cmp(&x[b]),
        Vector::I64(x) => x[a].cmp(&x[b]),
        Vector::F64(x) => x[a].partial_cmp(&x[b]).unwrap_or(Ordering::Equal),
        Vector::Str(x) => x.get(a).cmp(x.get(b)),
    }
}

impl Operator for Sort {
    fn next(&mut self) -> Result<Option<DataChunk>, ExecError> {
        if self.out.is_none() {
            let chunks = self.run()?;
            self.out = Some(chunks.into_iter());
        }
        Ok(self.out.as_mut().unwrap().next())
    }

    fn out_types(&self) -> &[DataType] {
        &self.types
    }
}

/// Emits at most `n` live rows from the child, preserving order.
pub struct Limit {
    child: BoxOp,
    remaining: usize,
    types: Vec<DataType>,
}

impl Limit {
    /// Builds a limit of `n` rows.
    pub fn new(child: BoxOp, n: usize) -> Self {
        let types = child.out_types().to_vec();
        Limit {
            child,
            remaining: n,
            types,
        }
    }
}

impl Operator for Limit {
    fn next(&mut self) -> Result<Option<DataChunk>, ExecError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let Some(chunk) = self.child.next()? else {
            return Ok(None);
        };
        let live = chunk.live_count();
        if live <= self.remaining {
            self.remaining -= live;
            return Ok(Some(chunk));
        }
        // Keep only the first `remaining` live positions.
        let keep: Vec<u32> = chunk
            .live_positions()
            .into_iter()
            .take(self.remaining)
            .map(|p| p as u32)
            .collect();
        self.remaining = 0;
        Ok(Some(
            chunk.with_sel(Some(ma_vector::SelVec::from_positions(keep))),
        ))
    }

    fn out_types(&self) -> &[DataType] {
        &self.types
    }
}

/// Convenience: fully materializes an operator's output into one
/// [`FrozenStore`] (used by query runners to produce result tables).
pub fn materialize(op: &mut dyn Operator) -> Result<FrozenStore, ExecError> {
    let types = op.out_types().to_vec();
    let all: Vec<usize> = (0..types.len()).collect();
    let mut store = RowStore::new(types);
    while let Some(chunk) = op.next()? {
        store.append(&chunk, &all);
    }
    Ok(store.freeze())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{collect, total_rows, Scan};
    use ma_vector::{ColumnBuilder, Table};
    use std::sync::Arc;

    fn scan() -> BoxOp {
        let vals = [5i64, 1, 9, 1, 7, 3];
        let names = ["e", "a", "f", "b", "d", "c"];
        let mut v = ColumnBuilder::with_capacity(DataType::I64, 6);
        let mut s = ColumnBuilder::with_capacity(DataType::Str, 6);
        for i in 0..6 {
            v.push_i64(vals[i]);
            s.push_str(names[i]);
        }
        let t = Arc::new(
            Table::new(
                "t",
                vec![("v".into(), v.finish()), ("s".into(), s.finish())],
            )
            .unwrap(),
        );
        Box::new(Scan::new(t, &["v", "s"], 4).unwrap())
    }

    #[test]
    fn sorts_ascending_with_tiebreak() {
        let mut sort =
            Sort::new(scan(), vec![SortKey::asc(0), SortKey::asc(1)], None, 1024).unwrap();
        let chunks = collect(&mut sort).unwrap();
        assert_eq!(total_rows(&chunks), 6);
        let ch = &chunks[0];
        assert_eq!(ch.column(0).as_i64(), &[1, 1, 3, 5, 7, 9]);
        // ties on v=1 broken by s: "a" before "b"
        assert_eq!(ch.column(1).as_str_vec().get(0), "a");
        assert_eq!(ch.column(1).as_str_vec().get(1), "b");
    }

    #[test]
    fn sorts_descending_with_limit() {
        let mut sort = Sort::new(scan(), vec![SortKey::desc(0)], Some(2), 1024).unwrap();
        let chunks = collect(&mut sort).unwrap();
        assert_eq!(total_rows(&chunks), 2);
        assert_eq!(chunks[0].column(0).as_i64(), &[9, 7]);
    }

    #[test]
    fn string_sort() {
        let mut sort = Sort::new(scan(), vec![SortKey::asc(1)], None, 1024).unwrap();
        let chunks = collect(&mut sort).unwrap();
        let s = chunks[0].column(1).as_str_vec();
        let got: Vec<&str> = s.iter().collect();
        assert_eq!(got, vec!["a", "b", "c", "d", "e", "f"]);
    }

    #[test]
    fn limit_stops_midstream() {
        let mut lim = Limit::new(scan(), 3);
        let chunks = collect(&mut lim).unwrap();
        assert_eq!(total_rows(&chunks), 3);
    }

    #[test]
    fn materialize_collects_everything() {
        let mut s = scan();
        let f = materialize(s.as_mut()).unwrap();
        assert_eq!(f.rows(), 6);
        assert_eq!(f.col(0).as_i64()[2], 9);
    }

    #[test]
    fn bad_sort_key_rejected() {
        assert!(Sort::new(scan(), vec![SortKey::asc(5)], None, 1024).is_err());
    }
}
