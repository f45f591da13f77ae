//! Steady-state `HashAggregate` must not allocate per tuple: once every
//! group key has been seen, consuming another 1024-row chunk with a
//! two-column key costs a constant number of heap allocations, and with a
//! dense key table none at all. Keys used to be formatted into a fresh
//! `String` per live tuple (two allocations a row); a counting allocator
//! keeps that from coming back.
//!
//! Allocations are counted per thread, so nothing the test harness or
//! another test does is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use ma_executor::ops::{collect, Agg, DictRef, HashAggregate, KeyDomain};
use ma_executor::{BoxOp, ExecConfig, ExecError, Operator, QueryContext};
use ma_primitives::build_dictionary;
use ma_vector::{DataChunk, DataType, SelVec, StrVec, Vector};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a thread-local `Cell` with a const
// initializer and no destructor, so touching it neither allocates nor
// re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the slot is gone while the thread is torn down.
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's obligations are passed on as they came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ROWS: usize = 1024;
const CHUNKS: usize = 8;

/// Hands out prepared chunks, noting the allocation count at every call:
/// the difference between two notes is what the aggregate spent on the
/// chunk between them (popping a chunk allocates nothing).
struct Chunks {
    chunks: VecDeque<DataChunk>,
    types: Vec<DataType>,
    notes: Arc<Mutex<Vec<u64>>>,
}

impl Operator for Chunks {
    fn next(&mut self) -> Result<Option<DataChunk>, ExecError> {
        self.notes
            .lock()
            .expect("no thread panicked holding the notes")
            .push(ALLOCATIONS.with(Cell::get));
        Ok(self.chunks.pop_front())
    }

    fn out_types(&self) -> &[DataType] {
        &self.types
    }
}

/// A dictionary: its arena and sorted views.
type Dict = (Arc<[u8]>, Arc<Vec<(u32, u32)>>);

/// 1024 rows keyed by a string and an `i32`, 21 distinct keys, the same in
/// every chunk. With `dict`, the strings carry the codes of that
/// dictionary.
fn chunk(sparse: bool, dict: Option<&Dict>) -> DataChunk {
    let flags: Vec<&str> = (0..ROWS).map(|i| ["A", "N", "R"][i % 3]).collect();
    let strings = match dict {
        Some((arena, dict_views)) => {
            let codes: Vec<i32> = (0..ROWS).map(|i| (i % 3) as i32).collect();
            let views = codes.iter().map(|&c| dict_views[c as usize]).collect();
            StrVec::from_dict(Arc::clone(arena), Arc::clone(dict_views), views, codes)
        }
        None => StrVec::from_strings(&flags),
    };
    let mut c = DataChunk::new(vec![
        Arc::new(Vector::Str(strings)),
        Arc::new(Vector::I32((0..ROWS).map(|i| (i % 7) as i32).collect())),
        Arc::new(Vector::I64((0..ROWS).map(|i| i as i64).collect())),
    ]);
    if sparse {
        c.set_sel(Some(SelVec::from_positions(
            (0..ROWS as u32).filter(|i| i % 5 != 0).collect(),
        )));
    }
    c
}

/// The allocations each steady-state chunk cost: the aggregate built by
/// `build` over chunks from `make`.
fn steady_state_spend(
    make: impl Fn() -> DataChunk,
    build: impl Fn(BoxOp, &QueryContext) -> HashAggregate,
) -> Vec<u64> {
    let dict = Arc::new(build_dictionary());
    let notes = Arc::new(Mutex::new(Vec::with_capacity(CHUNKS + 1)));
    let source: BoxOp = Box::new(Chunks {
        chunks: (0..CHUNKS).map(|_| make()).collect(),
        types: vec![DataType::Str, DataType::I32, DataType::I64],
        notes: Arc::clone(&notes),
    });
    let ctx = QueryContext::new(dict, ExecConfig::fixed_default());
    let mut agg = build(source, &ctx);
    let out = collect(&mut agg).unwrap();
    assert_eq!(out.iter().map(DataChunk::live_count).sum::<usize>(), 21);

    let notes = notes.lock().unwrap();
    assert_eq!(notes.len(), CHUNKS + 1);
    // The first chunk opens the groups and sizes the scratch; from the
    // third note on, each step is one steady-state chunk.
    notes[2..].windows(2).map(|w| w[1] - w[0]).collect()
}

#[test]
fn steady_state_chunks_allocate_a_constant_number_of_times() {
    for sparse in [false, true] {
        let spent = steady_state_spend(
            || chunk(sparse, None),
            |source, ctx| {
                HashAggregate::new(
                    source,
                    vec![0, 1],
                    vec![Agg::count(), Agg::sum_i64(2)],
                    &ctx.scope("t"),
                )
                .unwrap()
            },
        );
        for spent in spent {
            assert!(
                spent <= 8,
                "a steady-state chunk of {ROWS} rows allocated {spent} times (sparse: {sparse})"
            );
        }
    }
}

#[test]
fn dense_steady_state_chunks_allocate_nothing() {
    let strings = StrVec::from_strings(&["A", "N", "R"]);
    let dict: Dict = (
        Arc::clone(strings.arena()),
        Arc::new(strings.views().to_vec()),
    );
    for sparse in [false, true] {
        let spent = steady_state_spend(
            || chunk(sparse, Some(&dict)),
            |source, ctx| {
                let domains = vec![
                    KeyDomain::Dict(DictRef {
                        arena: Arc::clone(&dict.0),
                        views: Arc::clone(&dict.1),
                    }),
                    KeyDomain::Int { lo: 0, hi: 6 },
                ];
                HashAggregate::new_dense(
                    source,
                    vec![0, 1],
                    domains,
                    vec![Agg::count(), Agg::sum_i64(2)],
                    &ctx.scope("t"),
                )
                .unwrap()
            },
        );
        assert_eq!(spent, vec![0; CHUNKS - 2], "sparse: {sparse}");
    }
}
