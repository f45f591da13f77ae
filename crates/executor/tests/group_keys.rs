//! `HashAggregate` group keys against a `BTreeMap` oracle: every mix of
//! 1–4 key columns over `I16`/`I32`/`I64`/`Str`, under dense, sparse and
//! empty selection vectors, with each insertcheck flavor and vector sizes
//! 1, 7 and 1024. Checked per case: the group count, each group's count
//! and sum, and that groups come out in first-seen order.
//!
//! The value pools are small, so groups repeat, and hold the values a key
//! encoding gets wrong first: empty strings, separators and NUL inside
//! strings, `("", "ab")` next to `("a", "b")`, negative and extreme
//! integers, and a string longer than a 16-bit length can describe.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::Arc;

use ma_core::SplitMix64;
use ma_executor::ops::{collect, Agg, HashAggregate};
use ma_executor::{BoxOp, ExecConfig, ExecError, Operator, QueryContext};
use ma_primitives::build_dictionary;
use ma_vector::{DataChunk, DataType, SelVec, StrVec, Vector};

const KEY_TYPES: [DataType; 4] = [DataType::I16, DataType::I32, DataType::I64, DataType::Str];
const FLAVORS: [&str; 3] = ["gcc", "icc", "clang"];
const VECTOR_SIZES: [usize; 3] = [1, 7, 1024];

const I16_POOL: [i16; 6] = [-3, -1, 0, 1, i16::MIN, i16::MAX];
const I32_POOL: [i32; 6] = [-1, 0, 1, 0x3b, i32::MIN, i32::MAX];
const I64_POOL: [i64; 6] = [-1, 0, 1, 1 << 40, i64::MIN, i64::MAX];
const SHORT_STRS: [&str; 10] = ["", "a", "b", "ab", ";", "a;", "\0", "a\0b", "0001", "ß"];
/// Longer than `u16::MAX`, and its twin differs only in the last byte.
const LONG_LEN: usize = 66_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sel {
    Dense,
    /// A random subset of each chunk, now and then none of it.
    Sparse,
    /// Every other chunk arrives with an empty selection vector.
    EmptyInterleaved,
}

/// A key as the oracle holds it: one `i64` per key column, a string column
/// contributing its pool index (pool strings are pairwise distinct).
type OracleKey = Vec<i64>;

/// All pool strings in one arena, as a scan's string column shares one.
struct StrPool {
    arena: Arc<[u8]>,
    views: Vec<(u32, u32)>,
}

impl StrPool {
    fn new() -> Self {
        let mut strings: Vec<String> = SHORT_STRS.iter().map(|s| s.to_string()).collect();
        strings.push("x".repeat(LONG_LEN));
        strings.push("x".repeat(LONG_LEN - 1) + "y");
        let v = StrVec::from_strings(&strings);
        StrPool {
            arena: Arc::clone(v.arena()),
            views: v.views().to_vec(),
        }
    }

    /// A pool index: mostly short strings, the long ones about once in 512.
    fn pick(&self, rng: &mut SplitMix64) -> usize {
        if rng.gen_range(512) == 0 {
            SHORT_STRS.len() + rng.gen_range(2)
        } else {
            rng.gen_range(SHORT_STRS.len())
        }
    }

    fn bytes(&self, i: usize) -> &[u8] {
        let (off, len) = self.views[i];
        &self.arena[off as usize..][..len as usize]
    }
}

/// Hands out prepared chunks.
struct Chunks {
    chunks: VecDeque<DataChunk>,
    types: Vec<DataType>,
}

impl Operator for Chunks {
    fn next(&mut self) -> Result<Option<DataChunk>, ExecError> {
        Ok(self.chunks.pop_front())
    }

    fn out_types(&self) -> &[DataType] {
        &self.types
    }
}

/// One key column of `n` random pool values, with the values as the oracle
/// holds them.
fn key_column(ty: DataType, n: usize, pool: &StrPool, rng: &mut SplitMix64) -> (Vector, Vec<i64>) {
    match ty {
        DataType::I16 => {
            let v: Vec<i16> = (0..n).map(|_| I16_POOL[rng.gen_range(6)]).collect();
            let k = v.iter().map(|&x| x.into()).collect();
            (Vector::I16(v), k)
        }
        DataType::I32 => {
            let v: Vec<i32> = (0..n).map(|_| I32_POOL[rng.gen_range(6)]).collect();
            let k = v.iter().map(|&x| x.into()).collect();
            (Vector::I32(v), k)
        }
        DataType::I64 => {
            let v: Vec<i64> = (0..n).map(|_| I64_POOL[rng.gen_range(6)]).collect();
            (Vector::I64(v.clone()), v)
        }
        DataType::Str => {
            let picks: Vec<usize> = (0..n).map(|_| pool.pick(rng)).collect();
            let views = picks.iter().map(|&p| pool.views[p]).collect();
            let k = picks.iter().map(|&p| p as i64).collect();
            (
                Vector::Str(StrVec::from_views(Arc::clone(&pool.arena), views)),
                k,
            )
        }
        DataType::F64 => unreachable!("not a key type"),
    }
}

/// Whether output row `p` of the aggregate carries the key `want`.
fn output_key_is(chunk: &DataChunk, p: usize, want: &OracleKey, pool: &StrPool) -> bool {
    want.iter()
        .enumerate()
        .all(|(c, &w)| match chunk.column(c).as_ref() {
            Vector::I16(v) => i64::from(v[p]) == w,
            Vector::I32(v) => i64::from(v[p]) == w,
            Vector::I64(v) => v[p] == w,
            Vector::Str(v) => v.get_bytes(p) == pool.bytes(w as usize),
            Vector::F64(_) => unreachable!("not a key type"),
        })
}

/// Runs one case end to end and compares it with the oracle.
fn check_case(
    types: &[DataType],
    sel: Sel,
    flavor: &'static str,
    vsize: usize,
    pool: &StrPool,
    ctx_dict: &Arc<ma_core::PrimitiveDictionary>,
    seed: u64,
) {
    let mut rng = SplitMix64::new(seed);
    // At least one full vector and a short tail.
    let rows = (vsize + 3).max(40);
    let nkeys = types.len();
    let case = format!("keys {types:?}, {sel:?}, {flavor}, vector size {vsize}, seed {seed}");

    let mut chunks = VecDeque::new();
    // key -> (first-seen rank, count, sum)
    let mut oracle: BTreeMap<OracleKey, (usize, i64, i64)> = BTreeMap::new();
    let mut start = 0;
    let mut chunk_no = 0;
    while start < rows {
        let n = vsize.min(rows - start);
        let (mut cols, keys): (Vec<Arc<Vector>>, Vec<Vec<i64>>) = types
            .iter()
            .map(|&ty| {
                let (v, k) = key_column(ty, n, pool, &mut rng);
                (Arc::new(v), k)
            })
            .unzip();
        let vals: Vec<i64> = (0..n).map(|_| rng.gen_range(1000) as i64 - 500).collect();
        cols.push(Arc::new(Vector::I64(vals.clone())));
        let mut chunk = DataChunk::new(cols);

        let live: Vec<u32> = match sel {
            Sel::Dense => (0..n as u32).collect(),
            Sel::Sparse => (0..n as u32).filter(|_| rng.gen_range(2) == 0).collect(),
            Sel::EmptyInterleaved if chunk_no % 2 == 1 => Vec::new(),
            Sel::EmptyInterleaved => (0..n as u32).collect(),
        };
        for &i in &live {
            let key: OracleKey = keys.iter().map(|k| k[i as usize]).collect();
            let rank = oracle.len();
            let e = oracle.entry(key).or_insert((rank, 0, 0));
            e.1 += 1;
            e.2 += vals[i as usize];
        }
        if sel != Sel::Dense {
            chunk.set_sel(Some(SelVec::from_positions(live)));
        }
        chunks.push_back(chunk);
        start += n;
        chunk_no += 1;
    }

    let mut in_types = types.to_vec();
    in_types.push(DataType::I64);
    let source: BoxOp = Box::new(Chunks {
        chunks,
        types: in_types,
    });
    let ctx = QueryContext::new(
        Arc::clone(ctx_dict),
        ExecConfig {
            vector_size: vsize,
            ..ExecConfig::fixed(flavor)
        },
    );
    let mut agg = HashAggregate::new(
        source,
        (0..nkeys).collect(),
        vec![Agg::count(), Agg::sum_i64(nkeys)],
        &ctx,
        "t",
    )
    .unwrap_or_else(|e| panic!("{case}: {e}"));
    let out = collect(&mut agg).unwrap_or_else(|e| panic!("{case}: {e}"));

    let mut expected: Vec<(&OracleKey, &(usize, i64, i64))> = oracle.iter().collect();
    expected.sort_by_key(|(_, &(rank, _, _))| rank);
    let got: Vec<(&DataChunk, usize)> = out
        .iter()
        .flat_map(|chunk| chunk.live_positions().into_iter().map(move |p| (chunk, p)))
        .collect();
    assert_eq!(got.len(), expected.len(), "{case}: group count");
    for ((chunk, p), (key, &(rank, count, sum))) in got.into_iter().zip(expected) {
        assert!(
            output_key_is(chunk, p, key, pool),
            "{case}: group {rank} out of first-seen order"
        );
        let sums = (
            chunk.column(nkeys).as_i64()[p],
            chunk.column(nkeys + 1).as_i64()[p],
        );
        assert_eq!(sums, (count, sum), "{case}: group {key:?}");
    }
}

/// Every sequence of `len` key types.
fn type_mixes(len: usize) -> Vec<Vec<DataType>> {
    (0..4usize.pow(len as u32))
        .map(|mut code| {
            (0..len)
                .map(|_| {
                    let ty = KEY_TYPES[code % 4];
                    code /= 4;
                    ty
                })
                .collect()
        })
        .collect()
}

#[test]
fn every_key_mix_matches_the_oracle() {
    let pool = StrPool::new();
    let dict = Arc::new(build_dictionary());
    let mut seed = 0;
    for len in 1..=4 {
        for (m, types) in type_mixes(len).into_iter().enumerate() {
            for (s, sel) in [Sel::Dense, Sel::Sparse, Sel::EmptyInterleaved]
                .into_iter()
                .enumerate()
            {
                for (f, flavor) in FLAVORS.into_iter().enumerate() {
                    for vsize in VECTOR_SIZES {
                        // The large vectors cost the most: there each mix
                        // meets every selection shape once, the flavor
                        // rotating with the mix.
                        if vsize == 1024 && f != (m + s) % 3 {
                            continue;
                        }
                        seed += 1;
                        check_case(&types, sel, flavor, vsize, &pool, &dict, seed);
                    }
                }
            }
        }
    }
}

/// Two chunks of the same rows make one set of groups however they are
/// selected: a row that is dead in a chunk must not leave a key behind.
#[test]
fn dead_rows_open_no_groups() {
    let dict = Arc::new(build_dictionary());
    let col = |v: Vec<i32>| Arc::new(Vector::I32(v));
    let mut chunk = DataChunk::new(vec![
        col(vec![1, 2, 3, 4]),
        col(vec![5, 6, 7, 8]),
        Arc::new(Vector::I64(vec![10, 20, 30, 40])),
    ]);
    chunk.set_sel(Some(SelVec::from_positions(vec![1, 3])));
    let source: BoxOp = Box::new(Chunks {
        chunks: VecDeque::from([chunk]),
        types: vec![DataType::I32, DataType::I32, DataType::I64],
    });
    let ctx = QueryContext::new(dict, ExecConfig::fixed_default());
    let mut agg = HashAggregate::new(source, vec![0, 1], vec![Agg::sum_i64(2)], &ctx, "t").unwrap();
    let out = collect(&mut agg).unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].column(0).as_i32(), &[2, 4]);
    assert_eq!(out[0].column(1).as_i32(), &[6, 8]);
    assert_eq!(out[0].column(2).as_i64(), &[20, 40]);
}

/// The raw-operator API used to reach a panic inside a running worker for
/// an `f64` key; the plan builder already refused it.
#[test]
fn f64_group_key_is_a_plan_error() {
    let ctx = QueryContext::new(Arc::new(build_dictionary()), ExecConfig::fixed_default());
    for group_cols in [vec![0], vec![1, 0]] {
        let source: BoxOp = Box::new(Chunks {
            chunks: VecDeque::new(),
            types: vec![DataType::F64, DataType::I32],
        });
        match HashAggregate::new(source, group_cols, vec![Agg::count()], &ctx, "t") {
            Err(ExecError::Plan(m)) => assert!(m.contains("f64"), "{m}"),
            Err(e) => panic!("expected a plan error, got {e}"),
            Ok(_) => panic!("an f64 group key was accepted"),
        }
    }
}
