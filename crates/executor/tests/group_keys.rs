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
//!
//! The dense key table (`HashAggregate::new_dense`) is held to the hash
//! path: the same groups, values and output order on random keys inside
//! their domains, at the domain edges, and through planned queries at 1, 2
//! and 4 workers; its two typed errors; and the planner's 8× rule at its
//! edges.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

use ma_core::SplitMix64;
use ma_executor::ops::{collect, Agg, DictRef, HashAggregate, JoinKind, KeyDomain};
use ma_executor::plan::{count, sum_i64, NamedPred};
use ma_executor::{
    lower, plan_physical, BoxOp, CmpKind, ExecConfig, ExecError, LogicalPlan, Operator,
    PlanBuilder, QueryContext, Value,
};
use ma_primitives::build_dictionary;
use ma_vector::{encode_table, ColumnBuilder, DataChunk, DataType, SelVec, StrVec, Table, Vector};

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
        &ctx.scope("t"),
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
    let mut agg =
        HashAggregate::new(source, vec![0, 1], vec![Agg::sum_i64(2)], &ctx.scope("t")).unwrap();
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
        match HashAggregate::new(source, group_cols, vec![Agg::count()], &ctx.scope("t")) {
            Err(ExecError::Plan(m)) => assert!(m.contains("f64"), "{m}"),
            Err(e) => panic!("expected a plan error, got {e}"),
            Ok(_) => panic!("an f64 group key was accepted"),
        }
    }
}

// --- dense key tables -------------------------------------------------------

/// One dense group key as the tests generate it.
#[derive(Debug, Clone, Copy)]
enum DenseKey {
    /// An integer column of this type, values in `[lo, lo + width)`.
    Int(DataType, i64, u64),
    /// A dictionary-coded string column over this many entries.
    Dict(usize),
}

/// A dictionary: its arena and sorted views.
type Dict = (Arc<[u8]>, Arc<Vec<(u32, u32)>>);

/// A sorted dictionary of `n` distinct strings (`"d00"`, `"d01"`, ...).
fn dictionary(n: usize) -> Dict {
    let v = StrVec::from_strings(&(0..n).map(|i| format!("d{i:02}")).collect::<Vec<_>>());
    (Arc::clone(v.arena()), Arc::new(v.views().to_vec()))
}

/// A code-carrying string vector over `dict`.
fn dict_vector(dict: &Dict, codes: Vec<i32>) -> Vector {
    let views = codes.iter().map(|&c| dict.1[c as usize]).collect();
    Vector::Str(StrVec::from_dict(
        Arc::clone(&dict.0),
        Arc::clone(&dict.1),
        views,
        codes,
    ))
}

/// An integer vector of type `ty` holding `values`.
fn int_vector(ty: DataType, values: impl Iterator<Item = i64>) -> Vector {
    match ty {
        DataType::I16 => Vector::I16(values.map(|v| i16::try_from(v).unwrap()).collect()),
        DataType::I32 => Vector::I32(values.map(|v| i32::try_from(v).unwrap()).collect()),
        _ => Vector::I64(values.collect()),
    }
}

/// Each key's domain and, for dictionary keys, its dictionary.
fn domains(keys: &[DenseKey]) -> (Vec<KeyDomain>, Vec<Option<Dict>>) {
    keys.iter()
        .map(|k| match *k {
            DenseKey::Int(_, lo, width) => (
                KeyDomain::Int {
                    lo,
                    hi: lo + width as i64 - 1,
                },
                None,
            ),
            DenseKey::Dict(n) => {
                let d = dictionary(n);
                (
                    KeyDomain::Dict(DictRef {
                        arena: Arc::clone(&d.0),
                        views: Arc::clone(&d.1),
                    }),
                    Some(d),
                )
            }
        })
        .unzip()
}

fn key_type(k: &DenseKey) -> DataType {
    match *k {
        DenseKey::Int(ty, ..) => ty,
        DenseKey::Dict(_) => DataType::Str,
    }
}

/// Every output row as `(keys, count, sum)`, integer keys widened and
/// string keys as bytes, in output order.
fn rows_of(out: &[DataChunk], nkeys: usize) -> Vec<(Vec<Vec<u8>>, i64, i64)> {
    let mut rows = Vec::new();
    for chunk in out {
        for p in chunk.live_positions() {
            let keys = (0..nkeys)
                .map(|c| match chunk.column(c).as_ref() {
                    Vector::I16(v) => i64::from(v[p]).to_le_bytes().to_vec(),
                    Vector::I32(v) => i64::from(v[p]).to_le_bytes().to_vec(),
                    Vector::I64(v) => v[p].to_le_bytes().to_vec(),
                    Vector::Str(v) => v.get_bytes(p).to_vec(),
                    Vector::F64(_) => unreachable!("not a key type"),
                })
                .collect();
            rows.push((
                keys,
                chunk.column(nkeys).as_i64()[p],
                chunk.column(nkeys + 1).as_i64()[p],
            ));
        }
    }
    rows
}

/// Runs `chunks` (key columns, then an `i64` value column) through the hash
/// and the dense table and returns both outputs.
fn both_paths(
    chunks: &[DataChunk],
    types: &[DataType],
    domains: &[KeyDomain],
    vsize: usize,
) -> (
    Result<Vec<DataChunk>, ExecError>,
    Result<Vec<DataChunk>, ExecError>,
) {
    let nkeys = domains.len();
    let ctx = QueryContext::new(
        Arc::new(build_dictionary()),
        ExecConfig {
            vector_size: vsize,
            ..ExecConfig::fixed_default()
        },
    );
    let source = || -> BoxOp {
        Box::new(Chunks {
            chunks: chunks.iter().cloned().collect(),
            types: types.to_vec(),
        })
    };
    let aggs = || vec![Agg::count(), Agg::sum_i64(nkeys)];
    let keys: Vec<usize> = (0..nkeys).collect();
    let mut hash = HashAggregate::new(source(), keys.clone(), aggs(), &ctx.scope("h")).unwrap();
    let mut dense =
        HashAggregate::new_dense(source(), keys, domains.to_vec(), aggs(), &ctx.scope("d"))
            .unwrap();
    (collect(&mut hash), collect(&mut dense))
}

/// Random chunks of `keys` inside their domains, under `sel`.
fn dense_chunks(
    keys: &[DenseKey],
    dicts: &[Option<Dict>],
    sel: Sel,
    vsize: usize,
    rng: &mut SplitMix64,
) -> Vec<DataChunk> {
    let rows = (3 * vsize + 5).min(4000);
    let mut chunks = Vec::new();
    let mut start = 0;
    while start < rows {
        let n = vsize.min(rows - start);
        let mut cols: Vec<Arc<Vector>> = keys
            .iter()
            .zip(dicts)
            .map(|(k, d)| {
                Arc::new(match (*k, d) {
                    (DenseKey::Int(ty, lo, w), _) => {
                        int_vector(ty, (0..n).map(|_| lo + rng.gen_range(w as usize) as i64))
                    }
                    (DenseKey::Dict(e), Some(d)) => {
                        dict_vector(d, (0..n).map(|_| rng.gen_range(e) as i32).collect())
                    }
                    (DenseKey::Dict(_), None) => unreachable!("dictionary keys carry one"),
                })
            })
            .collect();
        cols.push(Arc::new(Vector::I64(
            (0..n).map(|_| rng.gen_range(1000) as i64 - 500).collect(),
        )));
        let mut chunk = DataChunk::new(cols);
        if sel == Sel::Sparse {
            let live = (0..n as u32).filter(|_| rng.gen_range(3) == 0).collect();
            chunk.set_sel(Some(SelVec::from_positions(live)));
        }
        chunks.push(chunk);
        start += n;
    }
    chunks
}

#[test]
fn dense_keys_match_the_hash_path() {
    let configs: [&[DenseKey]; 8] = [
        &[DenseKey::Int(DataType::I32, 1, 1000)],
        &[DenseKey::Int(DataType::I64, -(1 << 40), 50)],
        &[DenseKey::Int(DataType::I16, -3, 7)],
        &[DenseKey::Dict(3)],
        &[DenseKey::Dict(3), DenseKey::Dict(2)],
        &[DenseKey::Int(DataType::I32, 0, 100), DenseKey::Dict(5)],
        &[
            DenseKey::Int(DataType::I64, -9, 4),
            DenseKey::Int(DataType::I16, 100, 3),
        ],
        &[
            DenseKey::Dict(4),
            DenseKey::Int(DataType::I32, -50, 10),
            DenseKey::Int(DataType::I64, 7, 3),
        ],
    ];
    let mut seed = 100;
    for keys in configs {
        let (doms, dicts) = domains(keys);
        let mut types: Vec<DataType> = keys.iter().map(key_type).collect();
        types.push(DataType::I64);
        for sel in [Sel::Dense, Sel::Sparse] {
            for vsize in [7, 1024] {
                seed += 1;
                let mut rng = SplitMix64::new(seed);
                let chunks = dense_chunks(keys, &dicts, sel, vsize, &mut rng);
                let (hash, dense) = both_paths(&chunks, &types, &doms, vsize);
                let case = format!("{keys:?}, {sel:?}, vector size {vsize}");
                let (hash, dense) = (hash.unwrap(), dense.unwrap());
                assert!(!hash.is_empty(), "{case}: no groups");
                assert_eq!(
                    rows_of(&dense, keys.len()),
                    rows_of(&hash, keys.len()),
                    "{case}"
                );
            }
        }
    }
}

/// The interval's own ends, a one-value interval and a negative `lo`.
#[test]
fn dense_keys_cover_the_domain_edges() {
    for (lo, hi) in [
        (-7i64, 5i64),
        (42, 42),
        (i64::MIN, i64::MIN + 3),
        (i64::MAX - 2, i64::MAX),
    ] {
        let keys: Vec<i64> = vec![hi, lo, hi, lo, lo];
        let chunk = DataChunk::new(vec![
            Arc::new(Vector::I64(keys.clone())),
            Arc::new(Vector::I64(vec![1, 2, 3, 4, 5])),
        ]);
        let doms = [KeyDomain::Int { lo, hi }];
        let types = [DataType::I64, DataType::I64];
        let (hash, dense) = both_paths(&[chunk], &types, &doms, 1024);
        let dense = dense.unwrap_or_else(|e| panic!("[{lo}, {hi}]: {e}"));
        assert_eq!(rows_of(&dense, 1), rows_of(&hash.unwrap(), 1));
        let first = dense[0].column(0).as_i64();
        if lo == hi {
            assert_eq!(first, &[lo]);
        } else {
            // First-appearance order: `hi` opened the first group.
            assert_eq!(first, &[hi, lo]);
            assert_eq!(dense[0].column(1).as_i64(), &[2, 3]);
        }
    }
}

#[test]
fn a_key_outside_its_domain_is_a_typed_error() {
    let types = [DataType::I32, DataType::I64];
    let doms = [KeyDomain::Int { lo: 0, hi: 5 }];
    for bad in [-1, 6, i32::MIN, i32::MAX] {
        let chunk = DataChunk::new(vec![
            Arc::new(Vector::I32(vec![0, bad, 5])),
            Arc::new(Vector::I64(vec![1, 2, 3])),
        ]);
        match both_paths(std::slice::from_ref(&chunk), &types, &doms, 1024).1 {
            Err(ExecError::Plan(m)) => assert!(m.contains("outside [0, 5]"), "{m}"),
            other => panic!("key {bad} was accepted: {:?}", other.map(|c| c.len())),
        }
        // A dead row's key is never read.
        let mut dead = chunk;
        dead.set_sel(Some(SelVec::from_positions(vec![0, 2])));
        let out = both_paths(&[dead], &types, &doms, 1024).1.unwrap();
        assert_eq!(out[0].column(0).as_i32(), &[0, 5]);
    }
}

#[test]
fn a_string_chunk_without_the_planned_codes_is_a_typed_error() {
    let types = [DataType::Str, DataType::I64];
    let (doms, dicts) = domains(&[DenseKey::Dict(3)]);
    let planned = dicts[0].clone().unwrap();
    // The same strings, once without codes and once with the codes of an
    // equal but different dictionary.
    let plain = Vector::Str(StrVec::from_strings(&["d00", "d02"]));
    let other = dict_vector(&dictionary(3), vec![0, 2]);
    for keys in [plain, other] {
        let chunk = DataChunk::new(vec![Arc::new(keys), Arc::new(Vector::I64(vec![1, 2]))]);
        match both_paths(&[chunk], &types, &doms, 1024).1 {
            Err(ExecError::Plan(m)) => assert!(m.contains("without the codes"), "{m}"),
            other => panic!("accepted: {:?}", other.map(|c| c.len())),
        }
    }
    let chunk = DataChunk::new(vec![
        Arc::new(dict_vector(&planned, vec![2, 0, 2])),
        Arc::new(Vector::I64(vec![1, 2, 3])),
    ]);
    let out = both_paths(&[chunk], &types, &doms, 1024).1.unwrap();
    let keys: Vec<&str> = out[0].column(0).as_str_vec().iter().collect();
    assert_eq!(keys, ["d02", "d00"]);
}

#[test]
fn dense_domains_past_the_cap_are_rejected() {
    let ctx = QueryContext::new(Arc::new(build_dictionary()), ExecConfig::fixed_default());
    for doms in [
        vec![KeyDomain::Int {
            lo: i64::MIN,
            hi: i64::MAX,
        }],
        vec![KeyDomain::Int { lo: 0, hi: 1 << 20 }],
        vec![KeyDomain::Int { lo: 1, hi: 0 }],
    ] {
        let source: BoxOp = Box::new(Chunks {
            chunks: VecDeque::new(),
            types: vec![DataType::I64, DataType::I64],
        });
        let agg =
            HashAggregate::new_dense(source, vec![0], doms, vec![Agg::count()], &ctx.scope("t"));
        assert!(matches!(agg, Err(ExecError::Plan(_))));
    }
}

/// One table `t(k i32, v i64)` whose `k` holds `values`, cycling.
fn int_catalog(values: &[i64]) -> HashMap<String, Arc<Table>> {
    let rows = 64;
    let mut k = ColumnBuilder::with_capacity(DataType::I64, rows);
    let mut v = ColumnBuilder::with_capacity(DataType::I64, rows);
    for i in 0..rows {
        k.push_i64(values[i % values.len()]);
        v.push_i64(i as i64);
    }
    let t = Table::new(
        "t",
        vec![("k".into(), k.finish()), ("v".into(), v.finish())],
    )
    .unwrap();
    HashMap::from([("t".to_string(), Arc::new(t))])
}

/// Whether the planner sends `GROUP BY k` over `values` to a dense table.
fn goes_dense(values: &[i64]) -> bool {
    let cat = int_catalog(values);
    let plan = PlanBuilder::scan(&cat, "t", &["k", "v"])
        .hash_agg(&["k"], vec![count()], "agg")
        .build()
        .unwrap();
    let phys = plan_physical(&plan, &ExecConfig::fixed_default()).unwrap();
    let agg = phys
        .nodes()
        .into_iter()
        .find(|n| matches!(n.logical, LogicalPlan::HashAgg { .. }))
        .unwrap();
    !agg.dense_keys.is_empty()
}

#[test]
fn the_planner_goes_dense_within_eight_slots_per_group() {
    // 4 groups: 8 × 4 = 32 slots. [0, 31] spans 32, [0, 32] spans 33.
    assert!(goes_dense(&[0, 1, 2, 31]));
    assert!(!goes_dense(&[0, 1, 2, 32]));
    assert!(goes_dense(&[-20, -19, -18, 11]));
    assert!(!goes_dense(&[-20, -19, -18, 12]));
    // One group over a one-value interval.
    assert!(goes_dense(&[i64::MAX]));
    // i64-extreme intervals overflow every product: the hash path.
    assert!(!goes_dense(&[i64::MIN, i64::MAX]));
    assert!(!goes_dense(&[i64::MIN, 0, i64::MAX]));
}

/// `t(k i32, s str, v i64)`, encoded (so `s` is dictionary-coded): `k` in
/// [-50, 49] and 5 strings, enough rows for 64-row vectors to shard.
fn encoded_catalog() -> HashMap<String, Arc<Table>> {
    let rows = 4096;
    let mut rng = SplitMix64::new(7);
    let mut k = ColumnBuilder::with_capacity(DataType::I32, rows);
    let mut s = ColumnBuilder::with_capacity(DataType::Str, rows);
    let mut v = ColumnBuilder::with_capacity(DataType::I64, rows);
    for i in 0..rows {
        k.push_i32(rng.gen_range(100) as i32 - 50);
        s.push_str(["AIR", "MAIL", "RAIL", "SHIP", "TRUCK"][rng.gen_range(5)]);
        v.push_i64(i as i64);
    }
    let t = Table::new(
        "t",
        vec![
            ("k".into(), k.finish()),
            ("s".into(), s.finish()),
            ("v".into(), v.finish()),
        ],
    )
    .unwrap();
    HashMap::from([("t".to_string(), Arc::new(encode_table(&t)))])
}

#[test]
fn planned_dense_aggregates_agree_across_workers() {
    let cat = encoded_catalog();
    let t = &cat["t"];
    let (ks, ss, vs) = (
        t.column("k").unwrap().slice_vector(0, t.rows()),
        t.column("s").unwrap().slice_vector(0, t.rows()),
        t.column("v").unwrap().slice_vector(0, t.rows()),
    );
    for keys in [&["k"][..], &["s"], &["s", "k"]] {
        for cut in [4096, 1500] {
            // The oracle: groups of the rows with v < cut, first-seen order.
            let mut oracle: BTreeMap<Vec<Vec<u8>>, (usize, i64, i64)> = BTreeMap::new();
            for r in 0..vs.len() {
                let v = vs.as_i64()[r];
                if v >= cut {
                    continue;
                }
                let key = keys
                    .iter()
                    .map(|&c| match c {
                        "k" => i64::from(ks.as_i32()[r]).to_le_bytes().to_vec(),
                        _ => ss.as_str_vec().get_bytes(r).to_vec(),
                    })
                    .collect();
                let rank = oracle.len();
                let e = oracle.entry(key).or_insert((rank, 0, 0));
                e.1 += 1;
                e.2 += v;
            }
            let mut expected: Vec<_> = oracle.into_iter().collect();
            expected.sort_by_key(|(_, (rank, ..))| *rank);
            let expected: Vec<_> = expected
                .into_iter()
                .map(|(k, (_, c, s))| (k, c, s))
                .collect();

            let mut cols = keys.to_vec();
            cols.push("v");
            let plan = PlanBuilder::scan(&cat, "t", &cols)
                .filter(NamedPred::cmp_val("v", CmpKind::Lt, Value::I64(cut)), "f")
                .hash_agg(keys, vec![count(), sum_i64("v")], "agg")
                .build()
                .unwrap();
            for workers in [1, 2, 4] {
                let cfg = ExecConfig {
                    vector_size: 64,
                    ..ExecConfig::fixed_default().with_workers(workers)
                };
                let case = format!("keys {keys:?}, v < {cut}, {workers} workers");
                let phys = plan_physical(&plan, &cfg).unwrap();
                let agg = phys
                    .nodes()
                    .into_iter()
                    .find(|n| matches!(n.logical, LogicalPlan::HashAgg { .. }))
                    .unwrap();
                assert_eq!(agg.dense_keys.len(), keys.len(), "{case}: not dense");
                // At most 500 groups against 4096 input rows: a partial per
                // fragment plus the combine.
                let instances = if workers > 1 { workers + 1 } else { 1 };
                assert_eq!(agg.instances(), instances, "{case}: instances");
                let ctx = QueryContext::new(Arc::new(build_dictionary()), cfg);
                let mut op = lower(&plan, &ctx).unwrap();
                let mut got = rows_of(&collect(op.as_mut()).unwrap(), keys.len());
                let mut want = expected.clone();
                if workers > 1 {
                    // The combine sees partial groups in arrival order.
                    got.sort();
                    want.sort();
                }
                assert_eq!(got, want, "{case}");
            }
        }
    }
}

/// A string key keeps its codes through a semi join's probe side, so the
/// aggregate goes dense; an inner join fetches its probe columns into new
/// vectors without codes, so the same key hashes. Both answer alike.
#[test]
fn only_code_keeping_joins_feed_dense_string_keys() {
    let mut cat = encoded_catalog();
    let mut d = ColumnBuilder::with_capacity(DataType::I32, 50);
    for k in 0..50 {
        d.push_i32(k - 50);
    }
    let d = Table::new("d", vec![("dk".into(), d.finish())]).unwrap();
    cat.insert("d".to_string(), Arc::new(d));
    let mut answers = Vec::new();
    for (kind, dense) in [(JoinKind::Semi, true), (JoinKind::Inner, false)] {
        let plan = PlanBuilder::scan(&cat, "t", &["k", "s", "v"])
            .hash_join(
                PlanBuilder::scan(&cat, "d", &["dk"]),
                &[("k", "dk")],
                &[],
                kind,
                false,
                "j",
            )
            .hash_agg(&["s"], vec![count(), sum_i64("v")], "agg")
            .build()
            .unwrap();
        let cfg = ExecConfig::fixed_default();
        let phys = plan_physical(&plan, &cfg).unwrap();
        let agg = phys
            .nodes()
            .into_iter()
            .find(|n| matches!(n.logical, LogicalPlan::HashAgg { .. }))
            .unwrap();
        assert_eq!(!agg.dense_keys.is_empty(), dense, "{kind:?}");
        let ctx = QueryContext::new(Arc::new(build_dictionary()), cfg);
        let mut op = lower(&plan, &ctx).unwrap();
        answers.push(rows_of(&collect(op.as_mut()).unwrap(), 1));
    }
    assert_eq!(answers[0], answers[1]);
    assert_eq!(answers[0].len(), 5);
}
