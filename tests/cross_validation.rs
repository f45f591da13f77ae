//! Golden-model cross-validation: every operator family checked against a
//! naive reference implementation on randomized inputs, and MergeJoin
//! checked against HashJoin on the same inputs.

use std::collections::BTreeMap;
use std::sync::Arc;

use micro_adaptivity::core::SplitMix64;
use micro_adaptivity::executor::ops::{
    collect, Agg, HashAggregate, HashJoin, JoinKind, MergeJoin, Scan, Select,
};
use micro_adaptivity::executor::{
    BoxOp, CmpKind, ExecConfig, FlavorAxis, Pred, QueryContext, Value,
};
use micro_adaptivity::primitives::build_dictionary;
use micro_adaptivity::vector::{ColumnBuilder, DataChunk, DataType, Table};

fn ctx() -> QueryContext {
    QueryContext::new(
        Arc::new(build_dictionary()),
        ExecConfig::adaptive(FlavorAxis::All).with_seed(99),
    )
}

/// Sorted unique-key table `(k, payload)`.
fn left_table(n: usize, seed: u64) -> (Arc<Table>, Vec<(i64, i64)>) {
    let mut rng = SplitMix64::new(seed);
    let mut rows: Vec<(i64, i64)> = Vec::new();
    let mut k = 0i64;
    for _ in 0..n {
        k += 1 + (rng.next_u64() % 3) as i64;
        rows.push((k, (rng.next_u64() % 1000) as i64));
    }
    let mut kb = ColumnBuilder::with_capacity(DataType::I64, n);
    let mut pb = ColumnBuilder::with_capacity(DataType::I64, n);
    for &(k, p) in &rows {
        kb.push_i64(k);
        pb.push_i64(p);
    }
    let t = Table::new(
        "l",
        vec![("k".into(), kb.finish()), ("p".into(), pb.finish())],
    )
    .unwrap();
    (Arc::new(t), rows)
}

/// Sorted many-key table `(k, v)` with duplicates.
fn right_table(n: usize, key_range: i64, seed: u64) -> (Arc<Table>, Vec<(i64, i64)>) {
    let mut rng = SplitMix64::new(seed);
    let mut rows: Vec<(i64, i64)> = (0..n)
        .map(|i| ((rng.next_u64() as i64).rem_euclid(key_range), i as i64))
        .collect();
    rows.sort_unstable();
    let mut kb = ColumnBuilder::with_capacity(DataType::I64, n);
    let mut vb = ColumnBuilder::with_capacity(DataType::I64, n);
    for &(k, v) in &rows {
        kb.push_i64(k);
        vb.push_i64(v);
    }
    let t = Table::new(
        "r",
        vec![("k".into(), kb.finish()), ("v".into(), vb.finish())],
    )
    .unwrap();
    (Arc::new(t), rows)
}

/// Collects `(right key, right v, left payload)` triples from join output.
fn join_rows(chunks: &[DataChunk]) -> Vec<(i64, i64, i64)> {
    let mut out = Vec::new();
    for ch in chunks {
        for p in ch.live_positions() {
            out.push((
                ch.column(0).as_i64()[p],
                ch.column(1).as_i64()[p],
                ch.column(2).as_i64()[p],
            ));
        }
    }
    out.sort_unstable();
    out
}

#[test]
fn merge_join_equals_hash_join_and_reference() {
    let (lt, lrows) = left_table(500, 1);
    let (rt, rrows) = right_table(3000, 1200, 2);

    let c = ctx();
    let scan = |t: &Arc<Table>, cols: &[&str]| -> BoxOp {
        Box::new(Scan::new(Arc::clone(t), cols, 256).unwrap())
    };
    // MergeJoin: output = right cols ++ left payload.
    let mut mj = MergeJoin::new(
        scan(&lt, &["k", "p"]),
        scan(&rt, &["k", "v"]),
        0,
        0,
        vec![1],
        &c,
        "mj",
    )
    .unwrap();
    let mj_rows = join_rows(&collect(&mut mj).unwrap());

    // HashJoin (build = left, probe = right), same output layout.
    let mut hj = HashJoin::new(
        scan(&lt, &["k", "p"]),
        scan(&rt, &["k", "v"]),
        vec![0],
        vec![0],
        vec![1],
        JoinKind::Inner,
        true,
        vec![],
        &c,
        "hj",
    )
    .unwrap();
    let hj_rows = join_rows(&collect(&mut hj).unwrap());

    // Naive reference.
    let lmap: BTreeMap<i64, i64> = lrows.iter().copied().collect();
    let mut expect: Vec<(i64, i64, i64)> = rrows
        .iter()
        .filter_map(|&(k, v)| lmap.get(&k).map(|&p| (k, v, p)))
        .collect();
    expect.sort_unstable();

    assert_eq!(mj_rows, expect, "merge join vs reference");
    assert_eq!(hj_rows, expect, "hash join vs reference");
}

#[test]
fn hash_aggregate_equals_reference_under_selection() {
    let (rt, rrows) = right_table(5000, 40, 3);
    let c = ctx();
    let scan: BoxOp = Box::new(Scan::new(Arc::clone(&rt), &["k", "v"], 512).unwrap());
    // Filter v % ... — use v < 2500 to exercise the selection vector.
    let sel = Select::new(
        scan,
        &Pred::cmp_val(1, CmpKind::Lt, Value::I64(2500)),
        &c,
        "sel",
    )
    .unwrap();
    let mut agg = HashAggregate::new(
        Box::new(sel),
        vec![0],
        vec![
            Agg::count(),
            Agg::sum_i64(1),
            Agg::min_i64(1),
            Agg::max_i64(1),
        ],
        &c,
        "agg",
    )
    .unwrap();
    let chunks = collect(&mut agg).unwrap();
    let mut got: Vec<(i64, i64, i64, i64, i64)> = Vec::new();
    for ch in &chunks {
        for p in ch.live_positions() {
            got.push((
                ch.column(0).as_i64()[p],
                ch.column(1).as_i64()[p],
                ch.column(2).as_i64()[p],
                ch.column(3).as_i64()[p],
                ch.column(4).as_i64()[p],
            ));
        }
    }
    got.sort_unstable();

    let mut expect: BTreeMap<i64, (i64, i64, i64, i64)> = BTreeMap::new();
    for &(k, v) in rrows.iter().filter(|&&(_, v)| v < 2500) {
        let e = expect.entry(k).or_insert((0, 0, i64::MAX, i64::MIN));
        e.0 += 1;
        e.1 += v;
        e.2 = e.2.min(v);
        e.3 = e.3.max(v);
    }
    let expect: Vec<(i64, i64, i64, i64, i64)> = expect
        .into_iter()
        .map(|(k, (c, s, mn, mx))| (k, c, s, mn, mx))
        .collect();
    assert_eq!(got, expect);
}

#[test]
fn semi_anti_partition_is_exact() {
    let (lt, lrows) = left_table(200, 7);
    let (rt, rrows) = right_table(2000, 800, 8);
    let c = ctx();
    let scan = |t: &Arc<Table>, cols: &[&str]| -> BoxOp {
        Box::new(Scan::new(Arc::clone(t), cols, 128).unwrap())
    };
    let run = |kind: JoinKind| -> Vec<i64> {
        let mut j = HashJoin::new(
            scan(&lt, &["k"]),
            scan(&rt, &["k", "v"]),
            vec![0],
            vec![0],
            vec![],
            kind,
            true,
            vec![],
            &c,
            "j",
        )
        .unwrap();
        let mut vs: Vec<i64> = collect(&mut j)
            .unwrap()
            .iter()
            .flat_map(|ch| {
                ch.live_positions()
                    .into_iter()
                    .map(|p| ch.column(1).as_i64()[p])
                    .collect::<Vec<_>>()
            })
            .collect();
        vs.sort_unstable();
        vs
    };
    let semi = run(JoinKind::Semi);
    let anti = run(JoinKind::Anti);
    let keys: std::collections::BTreeSet<i64> = lrows.iter().map(|&(k, _)| k).collect();
    let mut expect_semi: Vec<i64> = rrows
        .iter()
        .filter(|&&(k, _)| keys.contains(&k))
        .map(|&(_, v)| v)
        .collect();
    expect_semi.sort_unstable();
    assert_eq!(semi, expect_semi);
    // Semi ∪ Anti = everything, disjoint.
    assert_eq!(semi.len() + anti.len(), rrows.len());
    let mut all = semi.clone();
    all.extend(&anti);
    all.sort_unstable();
    let mut expect_all: Vec<i64> = rrows.iter().map(|&(_, v)| v).collect();
    expect_all.sort_unstable();
    assert_eq!(all, expect_all);
}
