//! Criterion: vectorized hashing and group-table insertcheck
//! (the Fig. 4(e) primitive).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ma_executor::ops::{collect, Agg, HashAggregate, Scan};
use ma_executor::{ExecConfig, QueryContext};
use ma_primitives::build_dictionary;
use ma_primitives::group_table::{
    hash_insertcheck_str_gcc, hash_insertcheck_u64_gcc, hash_insertcheck_u64_icc, GroupTable,
    StrGroupTable,
};
use ma_primitives::hashing::{hash_bytes, hash_u64, map_hash_i64_clang, map_hash_i64_gcc};
use ma_vector::{ColumnBuilder, DataType, StrVec, Table};

fn bench_hashing(c: &mut Criterion) {
    let n = 16 * 1024;
    let keys: Vec<i64> = (0..n as i64).map(|i| i % 997).collect();
    let mut hashes = vec![0u64; n];
    let mut group = c.benchmark_group("hashing");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("map_hash_i64/gcc", |b| {
        b.iter(|| {
            map_hash_i64_gcc(&mut hashes, &keys, None);
            std::hint::black_box(&hashes);
        })
    });
    group.bench_function("map_hash_i64/clang", |b| {
        b.iter(|| {
            map_hash_i64_clang(&mut hashes, &keys, None);
            std::hint::black_box(&hashes);
        })
    });

    let u64keys: Vec<u64> = keys.iter().map(|&k| k as u64).collect();
    let khashes: Vec<u64> = u64keys.iter().map(|&k| hash_u64(k)).collect();
    let mut gids = vec![0u32; n];
    for (name, f) in [
        (
            "insertcheck_u64/gcc",
            hash_insertcheck_u64_gcc as ma_primitives::GroupInsertCheck,
        ),
        ("insertcheck_u64/icc", hash_insertcheck_u64_icc),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut t = GroupTable::new();
                t.reserve(n);
                std::hint::black_box(f(&mut t, &khashes, &u64keys, &mut gids, None));
            })
        });
    }

    let strs: Vec<String> = (0..n).map(|i| format!("key{}", i % 997)).collect();
    let skeys = StrVec::from_strings(&strs);
    let shashes: Vec<u64> = strs.iter().map(|s| hash_bytes(s.as_bytes())).collect();
    group.bench_with_input(BenchmarkId::new("insertcheck_str", "gcc"), &n, |b, _| {
        b.iter(|| {
            let mut t = StrGroupTable::new();
            t.reserve(n);
            std::hint::black_box(hash_insertcheck_str_gcc(
                &mut t,
                &shashes,
                skeys.arena(),
                skeys.views(),
                &mut gids,
                None,
            ));
        })
    });
    group.finish();
}

/// Composite group keys through the whole `HashAggregate` operator (key
/// rows, hash pipeline, byte-keyed insertcheck): two one-character strings
/// as Q1 groups by, and two `i32`s as Q20 does.
fn bench_composite_keys(c: &mut Criterion) {
    let n = 64 * 1024;
    let mut flag = ColumnBuilder::with_capacity(DataType::Str, n);
    let mut status = ColumnBuilder::with_capacity(DataType::Str, n);
    let mut part = ColumnBuilder::with_capacity(DataType::I32, n);
    let mut supp = ColumnBuilder::with_capacity(DataType::I32, n);
    for i in 0..n {
        flag.push_str(["A", "N", "R"][i % 3]);
        status.push_str(["F", "O"][i % 2]);
        part.push_i32((i % 997) as i32);
        supp.push_i32((i % 13) as i32);
    }
    let table = Arc::new(
        Table::new(
            "t",
            vec![
                ("flag".into(), flag.finish()),
                ("status".into(), status.finish()),
                ("part".into(), part.finish()),
                ("supp".into(), supp.finish()),
            ],
        )
        .expect("equal-length columns"),
    );
    let dict = Arc::new(build_dictionary());

    let mut group = c.benchmark_group("hash_aggregate");
    group.throughput(Throughput::Elements(n as u64));
    for (name, keys) in [("2xStr", ["flag", "status"]), ("2xI32", ["part", "supp"])] {
        group.bench_function(BenchmarkId::new("composite_key", name), |b| {
            b.iter(|| {
                let ctx = QueryContext::new(Arc::clone(&dict), ExecConfig::fixed_default());
                let scan = Scan::new(Arc::clone(&table), &keys, 1024).expect("columns exist");
                let mut agg = HashAggregate::new(
                    Box::new(scan),
                    vec![0, 1],
                    vec![Agg::count()],
                    &ctx.scope("bench"),
                )
                .expect("integer and string group keys");
                std::hint::black_box(collect(&mut agg).expect("aggregation runs"));
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_hashing, bench_composite_keys);
criterion_main!(benches);
