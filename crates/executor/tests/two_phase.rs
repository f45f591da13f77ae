//! Two-phase hash aggregation held to the single instance: a partial
//! `HashAggregate` in each worker fragment of a sharded chain, combined
//! once, must answer exactly what one aggregate over the whole input
//! answers — `count`, `sum_i64`, `sum_f64`, `min` and `max` over dense
//! integer, dense dictionary, hashed integer, composite and string keys, at
//! 1, 2 and 4 workers with 64- and 1024-row vectors. Each table is three
//! morsels long, so at 4 workers some fragment claims no morsel, and one
//! Filter empties its input at run time.
//!
//! A sum that leaves `i64` is a typed [`ExecError::SumOverflow`] at any
//! worker count, never a panic.

use std::collections::HashMap;
use std::sync::Arc;

use ma_executor::ops::collect;
use ma_executor::plan::{count, max_f64, max_i64, min_f64, min_i64, sum_f64, sum_i64, NamedPred};
use ma_executor::{
    lower, plan_physical, CmpKind, ExecConfig, ExecError, LogicalPlan, PlanBuilder, QueryContext,
};
use ma_primitives::build_dictionary;
use ma_vector::{
    encode_table, ColumnBuilder, DataChunk, DataType, Table, Vector, VECTORS_PER_MORSEL,
};

/// `t(d i32, h i64, s str, v i64, f f64)` of `rows` rows: `d` in [0, 39]
/// (a dense integer key), `h` 8 values spread over a wide interval (a
/// hashed integer key), `s` 6 strings (dictionary-coded when encoded),
/// `v` in [0, 999] and `f` a float of both signs.
fn table(rows: usize, encoded: bool) -> HashMap<String, Arc<Table>> {
    let mut d = ColumnBuilder::with_capacity(DataType::I32, rows);
    let mut h = ColumnBuilder::with_capacity(DataType::I64, rows);
    let mut s = ColumnBuilder::with_capacity(DataType::Str, rows);
    let mut v = ColumnBuilder::with_capacity(DataType::I64, rows);
    let mut f = ColumnBuilder::with_capacity(DataType::F64, rows);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..rows {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        d.push_i32((x % 40) as i32);
        h.push_i64(((x >> 8) % 8) as i64 * 1_000_000_007 - 7_000_000_000);
        s.push_str(["", "AIR", "MAIL", "RAIL", "SHIP", "TRUCK"][(x >> 16) as usize % 6]);
        v.push_i64((x >> 24) as i64 % 1000);
        f.push_f64(((x >> 32) % 20_001) as f64 / 100.0 - 100.0 + i as f64 * 1e-3);
    }
    let cols = [("d", d), ("h", h), ("s", s), ("v", v), ("f", f)];
    let t = Table::new("t", cols.map(|(n, c)| (n.to_string(), c.finish())).to_vec()).unwrap();
    let t = if encoded { encode_table(&t) } else { t };
    HashMap::from([("t".to_string(), Arc::new(t))])
}

/// Every output row rendered, floats to 9 significant digits (partials
/// reorder `f64` additions), sorted: the combine emits groups in arrival
/// order.
fn rows(chunks: &[DataChunk]) -> Vec<String> {
    let mut out = Vec::new();
    for chunk in chunks {
        for p in chunk.live_positions() {
            let cells: Vec<String> = chunk
                .columns()
                .iter()
                .map(|c| match c.as_ref() {
                    Vector::I16(v) => v[p].to_string(),
                    Vector::I32(v) => v[p].to_string(),
                    Vector::I64(v) => v[p].to_string(),
                    Vector::F64(v) => format!("{:.8e}", v[p]),
                    Vector::Str(v) => format!("{:?}", v.get(p)),
                })
                .collect();
            out.push(cells.join("|"));
        }
    }
    out.sort();
    out
}

fn run(plan: &LogicalPlan, cfg: &ExecConfig) -> Result<Vec<DataChunk>, ExecError> {
    let ctx = QueryContext::new(Arc::new(build_dictionary()), cfg.clone());
    collect(lower(plan, &ctx)?.as_mut())
}

fn config(workers: usize, vsize: usize) -> ExecConfig {
    ExecConfig {
        vector_size: vsize,
        ..ExecConfig::fixed_default().with_workers(workers)
    }
}

#[test]
fn two_phase_answers_what_one_instance_answers() {
    let keysets: [&[&str]; 5] = [&["d"], &["s"], &["h"], &["d", "s"], &["h", "d"]];
    for vsize in [64, 1024] {
        let rows_n = 3 * VECTORS_PER_MORSEL * vsize;
        for encoded in [false, true] {
            let cat = table(rows_n, encoded);
            for keys in keysets {
                // `v < v` holds nowhere, which no analysis proves.
                let filters = [None, Some(NamedPred::cmp_col("v", CmpKind::Lt, "v"))];
                for filter in filters {
                    let empties = filter.is_some();
                    let mut pb = PlanBuilder::scan(&cat, "t", &["d", "h", "s", "v", "f"]);
                    if let Some(pred) = filter {
                        pb = pb.filter(pred, "sel");
                    }
                    let aggs = vec![
                        count(),
                        sum_i64("v"),
                        sum_f64("f"),
                        min_i64("v"),
                        max_i64("v"),
                        min_f64("f"),
                        max_f64("f"),
                    ];
                    let plan = pb.hash_agg(keys, aggs, "agg").build().unwrap();
                    let case = format!("keys {keys:?}, encoded {encoded}, vsize {vsize}");
                    let single = rows(&run(&plan, &config(1, vsize)).unwrap());
                    assert_eq!(single.is_empty(), empties, "{case}");
                    for workers in [2, 4] {
                        let cfg = config(workers, vsize);
                        let root = plan_physical(&plan, &cfg).unwrap().root;
                        assert!(root.two_phase(), "{case}: {:?}", root.exchange);
                        let got = rows(&run(&plan, &cfg).unwrap());
                        assert_eq!(got, single, "{case}, {workers} workers");
                    }
                }
            }
        }
    }
}

/// `t(k i32, v i64)`: 4096 rows in 4 groups, `v = 2^62` on every row —
/// a group's sum leaves `i64` by its third row.
fn overflowing() -> HashMap<String, Arc<Table>> {
    let rows = 4096;
    let mut k = ColumnBuilder::with_capacity(DataType::I32, rows);
    let mut v = ColumnBuilder::with_capacity(DataType::I64, rows);
    for i in 0..rows {
        k.push_i32((i % 4) as i32);
        v.push_i64(1 << 62);
    }
    let t = Table::new(
        "t",
        vec![("k".into(), k.finish()), ("v".into(), v.finish())],
    );
    HashMap::from([("t".to_string(), Arc::new(t.unwrap()))])
}

#[test]
fn a_sum_past_i64_is_a_typed_error_at_any_worker_count() {
    let cat = overflowing();
    let grouped = PlanBuilder::scan(&cat, "t", &["k", "v"])
        .hash_agg(&["k"], vec![sum_i64("v")], "agg")
        .build()
        .unwrap();
    let global = PlanBuilder::scan(&cat, "t", &["v"])
        .stream_agg(vec![sum_i64("v")], "total")
        .build()
        .unwrap();
    for (plan, instance) in [
        (&grouped, "agg/aggr_sum128_i64"),
        (&global, "total/aggr0_sum128_i64"),
    ] {
        for workers in [1, 2] {
            let cfg = config(workers, 64);
            if workers > 1 && matches!(plan, LogicalPlan::HashAgg { .. }) {
                // The analyzer sees the overflow coming: routed, not
                // two-phase.
                let root = plan_physical(plan, &cfg).unwrap().root;
                assert!(!root.two_phase(), "{:?}", root.exchange);
                assert_eq!(root.instances(), workers);
            }
            match run(plan, &cfg) {
                Err(ExecError::SumOverflow { instance: got, sum }) => {
                    assert_eq!(got, instance, "{workers} workers");
                    assert!(sum > i128::from(i64::MAX), "{sum}");
                }
                other => panic!("{instance} at {workers} workers: {other:?}"),
            }
        }
    }
}
