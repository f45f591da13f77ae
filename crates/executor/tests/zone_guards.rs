//! Zone-map guards on encoded scans, over a hand-built table whose
//! frame-of-reference partitions hold known value ranges.
//!
//! Pinned here:
//!
//! * the skip rule: a scan drops a chunk exactly when no partition the
//!   chunk touches can hold a value every guard admits, probed at each
//!   partition's `base` and `base + 2^width - 1`, at a width-0 partition,
//!   at negative bases and at the `i64` extremes;
//! * the planner's guard derivation: a frame-of-reference column gets
//!   the Filter's output interval wherever the Filter right above the scan
//!   narrows it below the column's stats — through range conjuncts, OR
//!   hulls, column-to-column comparisons and `<>` at a boundary — and raw
//!   columns never do;
//! * skipping drops only rows the Filter drops: every comparison kind
//!   returns the raw twin's rows at 1, 2 and 4 workers;
//! * skipping is live: a guarded scan invokes its decode instances fewer
//!   times than the same scan unguarded.

use std::collections::HashMap;
use std::sync::Arc;

use ma_executor::ops::{collect, Scan, ZoneGuard};
use ma_executor::plan::NamedPred;
use ma_executor::{
    lower, plan_physical, CmpKind, ExecConfig, LogicalPlan, PlanBuilder, QueryContext, Value,
};
use ma_primitives::build_dictionary;
use ma_vector::encode::{decode_table, EncColumn, ForInts, ENC_PART_ROWS};
use ma_vector::{Column, DataChunk, DataType, Table};

/// Rows per chunk: not a divisor of `ENC_PART_ROWS`, so some chunks
/// straddle two partitions.
const VECTOR: usize = 1000;

/// Rows of the tail partition.
const TAIL: usize = 1000;

/// Per partition of `d` (i32): `(base, width)`, so the partition holds
/// values in `[base, base + 2^width - 1]` and both ends occur. The third
/// partition has width 0 and the second a negative base.
const D_PARTS: [(i64, u32); 5] = [(0, 3), (-50, 5), (7, 0), (1000, 1), (200, 2)];

/// Per partition of `big` (i64): the extremes of the type.
const BIG_PARTS: [(i64, u32); 5] = [
    (i64::MIN, 1),
    (i64::MAX - 3, 2),
    (-1, 1),
    (0, 0),
    (i64::MIN + 8, 3),
];

fn rows_of(p: usize) -> usize {
    if p + 1 == D_PARTS.len() {
        TAIL
    } else {
        ENC_PART_ROWS
    }
}

/// Values cycling through `[base, base + 2^width - 1]`, one partition
/// after another.
fn values(parts: &[(i64, u32)]) -> Vec<i64> {
    let mut out = Vec::new();
    for (p, &(base, width)) in parts.iter().enumerate() {
        let span = 1i128 << width;
        out.extend((0..rows_of(p)).map(|r| (i128::from(base) + (r as i128 * 7) % span) as i64));
    }
    out
}

fn for_column(dt: DataType, parts: &[(i64, u32)]) -> Column {
    let enc = ForInts::encode(dt, &values(parts));
    for (part, &(base, width)) in enc.parts.iter().zip(parts) {
        assert_eq!((part.base, part.width), (base, width), "fixture partition");
    }
    Column::Enc(Arc::new(EncColumn::For(enc)))
}

/// `t(k, d, big, d_raw)`: `k` the raw row id, `d` and `big` the
/// frame-of-reference columns, `d_raw` the same values as `d` stored raw.
fn encoded() -> Arc<Table> {
    let n: usize = (0..D_PARTS.len()).map(rows_of).sum();
    let d: Vec<i32> = values(&D_PARTS).into_iter().map(|v| v as i32).collect();
    Arc::new(
        Table::new(
            "t",
            vec![
                ("k".into(), Column::I64(Arc::new((0..n as i64).collect()))),
                ("d".into(), for_column(DataType::I32, &D_PARTS)),
                ("big".into(), for_column(DataType::I64, &BIG_PARTS)),
                ("d_raw".into(), Column::I32(Arc::new(d))),
            ],
        )
        .unwrap(),
    )
}

/// The columns every scan here reads, in this order.
const COLS: [&str; 4] = ["k", "d", "big", "d_raw"];

fn catalog(t: Arc<Table>) -> HashMap<String, Arc<Table>> {
    HashMap::from([("t".to_string(), t)])
}

fn ctx(workers: usize) -> QueryContext {
    let mut cfg = ExecConfig::fixed_default().with_workers(workers);
    cfg.vector_size = VECTOR;
    QueryContext::new(Arc::new(build_dictionary()), cfg)
}

/// The chunk starts a scan of `t` under `guards` emits, in order.
fn emitted(guards: &[ZoneGuard]) -> Vec<usize> {
    let mut scan = Scan::new(encoded(), &COLS, VECTOR)
        .unwrap()
        .with_guards(guards)
        .unwrap();
    let chunks = collect(&mut scan).unwrap();
    chunks
        .iter()
        .map(|c| c.column(0).as_i64()[0] as usize)
        .collect()
}

/// The chunk starts the skip rule keeps, from the fixture's declared
/// partition ranges: a chunk stays when one of its partitions can hold a
/// value each guard admits.
fn expected(guards: &[(usize, i128, i128)]) -> Vec<usize> {
    let n: usize = (0..D_PARTS.len()).map(rows_of).sum();
    let range = |col: usize, p: usize| {
        let (base, width) = if col == 1 { D_PARTS[p] } else { BIG_PARTS[p] };
        (i128::from(base), i128::from(base) + (1i128 << width) - 1)
    };
    (0..n)
        .step_by(VECTOR)
        .filter(|&start| {
            let end = (start + VECTOR).min(n);
            (start / ENC_PART_ROWS..=(end - 1) / ENC_PART_ROWS).any(|p| {
                guards.iter().all(|&(col, lo, hi)| {
                    let (plo, phi) = range(col, p);
                    lo <= phi && plo <= hi
                })
            })
        })
        .collect()
}

/// Guards on positions of [`COLS`].
fn guards(spec: &[(usize, i128, i128)]) -> Vec<ZoneGuard> {
    spec.iter()
        .map(|&(col, lo, hi)| ZoneGuard { col, lo, hi })
        .collect()
}

fn check_skip(spec: &[(usize, i128, i128)]) {
    assert_eq!(emitted(&guards(spec)), expected(spec), "guards {spec:?}");
}

const MIN: i128 = i128::MIN;
const MAX: i128 = i128::MAX;

#[test]
fn chunks_are_skipped_exactly_when_no_partition_can_hold_a_guarded_value() {
    let (lmin, lmax) = (i128::from(i64::MIN), i128::from(i64::MAX));
    for spec in [
        // No guard: every chunk.
        vec![],
        // Each partition's base and top, and one past either end.
        vec![(1, 0, 0)],
        vec![(1, 7, 7)],
        vec![(1, 8, 8)],
        vec![(1, -1, -1)],
        vec![(1, -50, -50)],
        vec![(1, -19, -19)],
        vec![(1, -18, -18)],
        vec![(1, -51, -51)],
        vec![(1, 1001, MAX)],
        vec![(1, 1002, MAX)],
        vec![(1, MIN, -50)],
        vec![(1, MIN, -51)],
        // The width-0 partition holds exactly its base.
        vec![(1, 7, 7)],
        vec![(1, 6, 6)],
        vec![(1, 8, 199)],
        // Ranges over several partitions, and the empty range.
        vec![(1, 100, 203)],
        vec![(1, 5, 4)],
        // The i64 extremes: `> MAX` and `< MIN` admit nothing, `>= MIN`
        // and `<= MAX` everything.
        vec![(2, lmax + 1, MAX)],
        vec![(2, MIN, lmin - 1)],
        vec![(2, lmin, MAX)],
        vec![(2, MIN, lmax)],
        vec![(2, lmax, MAX)],
        vec![(2, MIN, lmin)],
        vec![(2, lmin + 2, lmin + 7)],
        // Two guards: a partition stays only if it can satisfy both.
        vec![(1, MIN, 7), (2, -1, 0)],
        vec![(1, 0, 7), (2, lmax, MAX)],
    ] {
        check_skip(&spec);
    }
}

#[test]
fn guards_on_raw_columns_rule_nothing_out() {
    let all = emitted(&[]);
    assert_eq!(all.len(), expected(&[]).len());
    // `k` and `d_raw` are raw: their partitions carry no zone map.
    for col in [0, 3] {
        assert_eq!(emitted(&guards(&[(col, 5, 4)])), all, "column {col}");
    }
    // A guard on a column the scan does not have is a plan error.
    let t = encoded();
    let scan = Scan::new(t, &["k"], VECTOR).unwrap();
    assert!(scan.with_guards(&guards(&[(1, 0, 0)])).is_err());
}

fn plan(t: &Arc<Table>, pred: NamedPred) -> LogicalPlan {
    PlanBuilder::scan(&catalog(Arc::clone(t)), "t", &COLS)
        .filter(pred, "sel")
        .build()
        .unwrap()
}

/// The guards the planner gives the scan under `pred`.
fn planned_guards(pred: NamedPred) -> Vec<ZoneGuard> {
    let p = plan(&encoded(), pred);
    let phys = plan_physical(&p, &ExecConfig::fixed_default()).unwrap();
    let scans: Vec<_> = phys
        .nodes()
        .into_iter()
        .filter(|n| matches!(n.logical, LogicalPlan::Scan { .. }))
        .map(|n| n.guards.clone())
        .collect();
    assert_eq!(scans.len(), 1);
    scans.into_iter().next().unwrap()
}

fn cmp(col: &str, op: CmpKind, v: Value) -> NamedPred {
    NamedPred::cmp_val(col, op, v)
}

#[test]
fn the_planner_guards_range_conjuncts_on_for_columns_only() {
    // `d` spans [-50, 1001] and `big` all of i64.
    let d = |op, v| cmp("d", op, Value::I32(v));
    let guard = |col, lo, hi| ZoneGuard { col, lo, hi };
    assert_eq!(planned_guards(d(CmpKind::Lt, 7)), [guard(1, MIN, 6)]);
    assert_eq!(planned_guards(d(CmpKind::Ge, -49)), [guard(1, -49, MAX)]);
    // Nested ANDs intersect per column.
    let nested = NamedPred::And(vec![
        d(CmpKind::Gt, 0),
        NamedPred::And(vec![
            d(CmpKind::Le, 1000),
            cmp("big", CmpKind::Eq, Value::I64(-1)),
        ]),
        d(CmpKind::Ge, 3),
    ]);
    assert_eq!(
        planned_guards(nested),
        [guard(1, 3, 1000), guard(2, -1, -1)]
    );
    // An OR guards its branches' hull, a column-to-column comparison the
    // bound the other column's interval implies, and `<>` at a boundary
    // the interval without it.
    let or = NamedPred::Or(vec![d(CmpKind::Lt, 0), d(CmpKind::Eq, 7)]);
    assert_eq!(planned_guards(or), [guard(1, MIN, 7)]);
    let or = NamedPred::Or(vec![d(CmpKind::Eq, 7), d(CmpKind::Ge, 1000)]);
    assert_eq!(planned_guards(or), [guard(1, 7, MAX)]);
    let col_col = NamedPred::cmp_col("d", CmpKind::Lt, "d_raw");
    assert_eq!(planned_guards(col_col), [guard(1, MIN, 1000)]);
    assert_eq!(planned_guards(d(CmpKind::Ne, -50)), [guard(1, -49, MAX)]);
    // Past an i64 extreme the interval is empty, and so is the guard.
    for pred in [
        cmp("big", CmpKind::Gt, Value::I64(i64::MAX)),
        cmp("big", CmpKind::Lt, Value::I64(i64::MIN)),
    ] {
        let g = planned_guards(pred.clone());
        assert!(
            matches!(g[..], [ZoneGuard { col: 2, lo, hi }] if lo > hi),
            "{pred:?}: {g:?}"
        );
    }
    // None of these narrow a frame-of-reference column below its stats.
    for pred in [
        d(CmpKind::Ne, 7),
        d(CmpKind::Ge, -50),
        d(CmpKind::Lt, 2000),
        NamedPred::Or(vec![d(CmpKind::Lt, 0), d(CmpKind::Gt, 1000)]),
        NamedPred::cmp_col("d", CmpKind::Le, "d_raw"),
        cmp("d_raw", CmpKind::Lt, Value::I32(0)),
        cmp("k", CmpKind::Eq, Value::I64(3)),
    ] {
        assert_eq!(planned_guards(pred.clone()), [], "{pred:?}");
    }
}

/// The live `(k, d, big)` rows of a query's result, sorted.
fn rows(chunks: &[DataChunk]) -> Vec<(i64, i32, i64)> {
    let mut out = Vec::new();
    for c in chunks {
        let (k, d, big) = (c.column(0), c.column(1), c.column(2));
        for i in c.live_positions() {
            out.push((k.as_i64()[i], d.as_i32()[i], big.as_i64()[i]));
        }
    }
    out.sort_unstable();
    out
}

fn run(t: &Arc<Table>, pred: &NamedPred, workers: usize) -> Vec<(i64, i32, i64)> {
    let ctx = ctx(workers);
    let mut op = lower(&plan(t, pred.clone()), &ctx).unwrap();
    rows(&collect(op.as_mut()).unwrap())
}

#[test]
fn every_comparison_kind_returns_the_raw_twins_rows() {
    let enc = encoded();
    let raw = Arc::new(decode_table(&enc));
    assert!(matches!(raw.column_at(1), Column::I32(_)));
    let ops = [
        CmpKind::Lt,
        CmpKind::Le,
        CmpKind::Gt,
        CmpKind::Ge,
        CmpKind::Eq,
        CmpKind::Ne,
    ];
    let mut preds = Vec::new();
    for op in ops {
        for v in [-51, -50, -19, 7, 8, 1001] {
            preds.push(cmp("d", op, Value::I32(v)));
        }
        for v in [i64::MIN, -1, i64::MAX - 3, i64::MAX] {
            preds.push(cmp("big", op, Value::I64(v)));
        }
    }
    preds.push(NamedPred::And(vec![
        cmp("d", CmpKind::Ge, Value::I32(1000)),
        cmp("big", CmpKind::Le, Value::I64(0)),
    ]));
    preds.push(NamedPred::Or(vec![
        cmp("d", CmpKind::Eq, Value::I32(7)),
        cmp("big", CmpKind::Gt, Value::I64(i64::MAX - 1)),
    ]));
    // OR hulls and column-to-column comparisons guard too.
    preds.push(NamedPred::Or(vec![
        cmp("d", CmpKind::Lt, Value::I32(0)),
        cmp("d", CmpKind::Eq, Value::I32(7)),
    ]));
    preds.push(NamedPred::Or(vec![
        cmp("d", CmpKind::Eq, Value::I32(7)),
        cmp("d", CmpKind::Ge, Value::I32(1000)),
    ]));
    for op in ops {
        preds.push(NamedPred::cmp_col("d", op, "d_raw"));
        preds.push(NamedPred::cmp_col("d_raw", op, "d"));
    }
    for pred in &preds {
        let want = run(&raw, pred, 1);
        for workers in [1, 2, 4] {
            assert_eq!(
                run(&enc, pred, workers),
                want,
                "{pred:?} at {workers} workers"
            );
        }
    }
}

/// Decode calls the scan's instances report for one run of `pred`.
fn decode_calls(pred: &NamedPred) -> u64 {
    let ctx = ctx(1);
    let mut op = lower(&plan(&encoded(), pred.clone()), &ctx).unwrap();
    collect(op.as_mut()).unwrap();
    drop(op);
    ctx.reports()
        .iter()
        .filter(|r| r.signature.starts_with("decode_"))
        .map(|r| r.calls)
        .sum()
}

#[test]
fn guarded_scans_decode_fewer_chunks() {
    // The same rows, selected with and without a guard: `d = 7` holds
    // only in the width-0 partition, and `d_raw` (raw) carries no zone
    // map.
    let guarded = decode_calls(&cmp("d", CmpKind::Eq, Value::I32(7)));
    let unguarded = decode_calls(&cmp("d_raw", CmpKind::Eq, Value::I32(7)));
    assert!(unguarded > 0);
    assert!(
        guarded < unguarded,
        "guarded {guarded} vs unguarded {unguarded} decode calls"
    );
    // Two FOR columns decode per emitted chunk: the chunks that touch the
    // width-0 partition.
    let kept = expected(&[(1, 7, 7)]).len() as u64;
    assert_eq!(guarded, 2 * kept);
}

#[test]
fn scans_of_the_raw_twin_are_never_guarded() {
    let raw = Arc::new(decode_table(&encoded()));
    let p = plan(&raw, cmp("d", CmpKind::Lt, Value::I32(0)));
    let phys = plan_physical(&p, &ExecConfig::fixed_default()).unwrap();
    assert!(phys.nodes().iter().all(|n| n.guards.is_empty()));
    assert!(!phys.to_string().contains("guards="));
    let enc = plan(&encoded(), cmp("d", CmpKind::Lt, Value::I32(0)));
    let phys = plan_physical(&enc, &ExecConfig::fixed_default()).unwrap();
    assert!(phys.to_string().contains("guards=[d <= -1]"), "{phys}");
}
