//! Zone maps on scans of every storage, over a hand-built table whose
//! integer columns hold known values.
//!
//! Every integer column carries the exact `(min, max)` of each 1024-row
//! zone (`ColumnStats::zones`), raw and encoded alike. Of a chunk the scan
//! reads the hull of the zones its rows overlap. Pinned here:
//!
//! * the skip rule: a scan drops a chunk exactly when some guard misses its
//!   hull, at vector sizes that align with the zones and ones that do not,
//!   at negative values and at the `i64` extremes, on raw and
//!   frame-of-reference columns alike;
//! * the admit rule: a zone conjunct (`col op const` on an integer column)
//!   is evaluated only on chunks whose hull its range does not contain, and
//!   a chunk every conjunct admits leaves the scan with no selection
//!   vector; a guard from a column-to-column comparison never admits;
//! * the planner's guard derivation: an integer column gets the Filter's
//!   output interval wherever the Filter right above the scan narrows it
//!   below the column's stats — through range conjuncts, OR hulls,
//!   column-to-column comparisons and `<>` at a boundary;
//! * skipping and admission drop only rows the Filter drops: every
//!   comparison kind returns the skip-free spec's rows (raw storage under
//!   `DecodeMode::Reference`, which takes no guard and no zone conjunct)
//!   at 1, 2 and 4 workers, on both storages;
//! * skipping is live: a guarded scan invokes its decode instances only for
//!   the chunks it keeps.

use std::collections::HashMap;
use std::sync::Arc;

use ma_executor::ops::{collect, Operator, Scan, ZoneGuard, ZonePred};
use ma_executor::plan::NamedPred;
use ma_executor::{
    lower, plan_physical, CmpKind, DecodeMode, ExecConfig, LogicalPlan, PlanBuilder, Pred,
    QueryContext, Value,
};
use ma_primitives::build_dictionary;
use ma_vector::encode::{decode_table, EncColumn, ForInts, ENC_PART_ROWS};
use ma_vector::{Column, DataChunk, DataType, Table, ZONE_ROWS};

/// Rows per chunk of the planned runs: not a divisor of `ZONE_ROWS`, so
/// some chunks straddle two zones.
const VECTOR: usize = 1000;

/// Vector sizes the scan-level rules are checked at: below, at, above and
/// across the zone size.
const VECTOR_SIZES: [usize; 4] = [64, VECTOR, 1024, 4096];

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

fn rows() -> usize {
    (0..D_PARTS.len()).map(rows_of).sum()
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
    let d: Vec<i32> = values(&D_PARTS).into_iter().map(|v| v as i32).collect();
    Arc::new(
        Table::new(
            "t",
            vec![
                (
                    "k".into(),
                    Column::I64(Arc::new((0..rows() as i64).collect())),
                ),
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

/// The values of column `col` of [`COLS`], widened.
fn column(col: usize) -> Vec<i128> {
    let widen = |v: Vec<i64>| v.into_iter().map(i128::from).collect();
    match col {
        0 => (0..rows() as i128).collect(),
        1 | 3 => widen(values(&D_PARTS)),
        2 => widen(values(&BIG_PARTS)),
        _ => unreachable!("four columns"),
    }
}

/// The model of a chunk's hull: min and max over every row of the zones
/// rows `[start, start + n)` overlap.
fn model_hull(values: &[i128], start: usize, n: usize) -> (i128, i128) {
    let from = start / ZONE_ROWS * ZONE_ROWS;
    let to = ((start + n).div_ceil(ZONE_ROWS) * ZONE_ROWS).min(values.len());
    let zone = &values[from..to];
    (*zone.iter().min().unwrap(), *zone.iter().max().unwrap())
}

/// The chunk starts at vector size `vector`.
fn chunks(vector: usize) -> impl Iterator<Item = (usize, usize)> {
    let n = rows();
    (0..n).step_by(vector).map(move |s| (s, vector.min(n - s)))
}

fn catalog(t: Arc<Table>) -> HashMap<String, Arc<Table>> {
    HashMap::from([("t".to_string(), t)])
}

fn ctx_with(workers: usize, vector: usize, decode: DecodeMode) -> QueryContext {
    let mut cfg = ExecConfig::fixed_default()
        .with_workers(workers)
        .with_decode(decode);
    cfg.vector_size = vector;
    QueryContext::new(Arc::new(build_dictionary()), cfg)
}

fn ctx(workers: usize) -> QueryContext {
    ctx_with(workers, VECTOR, DecodeMode::Primitive)
}

/// The chunk starts a scan of `t` under `guards` emits, in order.
fn emitted(t: &Arc<Table>, guards: &[ZoneGuard], vector: usize) -> Vec<usize> {
    let mut scan = Scan::new(Arc::clone(t), &COLS, vector)
        .unwrap()
        .with_guards(guards)
        .unwrap();
    let chunks = collect(&mut scan).unwrap();
    chunks
        .iter()
        .map(|c| c.column(0).as_i64()[0] as usize)
        .collect()
}

/// The chunk starts the skip rule keeps: a chunk stays when every guard
/// overlaps the hull of its column's zones over the chunk.
fn expected(guards: &[ZoneGuard], vector: usize) -> Vec<usize> {
    let cols: Vec<Vec<i128>> = (0..COLS.len()).map(column).collect();
    chunks(vector)
        .filter(|&(start, n)| {
            guards.iter().all(|g| {
                let (lo, hi) = model_hull(&cols[g.col], start, n);
                (lo..=hi).contains(&g.lo.max(lo)) && g.lo.max(lo) <= g.hi
            })
        })
        .map(|(start, _)| start)
        .collect()
}

/// Guards on positions of [`COLS`].
fn guards(spec: &[(usize, i128, i128)]) -> Vec<ZoneGuard> {
    spec.iter()
        .map(|&(col, lo, hi)| ZoneGuard { col, lo, hi })
        .collect()
}

const MIN: i128 = i128::MIN;
const MAX: i128 = i128::MAX;

#[test]
fn chunks_are_skipped_exactly_when_no_partition_can_hold_a_guarded_value() {
    let (lmin, lmax) = (i128::from(i64::MIN), i128::from(i64::MAX));
    let t = encoded();
    let raw = Arc::new(decode_table(&t));
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
        vec![(1, 6, 6)],
        vec![(1, 8, 199)],
        // Ranges over several partitions, and empty ranges, one of them
        // with its ends at the type's extremes.
        vec![(1, 100, 203)],
        vec![(1, 5, 4)],
        vec![(2, lmax, lmin)],
        // The i64 extremes: `> MAX` and `< MIN` admit nothing, `>= MIN`
        // and `<= MAX` everything.
        vec![(2, lmax + 1, MAX)],
        vec![(2, MIN, lmin - 1)],
        vec![(2, lmin, MAX)],
        vec![(2, MIN, lmax)],
        vec![(2, lmax, MAX)],
        vec![(2, MIN, lmin)],
        vec![(2, lmin + 2, lmin + 7)],
        // Two guards: a chunk stays only if it can satisfy both.
        vec![(1, MIN, 7), (2, -1, 0)],
        vec![(1, 0, 7), (2, lmax, MAX)],
        // Raw columns: the row id narrows to single zones, and the raw
        // copy of `d` skips as `d` does.
        vec![(0, 5000, 9000)],
        vec![(0, 1023, 1024)],
        vec![(0, 66_535, MAX)],
        vec![(3, 1000, 1000)],
        vec![(0, MIN, 20_000), (3, 7, 7)],
    ] {
        let g = guards(&spec);
        for vector in VECTOR_SIZES {
            let want = expected(&g, vector);
            assert_eq!(emitted(&t, &g, vector), want, "{spec:?} at {vector}");
            assert_eq!(emitted(&raw, &g, vector), want, "raw: {spec:?} at {vector}");
        }
    }
}

#[test]
fn guards_on_raw_columns_skip_like_encoded_ones() {
    let t = encoded();
    for (lo, hi) in [(7, 7), (MIN, -1), (1000, MAX), (5, 4)] {
        let on_for = emitted(&t, &guards(&[(1, lo, hi)]), VECTOR);
        let on_raw = emitted(&t, &guards(&[(3, lo, hi)]), VECTOR);
        assert_eq!(on_raw, on_for, "[{lo}, {hi}]");
        assert!(on_raw.len() < expected(&[], VECTOR).len(), "[{lo}, {hi}]");
    }
    // A guard on a column the scan does not have is a plan error.
    let scan = Scan::new(t, &["k"], VECTOR).unwrap();
    assert!(scan.with_guards(&guards(&[(1, 0, 0)])).is_err());
}

/// One chunk a scan emitted: its start and its selection (`None` when
/// every conjunct admitted it).
fn emitted_with_sel(scan: &mut dyn Operator) -> Vec<(usize, Option<Vec<u32>>)> {
    let chunks = collect(scan).unwrap();
    let out = chunks.iter().map(|c| {
        let start = c.column(0).as_i64()[0] as usize;
        (start, c.sel().map(|s| s.as_slice().to_vec()))
    });
    out.collect()
}

#[test]
fn skip_and_admit_on_a_raw_table_at_several_vector_sizes() {
    let raw = Arc::new(decode_table(&encoded()));
    // `1500 <= k < 9000`: the guard and its two conjuncts.
    let (lo, hi) = (1500i64, 9000i64);
    let guard = ZoneGuard {
        col: 0,
        lo: lo.into(),
        hi: (hi - 1).into(),
    };
    let conjuncts = [
        (CmpKind::Ge, lo, ZoneGuard { hi: MAX, ..guard }),
        (CmpKind::Lt, hi, ZoneGuard { lo: MIN, ..guard }),
    ];
    let preds: Vec<ZonePred> = conjuncts
        .iter()
        .map(|&(op, v, range)| ZonePred {
            range,
            pred: Pred::cmp_val(0, op, Value::I64(v)),
        })
        .collect();
    for vector in VECTOR_SIZES {
        let ctx = ctx_with(1, vector, DecodeMode::Primitive);
        let mut scan = Scan::new(Arc::clone(&raw), &COLS, vector)
            .unwrap()
            .with_guards(&[guard])
            .unwrap()
            .with_zone_preds(&preds, &ctx.scope("sel"))
            .unwrap();
        let got = emitted_with_sel(&mut scan);
        drop(scan);
        // The model: a chunk is skipped when the guard misses its hull,
        // admitted by a conjunct whose range holds its hull, and otherwise
        // evaluated; it is emitted when some row passes.
        let mut want = Vec::new();
        let mut calls = [0u64; 2];
        for (start, n) in chunks(vector) {
            let hull = (
                i128::from((start / ZONE_ROWS * ZONE_ROWS) as i64),
                i128::from(((start + n).div_ceil(ZONE_ROWS) * ZONE_ROWS).min(rows()) as i64 - 1),
            );
            if !guard.overlaps(hull.0, hull.1) {
                continue;
            }
            let mut evaluated = false;
            for (c, (_, _, range)) in conjuncts.iter().enumerate() {
                if !range.contains(hull.0, hull.1) {
                    calls[c] += 1;
                    evaluated = true;
                }
            }
            let pass: Vec<u32> = (0..n as u32)
                .filter(|&i| (lo..hi).contains(&(start as i64 + i64::from(i))))
                .collect();
            if !pass.is_empty() {
                want.push((start, evaluated.then_some(pass)));
            }
        }
        assert_eq!(got, want, "vector {vector}");
        let reports = ctx.reports();
        let got_calls: Vec<u64> = reports.iter().map(|r| r.calls).collect();
        assert_eq!(got_calls, calls, "vector {vector}");
        if vector == 1024 {
            // Chunks 1..=8 overlap the guard; 2..=7 lie inside both
            // conjuncts, so only the two edge chunks are evaluated.
            assert_eq!(got.len(), 8);
            assert_eq!(got.iter().filter(|(_, sel)| sel.is_none()).count(), 6);
            assert_eq!(calls, [1, 1]);
        }
    }
}

fn plan(t: &Arc<Table>, pred: NamedPred) -> LogicalPlan {
    PlanBuilder::scan(&catalog(Arc::clone(t)), "t", &COLS)
        .filter(pred, "sel")
        .build()
        .unwrap()
}

/// The guards the planner gives the scan under `pred`.
fn planned_guards(t: &Arc<Table>, pred: NamedPred) -> Vec<ZoneGuard> {
    let p = plan(t, pred);
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
fn the_planner_guards_range_conjuncts_on_every_integer_column() {
    // `d` and `d_raw` span [-50, 1001], `big` all of i64, `k` the row ids.
    let t = encoded();
    let planned = |pred| planned_guards(&t, pred);
    let d = |op, v| cmp("d", op, Value::I32(v));
    let guard = |col, lo, hi| ZoneGuard { col, lo, hi };
    assert_eq!(planned(d(CmpKind::Lt, 7)), [guard(1, MIN, 6)]);
    assert_eq!(planned(d(CmpKind::Ge, -49)), [guard(1, -49, MAX)]);
    // Nested ANDs intersect per column.
    let nested = NamedPred::And(vec![
        d(CmpKind::Gt, 0),
        NamedPred::And(vec![
            d(CmpKind::Le, 1000),
            cmp("big", CmpKind::Eq, Value::I64(-1)),
        ]),
        d(CmpKind::Ge, 3),
    ]);
    assert_eq!(planned(nested), [guard(1, 3, 1000), guard(2, -1, -1)]);
    // An OR guards its branches' hull, a column-to-column comparison the
    // bounds each column's interval implies for the other, and `<>` at a
    // boundary the interval without it.
    let or = NamedPred::Or(vec![d(CmpKind::Lt, 0), d(CmpKind::Eq, 7)]);
    assert_eq!(planned(or), [guard(1, MIN, 7)]);
    let or = NamedPred::Or(vec![d(CmpKind::Eq, 7), d(CmpKind::Ge, 1000)]);
    assert_eq!(planned(or), [guard(1, 7, MAX)]);
    let col_col = NamedPred::cmp_col("d", CmpKind::Lt, "d_raw");
    assert_eq!(planned(col_col), [guard(1, MIN, 1000), guard(3, -49, MAX)]);
    assert_eq!(planned(d(CmpKind::Ne, -50)), [guard(1, -49, MAX)]);
    // Raw columns guard exactly as frame-of-reference ones do.
    assert_eq!(
        planned(cmp("d_raw", CmpKind::Lt, Value::I32(0))),
        [guard(3, MIN, -1)]
    );
    assert_eq!(
        planned(cmp("k", CmpKind::Eq, Value::I64(3))),
        [guard(0, 3, 3)]
    );
    // Past an i64 extreme the interval is empty, and so is the guard.
    for pred in [
        cmp("big", CmpKind::Gt, Value::I64(i64::MAX)),
        cmp("big", CmpKind::Lt, Value::I64(i64::MIN)),
    ] {
        let g = planned(pred.clone());
        assert!(
            matches!(g[..], [ZoneGuard { col: 2, lo, hi }] if lo > hi),
            "{pred:?}: {g:?}"
        );
    }
    // None of these narrow an integer column below its stats.
    for pred in [
        d(CmpKind::Ne, 7),
        d(CmpKind::Ge, -50),
        d(CmpKind::Lt, 2000),
        NamedPred::Or(vec![d(CmpKind::Lt, 0), d(CmpKind::Gt, 1000)]),
        NamedPred::cmp_col("d", CmpKind::Le, "d_raw"),
        cmp("k", CmpKind::Ge, Value::I64(0)),
    ] {
        assert_eq!(planned(pred.clone()), [], "{pred:?}");
    }
}

/// The live `(k, d, big)` rows of a query's result, sorted.
fn result_rows(chunks: &[DataChunk]) -> Vec<(i64, i32, i64)> {
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

fn run_in(t: &Arc<Table>, pred: &NamedPred, ctx: &QueryContext) -> Vec<(i64, i32, i64)> {
    let mut op = lower(&plan(t, pred.clone()), ctx).unwrap();
    result_rows(&collect(op.as_mut()).unwrap())
}

fn run(t: &Arc<Table>, pred: &NamedPred, workers: usize) -> Vec<(i64, i32, i64)> {
    run_in(t, pred, &ctx(workers))
}

/// The skip-free spec: the raw twin under the reference decode path.
fn spec(raw: &Arc<Table>, pred: &NamedPred) -> Vec<(i64, i32, i64)> {
    run_in(raw, pred, &ctx_with(1, VECTOR, DecodeMode::Reference))
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
        for v in [-50, 7, 1001] {
            preds.push(cmp("d_raw", op, Value::I32(v)));
        }
        for v in [i64::MIN, -1, i64::MAX - 3, i64::MAX] {
            preds.push(cmp("big", op, Value::I64(v)));
        }
        // Row-id cuts: whole zones admitted, the edge chunks evaluated.
        for v in [1500, 40_000, 66_535] {
            preds.push(cmp("k", op, Value::I64(v)));
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
    // Admitted chunks beside evaluated conjuncts: zone conjuncts the scan
    // admits whole, next to ones it must evaluate and to conjuncts the
    // Filter keeps.
    preds.push(NamedPred::And(vec![
        cmp("k", CmpKind::Ge, Value::I64(1500)),
        cmp("k", CmpKind::Lt, Value::I64(50_000)),
        cmp("d_raw", CmpKind::Ge, Value::I32(-50)),
    ]));
    preds.push(NamedPred::And(vec![
        cmp("k", CmpKind::Lt, Value::I64(40_000)),
        NamedPred::cmp_col("d", CmpKind::Le, "d_raw"),
        cmp("big", CmpKind::Ne, Value::I64(-1)),
    ]));
    preds.push(NamedPred::And(vec![
        cmp("d", CmpKind::Ne, Value::I32(3)),
        cmp("k", CmpKind::Gt, Value::I64(20_000)),
        cmp("d", CmpKind::Le, Value::I32(1000)),
    ]));
    for pred in &preds {
        let want = spec(&raw, pred);
        for workers in [1, 2, 4] {
            for (name, t) in [("enc", &enc), ("raw", &raw)] {
                assert_eq!(
                    run(t, pred, workers),
                    want,
                    "{pred:?} on {name} at {workers} workers"
                );
            }
        }
    }
}

/// Calls per signature family prefix the instances report for one run of
/// `pred` on `t`.
fn calls(t: &Arc<Table>, pred: &NamedPred, ctx: &QueryContext, prefix: &str) -> u64 {
    let mut op = lower(&plan(t, pred.clone()), ctx).unwrap();
    collect(op.as_mut()).unwrap();
    drop(op);
    ctx.reports()
        .iter()
        .filter(|r| r.signature.starts_with(prefix))
        .map(|r| r.calls)
        .sum()
}

#[test]
fn guarded_scans_decode_fewer_chunks() {
    // `d = 7` holds only in the width-0 partition: two frame-of-reference
    // columns decode per chunk kept, and the others are never decoded.
    let pred = cmp("d", CmpKind::Eq, Value::I32(7));
    let decoded = calls(&encoded(), &pred, &ctx(1), "decode_");
    let kept = expected(&guards(&[(1, 7, 7)]), VECTOR).len() as u64;
    let all = chunks(VECTOR).count() as u64;
    assert!(kept < all);
    assert_eq!(decoded, 2 * kept);
}

#[test]
fn scans_of_the_raw_twin_carry_the_encoded_tables_guards() {
    let enc = encoded();
    let raw = Arc::new(decode_table(&enc));
    let pred = cmp("d", CmpKind::Lt, Value::I32(0));
    assert_eq!(
        planned_guards(&raw, pred.clone()),
        planned_guards(&enc, pred.clone())
    );
    for t in [&raw, &enc] {
        let p = plan(t, pred.clone());
        let text = plan_physical(&p, &ExecConfig::fixed_default())
            .unwrap()
            .to_string();
        assert!(
            text.contains("guards=[d <= -1] zone_preds=[d < 0]"),
            "{text}"
        );
    }
}

#[test]
fn a_column_to_column_guard_never_admits() {
    // `d` and `d_raw` hold the same values, so `d < d_raw` passes nothing,
    // yet its guards (`d <= 1000`, `d_raw >= -49`) contain nearly every
    // zone: admitting on them would pass nearly every row.
    let enc = encoded();
    let raw = Arc::new(decode_table(&enc));
    let pred = NamedPred::cmp_col("d", CmpKind::Lt, "d_raw");
    assert!(!planned_guards(&enc, pred.clone()).is_empty());
    let p = plan(&enc, pred.clone());
    let text = plan_physical(&p, &ExecConfig::fixed_default())
        .unwrap()
        .to_string();
    assert!(!text.contains("zone_preds="), "{text}");
    for t in [&enc, &raw] {
        for workers in [1, 2] {
            assert_eq!(run(t, &pred, workers), []);
        }
    }
    // The same guard beside an admitting zone conjunct still filters.
    let both = NamedPred::And(vec![
        cmp("k", CmpKind::Ge, Value::I64(0)),
        NamedPred::cmp_col("d_raw", CmpKind::Lt, "d"),
    ]);
    assert_eq!(run(&raw, &both, 1), []);
}

#[test]
fn not_equal_and_empty_guards() {
    let enc = encoded();
    let raw = Arc::new(decode_table(&enc));
    // `<>` off a boundary is neither a guard nor a zone conjunct: the
    // Filter evaluates it on every chunk.
    let ne = cmp("d_raw", CmpKind::Ne, Value::I32(7));
    assert_eq!(planned_guards(&raw, ne.clone()), []);
    let chunk_count = chunks(VECTOR).count() as u64;
    assert_eq!(calls(&raw, &ne, &ctx(1), "sel_"), chunk_count);
    assert_eq!(run(&raw, &ne, 1), spec(&raw, &ne));
    // An empty guard skips every chunk: nothing is decoded or selected.
    for pred in [
        cmp("big", CmpKind::Gt, Value::I64(i64::MAX)),
        cmp("k", CmpKind::Lt, Value::I64(i64::MIN)),
    ] {
        assert!(matches!(planned_guards(&enc, pred.clone())[..], [g] if g.lo > g.hi));
        for t in [&enc, &raw] {
            assert_eq!(run(t, &pred, 1), []);
            assert_eq!(calls(t, &pred, &ctx(1), "decode_"), 0);
            assert_eq!(calls(t, &pred, &ctx(1), "sel_"), 0);
        }
    }
}

#[test]
fn a_reference_decode_scan_takes_no_guards_and_no_zone_conjuncts() {
    // Under the spec path the Filter sees every chunk: its one selection
    // instance runs once per chunk, where the zone-mapped scan skips the
    // chunks outside `d = 7` and evaluates only the ones it keeps.
    let enc = encoded();
    let pred = cmp("d", CmpKind::Eq, Value::I32(7));
    let all = chunks(VECTOR).count() as u64;
    let reference = ctx_with(1, VECTOR, DecodeMode::Reference);
    assert_eq!(calls(&enc, &pred, &reference, "sel_"), all);
    let kept = expected(&guards(&[(1, 7, 7)]), VECTOR).len() as u64;
    assert!(calls(&enc, &pred, &ctx(1), "sel_") <= kept);
    assert_eq!(run(&enc, &pred, 1), spec(&enc, &pred));
}
