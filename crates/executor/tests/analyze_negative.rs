//! Negative suite for the abstract-interpretation pass: each
//! [`AnalysisError`] variant is produced by a purpose-built plan whose
//! hazard is *provable from base-table statistics alone* — mirroring
//! `verify_negative.rs` for the verifier's logical/sketch phases.
//!
//! The severity split is pinned here too: only `DivByZeroReachable` is a
//! hazard (it aborts `verify`), while overflow and contradiction findings
//! are warnings — integer wrap is defined (wrapping) semantics, the sum
//! kernel's narrowing is a checked panic, and a contradictory predicate
//! is legal (if pointless) SQL.

use std::collections::HashMap;
use std::sync::Arc;

use ma_executor::plan::{col, count, lit_i64, sum_i64, PlanBuilder};
use ma_executor::{
    analyze, lower, verify, AnalysisError, CmpKind, ExecConfig, ExecError, QueryContext, Value,
    VerifyError,
};
use ma_primitives::build_dictionary;
use ma_vector::{ColumnBuilder, DataType, Table};

use ma_executor::plan::NamedPred;

fn catalog(rows: usize) -> HashMap<String, Arc<Table>> {
    let mut id = ColumnBuilder::with_capacity(DataType::I64, rows);
    let mut k = ColumnBuilder::with_capacity(DataType::I32, rows);
    for i in 0..rows {
        id.push_i64(i as i64);
        k.push_i32((i % 5) as i32);
    }
    let t = Arc::new(
        Table::new(
            "t",
            vec![("id".into(), id.finish()), ("k".into(), k.finish())],
        )
        .unwrap(),
    );
    let mut c = HashMap::new();
    c.insert("t".to_string(), t);
    c
}

#[test]
fn wide_arithmetic_reports_possible_overflow() {
    // id ∈ [0, 99]; adding i64::MAX provably exceeds the i64 range on
    // every row but the first, so the wrap is reachable.
    let c = catalog(100);
    let plan = PlanBuilder::scan(&c, "t", &["id"])
        .project(vec![("w", col("id").add(lit_i64(i64::MAX)))], "proj")
        .build()
        .unwrap();
    let a = analyze(&plan);
    assert!(
        a.errors
            .iter()
            .any(|e| matches!(e, AnalysisError::PossibleOverflow { op: "add", .. })),
        "expected PossibleOverflow, got {:?}",
        a.errors
    );
    // Wrapping is defined semantics: a warning, not a verify failure.
    assert!(a.errors.iter().all(|e| !e.is_hazard()));
    verify(&plan, &ExecConfig::fixed_default()).unwrap();
}

#[test]
fn sum_over_wide_literal_reports_sum_overflow() {
    // Each row contributes ~i64::MAX/50; 100 rows provably exceed the
    // i64 accumulator output range (the kernel panics via checked
    // narrowing — the analysis flags it statically).
    let c = catalog(100);
    let plan = PlanBuilder::scan(&c, "t", &["id"])
        .project(vec![("w", col("id").add(lit_i64(i64::MAX / 50)))], "proj")
        .stream_agg(vec![sum_i64("w")], "agg")
        .build()
        .unwrap();
    let a = analyze(&plan);
    assert!(
        a.errors
            .iter()
            .any(|e| matches!(e, AnalysisError::SumOverflow { .. })),
        "expected SumOverflow, got {:?}",
        a.errors
    );
    assert!(a.errors.iter().all(|e| !e.is_hazard()));
}

#[test]
fn division_by_column_containing_zero_is_a_hazard() {
    // id ∈ [0, 99]: zero is in the divisor interval and nothing above
    // the scan excludes it, so the runtime trap is reachable.
    let c = catalog(100);
    let plan = PlanBuilder::scan(&c, "t", &["id"])
        .project(vec![("q", col("id").div(col("id")))], "proj")
        .build()
        .unwrap();
    let a = analyze(&plan);
    match a.first_hazard() {
        Some(AnalysisError::DivByZeroReachable { lo, hi, .. }) => {
            assert_eq!((*lo, *hi), (0, 99));
        }
        other => panic!("expected DivByZeroReachable hazard, got {other:?}"),
    }
    // The sole hazard variant: verify's third phase rejects the plan.
    match verify(&plan, &ExecConfig::fixed_default()) {
        Err(VerifyError::Analysis {
            err: AnalysisError::DivByZeroReachable { .. },
        }) => {}
        other => panic!("expected analysis rejection, got {other:?}"),
    }
    // So does `lower`, in every build, before any operator exists: a
    // release `lower` used to build the plan, which then trapped on its
    // first chunk.
    let ctx = QueryContext::new(Arc::new(build_dictionary()), ExecConfig::fixed_default());
    match lower(&plan, &ctx) {
        Err(ExecError::Plan(m)) => assert!(m.starts_with("analysis: "), "{m}"),
        Err(other) => panic!("expected ExecError::Plan, got {other:?}"),
        Ok(_) => panic!("lowered a plan with a reachable division by zero"),
    }
    assert!(ctx.reports().is_empty(), "an operator was built");
}

#[test]
fn filter_excluding_zero_discharges_the_division_hazard() {
    // The same division becomes safe once a filter proves the divisor
    // interval excludes zero — the narrowing must reach the projection.
    let c = catalog(100);
    let plan = PlanBuilder::scan(&c, "t", &["id"])
        .filter(
            NamedPred::cmp_val("id", CmpKind::Ge, Value::I64(1)),
            "nonzero",
        )
        .project(vec![("q", col("id").div(col("id")))], "proj")
        .build()
        .unwrap();
    let a = analyze(&plan);
    assert!(a.errors.is_empty(), "expected clean, got {:?}", a.errors);
    verify(&plan, &ExecConfig::fixed_default()).unwrap();
}

#[test]
fn contradictory_range_predicate_is_reported() {
    // k < 2 AND k > 3 empties the column's interval: no row can pass.
    let c = catalog(100);
    let plan = PlanBuilder::scan(&c, "t", &["k"])
        .filter(
            NamedPred::And(vec![
                NamedPred::cmp_val("k", CmpKind::Lt, Value::I32(2)),
                NamedPred::cmp_val("k", CmpKind::Gt, Value::I32(3)),
            ]),
            "contra",
        )
        .hash_agg(&["k"], vec![count()], "agg")
        .build()
        .unwrap();
    let a = analyze(&plan);
    match &a.errors[..] {
        [AnalysisError::ContradictionPred { column, .. }] => assert_eq!(column, "k"),
        other => panic!("expected one ContradictionPred, got {other:?}"),
    }
    // A contradiction is legal SQL (it returns zero rows): warning only,
    // and the derived row bound collapses to zero.
    assert!(a.errors.iter().all(|e| !e.is_hazard()));
    assert_eq!(a.facts.rows, 0);
    verify(&plan, &ExecConfig::fixed_default()).unwrap();
}

#[test]
fn comparisons_past_an_i64_extreme_are_contradictions() {
    // No i64 exceeds i64::MAX or undercuts i64::MIN: the interval is empty,
    // not the saturated single value at the extreme.
    let c = catalog(100);
    for (op, v) in [(CmpKind::Gt, i64::MAX), (CmpKind::Lt, i64::MIN)] {
        let plan = PlanBuilder::scan(&c, "t", &["id"])
            .filter(NamedPred::cmp_val("id", op, Value::I64(v)), "extreme")
            .build()
            .unwrap();
        let a = analyze(&plan);
        match &a.errors[..] {
            [AnalysisError::ContradictionPred { column, .. }] => assert_eq!(column, "id"),
            other => panic!("{op:?} {v}: expected one ContradictionPred, got {other:?}"),
        }
        assert_eq!(a.facts.rows, 0);
    }
}

#[test]
fn every_error_variant_displays_its_context() {
    // Display output is what `repro analyze` and verify failures print —
    // each variant must name the node it fired in.
    let c = catalog(100);
    let over = PlanBuilder::scan(&c, "t", &["id"])
        .project(vec![("w", col("id").add(lit_i64(i64::MAX)))], "po")
        .build()
        .unwrap();
    let text = format!("{}", analyze(&over).errors[0]);
    assert!(text.contains("po"), "missing context: {text}");
    let div = PlanBuilder::scan(&c, "t", &["id"])
        .project(vec![("q", col("id").div(col("id")))], "dz")
        .build()
        .unwrap();
    let text = format!("{}", analyze(&div).errors[0]);
    assert!(text.contains("dz"), "missing context: {text}");
}
