//! Negative suite for the memory/cost pass: each [`CostFinding`] variant
//! is produced by a purpose-built plan-plus-budget pair, each negative
//! test has a positive twin proving the finding discharges once the
//! budget covers the proven peak, and the roll-up finding is pinned to
//! fire at the *exact* byte threshold — mirroring `analyze_negative.rs`
//! for the abstract-interpretation pass.
//!
//! Budget findings are reports, never rejections: `repro analyze` and
//! `repro mem` print them and gate their exit codes on an explicit
//! `--budget`, while `verify` accepts an over-budget plan.

use std::collections::HashMap;
use std::sync::Arc;

use ma_executor::config::DEFAULT_MEMORY_BUDGET;
use ma_executor::cost::report;
use ma_executor::plan::{asc, sum_i64, LogicalPlan, PlanBuilder};
use ma_executor::{plan_physical, verify, CostFinding, CostReport, ExecConfig};
use ma_vector::{ColumnBuilder, DataType, Table};

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

/// Aggregate-then-sort: two stages with nonzero proven bounds, so a
/// budget can sit *between* the largest single stage and the roll-up.
fn agg_sort_plan(c: &HashMap<String, Arc<Table>>) -> LogicalPlan {
    PlanBuilder::scan(c, "t", &["id", "k"])
        .hash_agg(&["k"], vec![sum_i64("id")], "agg")
        .sort(&[asc("k")])
        .build()
        .unwrap()
}

/// `plan` planned under the default configuration and priced against
/// `budget`.
fn priced(plan: &LogicalPlan, budget: u64) -> CostReport {
    report(
        &plan_physical(plan, &ExecConfig::fixed_default()).unwrap(),
        budget,
    )
}

/// The baseline report under an effectively-unlimited budget, plus the
/// largest single-stage bound. Asserts the preconditions every test
/// below leans on: a finite nonzero peak spread over more than one
/// resident stage.
fn baseline(plan: &LogicalPlan) -> (u64, u64) {
    let report = priced(plan, DEFAULT_MEMORY_BUDGET);
    assert!(report.findings.is_empty(), "baseline must fit 1 GiB");
    let max_op = report.ops.iter().map(|o| o.bytes).max().unwrap_or(0);
    assert!(max_op > 0, "plan must have a resident stage");
    assert!(
        max_op < report.peak_bytes,
        "plan must spread bytes over >1 stage (max {max_op}, peak {})",
        report.peak_bytes
    );
    (report.peak_bytes, max_op)
}

#[test]
fn rollup_over_budget_reports_budget_exceeded_only() {
    // Budget covers every individual stage but not their sum: the
    // roll-up finding fires alone, with the exact proven numbers.
    let c = catalog(1000);
    let plan = agg_sort_plan(&c);
    let (peak, max_op) = baseline(&plan);
    let budget = peak - 1;
    assert!(budget >= max_op, "budget must still cover each stage");
    let report = priced(&plan, budget);
    assert_eq!(
        report.findings,
        vec![CostFinding::BudgetExceeded {
            peak_bytes: peak,
            budget
        }],
        "expected exactly the roll-up finding"
    );
}

#[test]
fn single_stage_over_budget_names_the_offender() {
    // Budget below the largest single stage: that stage is called out
    // by label (alongside the implied roll-up finding — the sum always
    // dominates any one term).
    let c = catalog(1000);
    let plan = agg_sort_plan(&c);
    let (_, max_op) = baseline(&plan);
    let report = priced(&plan, max_op - 1);
    let offender = report
        .findings
        .iter()
        .find_map(|f| match f {
            CostFinding::OpBudgetExceeded { label, bytes, .. } => Some((label.clone(), *bytes)),
            _ => None,
        })
        .expect("expected an OpBudgetExceeded finding");
    assert_eq!(offender.1, max_op);
    let labelled = report.ops.iter().any(|o| o.label == offender.0);
    assert!(labelled, "finding label {:?} must name a stage", offender.0);
    assert!(
        report
            .findings
            .iter()
            .any(|f| matches!(f, CostFinding::BudgetExceeded { .. })),
        "roll-up finding must accompany a per-stage breach"
    );
}

#[test]
fn raising_the_budget_discharges_every_finding() {
    // Positive twin: the same plan under a budget equal to the proven
    // peak is clean — findings fire on strict excess only — and one byte
    // less is the roll-up finding with the exact proven numbers. Pinning
    // the boundary keeps the comparison honest (no off-by-one slack
    // creeping into the gate).
    let c = catalog(1000);
    let plan = agg_sort_plan(&c);
    let (peak, _) = baseline(&plan);
    let at = priced(&plan, peak);
    assert!(at.findings.is_empty(), "got {:?}", at.findings);
    assert_eq!(
        priced(&plan, peak - 1).findings,
        vec![CostFinding::BudgetExceeded {
            peak_bytes: peak,
            budget: peak - 1
        }]
    );
}

#[test]
fn default_mode_demotes_budget_findings_to_warnings() {
    // The same over-budget plan still verifies: the finding is advisory,
    // surfaced by the analyze/mem CLIs.
    let c = catalog(1000);
    let plan = agg_sort_plan(&c);
    let (peak, _) = baseline(&plan);
    assert!(!priced(&plan, peak - 1).findings.is_empty());
    verify(&plan, &ExecConfig::fixed_default()).unwrap();
}

#[test]
fn every_finding_variant_displays_its_numbers() {
    // Display output is what `repro analyze --budget` prints — each
    // variant must carry the offending label/figures, human-readable.
    let c = catalog(1000);
    let plan = agg_sort_plan(&c);
    let (_, max_op) = baseline(&plan);
    let report = priced(&plan, max_op - 1);
    for f in &report.findings {
        let text = format!("{f}");
        assert!(
            text.contains("memory budget"),
            "finding must mention the budget: {text}"
        );
        if let CostFinding::OpBudgetExceeded { label, .. } = f {
            assert!(text.contains(label.as_str()), "missing label: {text}");
        }
    }
}
