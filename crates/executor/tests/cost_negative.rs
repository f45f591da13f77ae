//! Negative suite for the memory/cost pass: each [`CostFinding`] variant
//! is produced by a purpose-built plan-plus-budget pair, each negative
//! test has a positive twin proving the finding discharges once the
//! budget covers the proven peak, and the strict-mode verdict is pinned
//! to flip at the *exact* byte threshold — mirroring
//! `analyze_negative.rs` for the abstract-interpretation pass.
//!
//! The severity split is pinned here too: budget findings are warnings
//! by default (`repro analyze` / `repro mem` surface them), and only
//! [`ExecConfig::with_strict_memory`] promotes them to a
//! [`VerifyError::MemoryBudget`] rejection.

use std::collections::HashMap;
use std::sync::Arc;

use ma_executor::plan::{asc, sum_i64, LogicalPlan, PlanBuilder};
use ma_executor::{
    cost, lower, verify, CostFinding, ExecConfig, ExecError, QueryContext, VerifyError,
};
use ma_primitives::build_dictionary;
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

/// The baseline report under an effectively-unlimited budget, plus the
/// largest single-stage bound. Asserts the preconditions every test
/// below leans on: a finite nonzero peak spread over more than one
/// resident stage.
fn baseline(plan: &LogicalPlan) -> (u64, u64) {
    let report = cost(plan, &ExecConfig::fixed_default());
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
    let report = cost(
        &plan,
        &ExecConfig::fixed_default().with_memory_budget(budget),
    );
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
    let budget = max_op - 1;
    let cfg = ExecConfig::fixed_default().with_memory_budget(budget);
    let report = cost(&plan, &cfg);
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
    // peak is clean — findings fire on strict excess only.
    let c = catalog(1000);
    let plan = agg_sort_plan(&c);
    let (peak, _) = baseline(&plan);
    let cfg = ExecConfig::fixed_default()
        .with_memory_budget(peak)
        .with_strict_memory(true);
    let report = cost(&plan, &cfg);
    assert!(report.findings.is_empty(), "got {:?}", report.findings);
    verify(&plan, &cfg).unwrap();
}

#[test]
fn strict_verdict_flips_exactly_at_the_proven_peak() {
    // budget == peak passes; one byte less is rejected with the exact
    // proven numbers. Pinning the boundary keeps the comparison honest
    // (no off-by-one slack creeping into the gate).
    let c = catalog(1000);
    let plan = agg_sort_plan(&c);
    let (peak, _) = baseline(&plan);
    let at = ExecConfig::fixed_default()
        .with_memory_budget(peak)
        .with_strict_memory(true);
    verify(&plan, &at).unwrap();
    let below = ExecConfig::fixed_default()
        .with_memory_budget(peak - 1)
        .with_strict_memory(true);
    match verify(&plan, &below) {
        Err(VerifyError::MemoryBudget { peak_bytes, budget }) => {
            assert_eq!(peak_bytes, peak);
            assert_eq!(budget, peak - 1);
        }
        other => panic!("expected MemoryBudget rejection, got {other:?}"),
    }
    // `lower` gates the same way in every build, before any operator
    // allocates.
    let ctx = |cfg: &ExecConfig| QueryContext::new(Arc::new(build_dictionary()), cfg.clone());
    lower(&plan, &ctx(&at)).unwrap();
    match lower(&plan, &ctx(&below)) {
        Err(ExecError::Plan(m)) => {
            let want = VerifyError::MemoryBudget {
                peak_bytes: peak,
                budget: peak - 1,
            };
            assert_eq!(m, want.to_string());
        }
        Err(other) => panic!("expected ExecError::Plan, got {other:?}"),
        Ok(_) => panic!("lowered a plan over its strict memory budget"),
    }
}

#[test]
fn default_mode_demotes_budget_findings_to_warnings() {
    // Without strict_memory the same over-budget plan still verifies:
    // the finding is advisory, surfaced by the analyze/mem CLIs.
    let c = catalog(1000);
    let plan = agg_sort_plan(&c);
    let (peak, _) = baseline(&plan);
    let cfg = ExecConfig::fixed_default().with_memory_budget(peak - 1);
    assert!(!cost(&plan, &cfg).findings.is_empty());
    verify(&plan, &cfg).unwrap();
}

#[test]
fn every_finding_variant_displays_its_numbers() {
    // Display output is what `repro analyze --budget` prints — each
    // variant must carry the offending label/figures, human-readable.
    let c = catalog(1000);
    let plan = agg_sort_plan(&c);
    let (_, max_op) = baseline(&plan);
    let cfg = ExecConfig::fixed_default().with_memory_budget(max_op - 1);
    let report = cost(&plan, &cfg);
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
