//! Negative suite for the plan-invariant verifier: hand-built ill-formed
//! logical and physical plans, each rejected with its *specific* typed
//! [`VerifyError`] variant.
//!
//! The [`PlanBuilder`] API and the physical planner make these shapes
//! unreachable — which is exactly why the verifier must be tested against
//! hand-built [`LogicalPlan`] / [`PhysicalPlan`] values: it is the safety
//! net for plan *producers other than the builder and the planner*
//! (future optimizer rewrites, deserialized plans, test rigs) and for
//! regressions in either.

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::Arc;

use ma_executor::ops::{Agg, ProjItem, SortKey};
use ma_executor::plan::lit_i64;
use ma_executor::plan::PlanBuilder;
use ma_executor::{
    plan_physical, verify, verify_physical, CmpKind, Exchange, ExecConfig, Expr, LogicalPlan,
    PhysicalPlan, Pred, Value, VerifyError,
};
use ma_vector::{ColumnBuilder, DataType, Field, Schema, Table};

fn catalog(rows: usize) -> HashMap<String, Arc<Table>> {
    let mut id = ColumnBuilder::with_capacity(DataType::I64, rows);
    let mut k = ColumnBuilder::with_capacity(DataType::I32, rows);
    let mut f = ColumnBuilder::with_capacity(DataType::F64, rows);
    let mut s = ColumnBuilder::with_capacity(DataType::Str, rows);
    for i in 0..rows {
        id.push_i64(i as i64);
        k.push_i32((i % 5) as i32);
        f.push_f64(i as f64);
        s.push_str(if i % 2 == 0 { "even" } else { "odd" });
    }
    let t = Arc::new(
        Table::new(
            "t",
            vec![
                ("id".into(), id.finish()),
                ("k".into(), k.finish()),
                ("f".into(), f.finish()),
                ("s".into(), s.finish()),
            ],
        )
        .unwrap(),
    );
    let mut c = HashMap::new();
    c.insert("t".to_string(), t);
    c
}

fn cfg() -> ExecConfig {
    ExecConfig::fixed_default()
}

/// A well-formed scan over (id:i64, k:i32, f:f64) to graft bad nodes onto.
fn base_scan(c: &HashMap<String, Arc<Table>>) -> LogicalPlan {
    PlanBuilder::scan(c, "t", &["id", "k", "f"])
        .build()
        .unwrap()
}

fn filter_all(input: LogicalPlan, label: &str) -> LogicalPlan {
    let schema = input.schema().clone();
    LogicalPlan::Filter {
        input: Box::new(input),
        pred: Pred::cmp_val(0, ma_executor::CmpKind::Ge, ma_executor::Value::I64(0)),
        label: label.to_string(),
        schema,
    }
}

// ---------------------------------------------------------------------------
// logical-walk rejections (hand-built LogicalPlans)
// ---------------------------------------------------------------------------

/// Labels are display names: two filters both labelled `dup` verify, run,
/// and keep their statistics apart — one merged report per node, keyed by
/// its `NodeId`.
#[test]
fn duplicate_labels_verify_and_report_apart() {
    let c = catalog(100);
    let plan = filter_all(filter_all(base_scan(&c), "dup"), "dup");
    verify(&plan, &cfg()).unwrap();
    let ctx = ma_executor::QueryContext::new(Arc::new(ma_primitives::build_dictionary()), cfg());
    let mut op = ma_executor::lower(&plan, &ctx).unwrap();
    let rows = ma_executor::ops::total_rows(&ma_executor::ops::collect(op.as_mut()).unwrap());
    assert_eq!(rows, 100);
    drop(op);
    let merged = ctx.merged_reports();
    let shape: Vec<_> = merged
        .iter()
        .map(|r| (r.slot.key.node.0, r.label.as_str(), r.tuples))
        .collect();
    // The outer filter is node 0, the inner one node 1. The inner one's
    // conjunct is owned by the scan beneath it, which admits every chunk
    // (`id`'s zones lie inside `id >= 0`), so its instance sees no tuple.
    assert_eq!(
        shape,
        [
            (0, "dup/sel_ge_i64_col_val", 100),
            (1, "dup/sel_ge_i64_col_val", 0)
        ]
    );
}

/// A merge join whose input's key does not trace to the clustering
/// column (and has no sort) cannot prove sortedness.
#[test]
fn unsorted_merge_input_rejected() {
    let c = catalog(100);
    let left = base_scan(&c);
    let right = base_scan(&c);
    let schema = Schema::new(vec![
        Field::new("id", DataType::I64),
        Field::new("k", DataType::I32),
        Field::new("f", DataType::F64),
        Field::new("lk", DataType::I32),
    ]);
    let plan = LogicalPlan::MergeJoin {
        left: Box::new(left),
        right: Box::new(right),
        // Column 1 ("k") is not the clustering (first) column on either
        // side: sortedness is unprovable.
        left_key: 1,
        right_key: 1,
        payload: vec![1],
        label: "mj".to_string(),
        schema,
    };
    match verify(&plan, &cfg()) {
        Err(VerifyError::Invalid { context, reason }) => {
            assert_eq!(context, "merge join \"mj\"");
            assert!(
                reason.starts_with("left merge-join input is not sorted by the join key"),
                "{reason}"
            );
        }
        other => panic!("expected Invalid, got {other:?}"),
    }
}

/// A merge input sorted by the right key but *descending* gets its own
/// diagnosis (the shape is right, the direction fatal).
#[test]
fn descending_merge_key_rejected() {
    let c = catalog(100);
    let left = base_scan(&c);
    let sort_schema = left.schema().clone();
    let left_sorted = LogicalPlan::Sort {
        input: Box::new(left),
        keys: vec![SortKey::desc(0)],
        limit: None,
        schema: sort_schema,
    };
    let right = base_scan(&c);
    let schema = Schema::new(vec![
        Field::new("id", DataType::I64),
        Field::new("k", DataType::I32),
        Field::new("f", DataType::F64),
        Field::new("lk", DataType::I32),
    ]);
    let plan = LogicalPlan::MergeJoin {
        left: Box::new(left_sorted),
        right: Box::new(right),
        left_key: 0,
        right_key: 0,
        payload: vec![1],
        label: "mj".to_string(),
        schema,
    };
    match verify(&plan, &cfg()) {
        Err(VerifyError::Invalid { reason, .. }) => {
            assert!(reason.starts_with("left merge-join input"), "{reason}");
            assert!(reason.contains("descending"), "{reason}");
        }
        other => panic!("expected Invalid, got {other:?}"),
    }
}

/// An f64 group key is rejected as a typed error at verify time — not as
/// a key-normalization panic on a worker thread at execution time.
#[test]
fn float_group_key_rejected() {
    let c = catalog(100);
    let plan = LogicalPlan::HashAgg {
        input: Box::new(base_scan(&c)),
        keys: vec![2], // "f": f64
        aggs: vec![Agg::count()],
        label: "agg".to_string(),
        schema: Schema::new(vec![
            Field::new("f", DataType::F64),
            Field::new("n", DataType::I64),
        ]),
    };
    match verify(&plan, &cfg()) {
        Err(VerifyError::TypeMismatch { context, found, .. }) => {
            assert_eq!(found, DataType::F64);
            assert!(context.contains("group key"), "{context}");
        }
        other => panic!("expected TypeMismatch, got {other:?}"),
    }
}

/// An `i64` aggregate over an `i32` column: the operator reads its input
/// with `as_i64()`, so the verifier must be exactly as strict (it used to
/// accept any integer width and leave the panic to a worker thread).
#[test]
fn aggregates_the_operators_reject_are_rejected() {
    let c = catalog(100);
    let out = |name: &str| Field::new(name, DataType::I64);
    let grouped = |agg: Agg| LogicalPlan::HashAgg {
        input: Box::new(base_scan(&c)),
        keys: vec![0],
        aggs: vec![agg],
        label: "agg".to_string(),
        schema: Schema::new(vec![out("id"), out("a")]),
    };
    let stream = LogicalPlan::StreamAgg {
        input: Box::new(base_scan(&c)),
        aggs: vec![Agg::max_i64(1)],
        label: "agg".to_string(),
        schema: Schema::new(vec![out("a")]),
    };
    for plan in [grouped(Agg::sum_i64(1)), grouped(Agg::min_i64(1)), stream] {
        match verify(&plan, &cfg()) {
            Err(VerifyError::TypeMismatch { found, .. }) => assert_eq!(found, DataType::I32),
            other => panic!("expected TypeMismatch, got {other:?}"),
        }
    }
    // The exact type passes, an index past the schema is out of range.
    verify(&grouped(Agg::sum_i64(0)), &cfg()).unwrap();
    match verify(&grouped(Agg::sum_i64(9)), &cfg()) {
        Err(VerifyError::ColumnOutOfRange { col: 9, .. }) => {}
        other => panic!("expected ColumnOutOfRange, got {other:?}"),
    }
}

/// A left-single join fills unmatched tuples with numeric defaults only.
/// A `str` payload with a `str` default used to pass `verify` and the
/// prober and then panic on the first probe chunk; the builder always
/// rejected it, and now `verify` and the planner do too. The prober's own
/// guard is pinned by `ops::hash_join`'s unit tests.
#[test]
fn left_single_str_payload_rejected() {
    let c = catalog(100);
    let build = PlanBuilder::scan(&c, "t", &["id as bid", "s as bs"])
        .build()
        .unwrap();
    let plan = LogicalPlan::HashJoin {
        build: Box::new(build),
        probe: Box::new(base_scan(&c)),
        build_keys: vec![0],
        probe_keys: vec![0],
        payload: vec![1],
        kind: ma_executor::ops::JoinKind::LeftSingle,
        bloom: false,
        defaults: vec![Value::Str("none".into())],
        label: "ls".to_string(),
        schema: Schema::new(vec![
            Field::new("id", DataType::I64),
            Field::new("k", DataType::I32),
            Field::new("f", DataType::F64),
            Field::new("bs", DataType::Str),
        ]),
    };
    // Planned and built without the verifier.
    let ctx = ma_executor::QueryContext::new(Arc::new(ma_primitives::build_dictionary()), cfg());
    match plan_physical(&plan, &cfg()).and_then(|phys| ma_executor::instantiate(&phys, &ctx)) {
        Err(ma_executor::ExecError::Plan(m)) => {
            assert!(m.starts_with("hash join \"ls\": "), "{m}");
            assert!(m.contains("numeric"), "{m}");
        }
        Err(other) => panic!("expected ExecError::Plan, got {other:?}"),
        Ok(mut op) => {
            // Running it would panic on the first probe chunk.
            let _ = ma_executor::ops::collect(op.as_mut());
            panic!("built a str left-single payload");
        }
    }
    match verify(&plan, &cfg()) {
        Err(VerifyError::TypeMismatch { context, found, .. }) => {
            assert_eq!(found, DataType::Str);
            assert!(context.contains("left-single payload"), "{context}");
        }
        other => panic!("expected TypeMismatch, got {other:?}"),
    }
}

/// A merge join whose left input is sorted by another column than the
/// join key. `verify` and the builder always rejected it, but
/// `plan_physical` planned any sort input, so a release `lower` (which
/// then skipped `verify`) ran it and the merge dropped matches. All three
/// now share one merge-input rule.
#[test]
fn merge_over_a_sort_on_another_column_has_no_physical_plan() {
    let c = catalog(100);
    let left = base_scan(&c);
    let sort_schema = left.schema().clone();
    let plan = LogicalPlan::MergeJoin {
        left: Box::new(LogicalPlan::Sort {
            input: Box::new(left),
            keys: vec![SortKey::asc(1)], // `k`, not the join key `id`
            limit: None,
            schema: sort_schema,
        }),
        right: Box::new(base_scan(&c)),
        left_key: 0,
        right_key: 0,
        payload: vec![],
        label: "mj".to_string(),
        schema: base_scan(&c).schema().clone(),
    };
    match plan_physical(&plan, &cfg()) {
        Err(ma_executor::ExecError::Plan(m)) => {
            assert!(m.starts_with("merge join \"mj\": "), "{m}");
            assert!(
                m.contains("left merge-join input is not sorted by the join key"),
                "{m}"
            );
        }
        Err(other) => panic!("expected ExecError::Plan, got {other:?}"),
        Ok(_) => panic!("planned a merge join over a sort on another column"),
    }
    match verify(&plan, &cfg()) {
        Err(VerifyError::Invalid { reason, .. }) => {
            assert!(reason.contains("not sorted by the join key"), "{reason}");
        }
        other => panic!("expected Invalid, got {other:?}"),
    }
    let built = PlanBuilder::scan(&c, "t", &["id", "k", "f"])
        .merge_join(
            PlanBuilder::scan(&c, "t", &["id as lid", "k as lk"])
                .sort(&[ma_executor::plan::asc("lk")]),
            ("id", "lid"),
            &[],
            "mj",
        )
        .build();
    match built {
        Err(ma_executor::PlanError::Invalid(m)) => {
            assert!(m.contains("not sorted by the join key"), "{m}");
        }
        other => panic!("expected PlanError::Invalid, got {other:?}"),
    }
}

/// A hash aggregation without group keys: the builder and the operator
/// always refused it, while `verify` passed it on to a `lower` that
/// failed with "HashAggregate requires group columns".
#[test]
fn hash_agg_without_keys_rejected() {
    let c = catalog(100);
    let plan = LogicalPlan::HashAgg {
        input: Box::new(base_scan(&c)),
        keys: vec![],
        aggs: vec![Agg::count()],
        label: "agg".to_string(),
        schema: Schema::new(vec![Field::new("n", DataType::I64)]),
    };
    match verify(&plan, &cfg()) {
        Err(VerifyError::Invalid { context, reason }) => {
            assert_eq!(context, "hash aggregation \"agg\"");
            assert!(reason.contains("group keys"), "{reason}");
        }
        other => panic!("expected Invalid, got {other:?}"),
    }
}

/// A semi join with a build payload: the builder always refused it,
/// while `verify` derived the probe columns only, accepted it, and the
/// join ran with the payload silently ignored.
#[test]
fn semi_join_with_payload_rejected() {
    let c = catalog(100);
    let build = || PlanBuilder::scan(&c, "t", &["id as bid", "k as bk"]);
    let probe = base_scan(&c);
    let schema = probe.schema().clone();
    let plan = LogicalPlan::HashJoin {
        build: Box::new(build().build().unwrap()),
        probe: Box::new(probe),
        build_keys: vec![0],
        probe_keys: vec![0],
        payload: vec![1],
        kind: ma_executor::ops::JoinKind::Semi,
        bloom: false,
        defaults: vec![],
        label: "semi".to_string(),
        schema,
    };
    match verify(&plan, &cfg()) {
        Err(VerifyError::Invalid { context, reason }) => {
            assert_eq!(context, "hash join \"semi\"");
            assert!(reason.contains("payload is not allowed"), "{reason}");
        }
        other => panic!("expected Invalid, got {other:?}"),
    }
    let built = PlanBuilder::scan(&c, "t", &["id", "k", "f"])
        .hash_join(
            build(),
            &[("id", "bid")],
            &["bk"],
            ma_executor::ops::JoinKind::Semi,
            false,
            "semi",
        )
        .build();
    assert!(
        matches!(built, Err(ma_executor::PlanError::Invalid(_))),
        "{built:?}"
    );
}

/// A node whose declared output schema disagrees with what its inputs
/// derive is caught before any operator would act on the wrong types.
#[test]
fn declared_schema_mismatch_rejected() {
    let c = catalog(100);
    let plan = LogicalPlan::Project {
        input: Box::new(base_scan(&c)),
        items: vec![ProjItem::Pass(0)],
        label: "proj".to_string(),
        // Declares i32 for a passed-through i64 column.
        schema: Schema::new(vec![Field::new("id", DataType::I32)]),
    };
    match verify(&plan, &cfg()) {
        Err(VerifyError::SchemaMismatch { .. }) => {}
        other => panic!("expected SchemaMismatch, got {other:?}"),
    }
    // The planner owns the check, so no `lower` runs the plan: it used to
    // plan, build and return 100 rows read as i32.
    let want = "project \"proj\": declared schema (i32) but derived (i64)";
    match plan_physical(&plan, &cfg()) {
        Err(ma_executor::ExecError::Plan(m)) => assert_eq!(m, want),
        Err(other) => panic!("expected ExecError::Plan, got {other:?}"),
        Ok(_) => panic!("planned a mis-declared projection"),
    }
    let ctx = ma_executor::QueryContext::new(Arc::new(ma_primitives::build_dictionary()), cfg());
    match ma_executor::lower(&plan, &ctx) {
        Err(ma_executor::ExecError::Plan(m)) => assert_eq!(m, want),
        Err(other) => panic!("expected ExecError::Plan, got {other:?}"),
        Ok(_) => panic!("lowered a mis-declared projection"),
    }
}

/// A predicate referencing a column beyond its input's arity.
#[test]
fn column_out_of_range_rejected() {
    let c = catalog(100);
    let scan = base_scan(&c);
    let schema = scan.schema().clone();
    let plan = LogicalPlan::Filter {
        input: Box::new(scan),
        pred: Pred::cmp_val(9, ma_executor::CmpKind::Ge, ma_executor::Value::I64(0)),
        label: "sel".to_string(),
        schema,
    };
    match verify(&plan, &cfg()) {
        Err(VerifyError::ColumnOutOfRange {
            col: 9, arity: 3, ..
        }) => {}
        other => panic!("expected ColumnOutOfRange, got {other:?}"),
    }
}

/// Phase 1 types expressions and predicates with the builder's own pass,
/// so it is exactly as strict as the evaluator: each of these plans got
/// `Ok` from a verifier with typing rules of its own and then failed in
/// `instantiate`.
#[test]
fn predicates_the_evaluator_rejects_are_rejected() {
    let c = catalog(100);
    let scan = || {
        PlanBuilder::scan(&c, "t", &["id", "k", "f", "s"])
            .build()
            .unwrap()
    };
    let filter = |pred: Pred| {
        let input = scan();
        let schema = input.schema().clone();
        LogicalPlan::Filter {
            input: Box::new(input),
            pred,
            label: "sel".to_string(),
            schema,
        }
    };
    let mismatch = |pred: Pred, found: DataType| match verify(&filter(pred), &cfg()) {
        Err(VerifyError::TypeMismatch {
            context, found: f, ..
        }) => {
            assert!(context.starts_with("filter \"sel\": "), "{context}");
            assert_eq!(f, found, "{context}");
        }
        other => panic!("expected TypeMismatch, got {other:?}"),
    };
    // A numeric constant of another width than its column.
    mismatch(Pred::cmp_val(1, CmpKind::Lt, Value::I64(3)), DataType::I64);
    // An ordering comparison on a string column.
    mismatch(
        Pred::cmp_val(3, CmpKind::Lt, Value::Str("m".into())),
        DataType::Str,
    );
    // A string column compared with a column.
    mismatch(Pred::cmp_col(3, CmpKind::Eq, 3), DataType::Str);
    // An empty conjunction.
    match verify(&filter(Pred::And(vec![])), &cfg()) {
        Err(VerifyError::Invalid { .. }) => {}
        other => panic!("expected Invalid, got {other:?}"),
    }
}

#[test]
fn expressions_the_evaluator_rejects_are_rejected() {
    let c = catalog(100);
    let project = |e: Expr, ty: DataType| LogicalPlan::Project {
        input: Box::new(base_scan(&c)),
        items: vec![ProjItem::Expr(e)],
        label: "proj".to_string(),
        schema: Schema::new(vec![Field::new("x", ty)]),
    };
    // Narrowing and identity casts.
    for to in [DataType::I32, DataType::I64] {
        match verify(&project(Expr::Col(0).cast(to), to), &cfg()) {
            Err(VerifyError::TypeMismatch {
                found: DataType::I64,
                ..
            }) => {}
            other => panic!("expected TypeMismatch, got {other:?}"),
        }
    }
    // A constant as the left operand of arithmetic, and as a bare
    // projection.
    for e in [lit_i64(1).sub(Expr::Col(0)), lit_i64(1)] {
        match verify(&project(e, DataType::I64), &cfg()) {
            Err(VerifyError::Invalid { context, .. }) => {
                assert_eq!(context, "project \"proj\"");
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// physical-plan rejections (planner output, mutated by hand)
// ---------------------------------------------------------------------------

/// Big enough that 4 workers shard the scans and partition the operators.
const BIG: usize = 100_000;

fn cfg4() -> ExecConfig {
    let mut cfg = cfg();
    cfg.worker_threads = 4;
    cfg
}

/// `t ⋈ t` on `k = id` (i32 probe key, i64 build key) over sharded scans:
/// under [`cfg4`] the join probes in the probe scan's 4 fragments (and its
/// build side shards on its own).
fn join_plan(c: &HashMap<String, Arc<Table>>) -> LogicalPlan {
    PlanBuilder::scan(c, "t", &["k", "s", "f"])
        .hash_join(
            PlanBuilder::scan(c, "t", &["id as bid", "k as bk"]),
            &[("k", "bid")],
            &["bk"],
            ma_executor::ops::JoinKind::Inner,
            false,
            "j",
        )
        .build()
        .unwrap()
}

/// A merge join over two clustering-key chains: both inputs run serially
/// under [`cfg4`] (no exchange, one fragment).
fn merge_plan(c: &HashMap<String, Arc<Table>>) -> LogicalPlan {
    PlanBuilder::scan(c, "t", &["id", "s"])
        .merge_join(
            PlanBuilder::scan(c, "t", &["id as lid", "k as lk"]),
            ("id", "lid"),
            &["lk"],
            "mj",
        )
        .build()
        .unwrap()
}

/// An arrival-order exchange under an order-sensitive ancestor would
/// interleave worker streams and break the merge contract: this rule is
/// what keeps a clustering-key merge-join input serial.
#[test]
fn parallel_under_ordered_ancestor_rejected() {
    let c = catalog(BIG);
    let plan = merge_plan(&c);
    let mut phys = plan_physical(&plan, &cfg4()).unwrap();
    verify_physical(&phys).unwrap();
    assert_eq!(phys.root.children[1].exchange, Exchange::None);
    phys.root.children[1].exchange = Exchange::Parallel {
        workers: NonZeroUsize::new(4).unwrap(),
        chunk_bytes: 0,
    };
    match verify_physical(&phys) {
        Err(VerifyError::OrderViolation { node: "Parallel" }) => {}
        other => panic!("expected OrderViolation, got {other:?}"),
    }
}

/// Same for a partitioned exchange — unless a materialization boundary
/// (sort, aggregate, join build) resets the order requirement first.
#[test]
fn partition_under_ordered_ancestor_rejected_unless_materialized() {
    let c = catalog(BIG);
    // A partitioned aggregate, re-sorted, feeding a merge join: legal.
    let plan = PlanBuilder::scan(&c, "t", &["id", "k"])
        .hash_agg(&["id"], vec![ma_executor::plan::count()], "agg")
        .sort(&[ma_executor::plan::asc("id")])
        .merge_join(
            PlanBuilder::scan(&c, "t", &["id as lid", "k as lk"]),
            ("id", "lid"),
            &["lk"],
            "mj",
        )
        .build()
        .unwrap();
    let mut phys = plan_physical(&plan, &cfg4()).unwrap();
    let sort = &mut phys.root.children[1];
    assert!(matches!(
        sort.children[0].exchange,
        Exchange::HashPartition { partitions, .. } if partitions.get() == 4
    ));
    verify_physical(&phys).unwrap();
    // Splice the Sort out: the identical partitioned subtree, now directly
    // under the merge join.
    let agg = phys.root.children[1].children.remove(0);
    phys.root.children[1] = agg;
    match verify_physical(&phys) {
        Err(VerifyError::OrderViolation {
            node: "HashPartition",
        }) => {}
        other => panic!("expected OrderViolation, got {other:?}"),
    }
}

/// Only hash aggregates have a partitioned form: a partitioning exchange
/// on any other node is rejected — by the verifier and by `instantiate`
/// (a hand-built plan need not pass the verifier) — instead of quietly
/// running that node unpartitioned.
#[test]
fn partitioning_a_non_aggregate_rejected() {
    let c = catalog(BIG);
    let plan = join_plan(&c);
    let mut phys = plan_physical(&plan, &cfg4()).unwrap();
    phys.root.exchange = Exchange::HashPartition {
        partitions: NonZeroUsize::new(4).unwrap(),
        producers: NonZeroUsize::MIN,
        chunk_bytes: 0,
    };
    match verify_physical(&phys) {
        Err(VerifyError::PartitionedNonAggregate { node: 0 }) => {}
        other => panic!("expected PartitionedNonAggregate, got {other:?}"),
    }
    let ctx = ma_executor::QueryContext::new(Arc::new(ma_primitives::build_dictionary()), cfg4());
    match ma_executor::instantiate(&phys, &ctx) {
        Err(ma_executor::ExecError::Plan(_)) => {}
        Err(other) => panic!("expected ExecError::Plan, got {other:?}"),
        Ok(_) => panic!("a join cannot run partitioned"),
    }
}

// ---------------------------------------------------------------------------
// fragment rules (joins probing inside a sharded chain's fragments)
// ---------------------------------------------------------------------------

/// `join_plan` under [`cfg4`]: the root join tops the probe scan's chain
/// (`Parallel ×4`, 4 fragments down to the probe scan) and its build child
/// is a sharded scan of its own.
fn in_fragment_join<'a>(plan: &'a LogicalPlan) -> PhysicalPlan<'a> {
    let phys = plan_physical(plan, &cfg4()).unwrap();
    verify_physical(&phys).unwrap();
    let four = |e: &Exchange| matches!(e, Exchange::Parallel { workers, .. } if workers.get() == 4);
    let root = &phys.root;
    assert!(four(&root.exchange) && four(&root.children[0].exchange));
    let fragments: Vec<usize> = phys.fragments().iter().map(|&(_, f)| f).collect();
    assert_eq!(fragments, [4, 4, 4]);
    phys
}

/// A fragment is one pipeline: nothing would unite the outputs of an
/// exchange nested on its probe path.
#[test]
fn exchange_inside_a_fragment_rejected() {
    let c = catalog(BIG);
    let plan = join_plan(&c);
    let mut phys = in_fragment_join(&plan);
    phys.root.children[1].exchange = Exchange::Parallel {
        workers: NonZeroUsize::new(4).unwrap(),
        chunk_bytes: 0,
    };
    match verify_physical(&phys) {
        Err(VerifyError::NestedExchange { node: "Parallel" }) => {}
        other => panic!("expected NestedExchange, got {other:?}"),
    }
}

/// What the verifier lets through, `instantiate` still refuses to build
/// wrong: a sharding exchange over a node that is not a scan chain (a
/// sort over an aggregate) is a typed error, never a panic.
#[test]
fn sharding_a_non_chain_is_a_typed_instantiate_error() {
    let c = catalog(BIG);
    let plan = PlanBuilder::scan(&c, "t", &["id", "k"])
        .hash_agg(&["id"], vec![ma_executor::plan::count()], "agg")
        .sort(&[ma_executor::plan::asc("id")])
        .build()
        .unwrap();
    let mut phys = plan_physical(&plan, &cfg4()).unwrap();
    phys.root.exchange = Exchange::Parallel {
        workers: NonZeroUsize::new(4).unwrap(),
        chunk_bytes: 0,
    };
    let ctx = ma_executor::QueryContext::new(Arc::new(ma_primitives::build_dictionary()), cfg4());
    match ma_executor::instantiate(&phys, &ctx) {
        Err(ma_executor::ExecError::Plan(_)) => {}
        Err(other) => panic!("expected ExecError::Plan, got {other:?}"),
        Ok(_) => panic!("a sort cannot compile into scan fragments"),
    }
}
