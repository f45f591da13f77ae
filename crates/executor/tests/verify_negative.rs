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

/// Two primitive-instantiating nodes sharing one stats label would merge
/// their adaptive statistics silently.
#[test]
fn duplicate_stats_label_rejected() {
    let c = catalog(100);
    let plan = filter_all(filter_all(base_scan(&c), "dup"), "dup");
    match verify(&plan, &cfg()) {
        Err(VerifyError::DuplicateLabel { label }) => assert_eq!(label, "dup"),
        other => panic!("expected DuplicateLabel, got {other:?}"),
    }
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
        Err(VerifyError::UnsortedMergeInput {
            side: "left",
            key: 1,
        }) => {}
        other => panic!("expected UnsortedMergeInput, got {other:?}"),
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
        Err(VerifyError::DescendingMergeKey {
            side: "left",
            key: 0,
        }) => {}
        other => panic!("expected DescendingMergeKey, got {other:?}"),
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
        Err(VerifyError::FloatPartitionKey { context }) => {
            assert!(context.contains("group key"), "{context}");
        }
        other => panic!("expected FloatPartitionKey, got {other:?}"),
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
        Err(VerifyError::InvalidExpression { .. }) => {}
        other => panic!("expected InvalidExpression, got {other:?}"),
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
            Err(VerifyError::InvalidExpression { context, .. }) => {
                assert_eq!(context, "project \"proj\"");
            }
            other => panic!("expected InvalidExpression, got {other:?}"),
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

/// `count(*) group by id` over the sharded scan of `(id, k, f)`: under
/// [`cfg4`] the root is a 4-way partitioned aggregate whose exchange the
/// scan's 4 fragments route into by `id`.
fn agg_plan(c: &HashMap<String, Arc<Table>>) -> LogicalPlan {
    PlanBuilder::scan(c, "t", &["id", "k", "f"])
        .hash_agg(&["id"], vec![ma_executor::plan::count()], "agg")
        .build()
        .unwrap()
}

/// The planner's physical plan of `plan` under [`cfg4`], checked to be
/// rooted in `HashPartition { partitions: 4, producers: 4, key_cols: [0] }`.
fn partitioned_root<'a>(plan: &'a LogicalPlan) -> PhysicalPlan<'a> {
    let phys = plan_physical(plan, &cfg4()).unwrap();
    verify_physical(&phys).unwrap();
    match &phys.root.exchange {
        Exchange::HashPartition {
            partitions: 4,
            producers: 4,
            key_cols,
            ..
        } => assert_eq!(*key_cols, [0]),
        other => panic!("expected a partitioned root, got {other:?}"),
    }
    phys
}

/// A merge join over two clustering-key chains: both inputs shard behind
/// merging exchanges under [`cfg4`].
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
/// interleave worker streams and break the merge contract.
#[test]
fn parallel_under_ordered_ancestor_rejected() {
    let c = catalog(BIG);
    let plan = merge_plan(&c);
    let mut phys = plan_physical(&plan, &cfg4()).unwrap();
    verify_physical(&phys).unwrap();
    phys.root.children[1].exchange = Exchange::Parallel {
        workers: 4,
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
        Exchange::HashPartition { partitions: 4, .. }
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

/// An f64 column does not hash-partition (±0.0, NaN bit patterns).
#[test]
fn float_lane_key_rejected() {
    let c = catalog(BIG);
    let plan = agg_plan(&c);
    let mut phys = partitioned_root(&plan);
    // Input column 2 is `f`.
    if let Exchange::HashPartition { key_cols, .. } = &mut phys.root.exchange {
        *key_cols = vec![2];
    }
    match verify_physical(&phys) {
        Err(VerifyError::FloatPartitionKey { context }) => {
            assert_eq!(context, "partition key 0");
        }
        other => panic!("expected FloatPartitionKey, got {other:?}"),
    }
}

/// An empty producer set closes the partition channels immediately and
/// silently yields empty partition streams.
#[test]
fn empty_lane_rejected() {
    let c = catalog(BIG);
    let plan = agg_plan(&c);
    let mut phys = partitioned_root(&plan);
    if let Exchange::HashPartition { producers, .. } = &mut phys.root.exchange {
        *producers = 0;
    }
    match verify_physical(&phys) {
        Err(VerifyError::EmptyExchange {
            node: "HashPartition",
        }) => {}
        other => panic!("expected EmptyExchange, got {other:?}"),
    }
}

/// Only hash aggregates have a partitioned form: a partitioning exchange
/// on any other node is rejected — by the verifier and by `instantiate`
/// (release builds skip the verifier) — instead of quietly running that
/// node unpartitioned.
#[test]
fn partitioning_a_non_aggregate_rejected() {
    let c = catalog(BIG);
    let plan = join_plan(&c);
    let mut phys = plan_physical(&plan, &cfg4()).unwrap();
    phys.root.exchange = Exchange::HashPartition {
        partitions: 4,
        producers: 1,
        key_cols: vec![0],
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

/// Non-integer merge keys cannot drive the K-way comparison.
#[test]
fn non_integer_merge_key_rejected() {
    let c = catalog(BIG);
    let plan = merge_plan(&c);
    let mut phys = plan_physical(&plan, &cfg4()).unwrap();
    // Right input is (id, s): merge on `s`.
    phys.root.children[1].exchange = Exchange::Merge {
        producers: 4,
        key: 1,
        chunk_bytes: 0,
    };
    match verify_physical(&phys) {
        Err(VerifyError::NonIntegerMergeKey { ty: DataType::Str }) => {}
        other => panic!("expected NonIntegerMergeKey, got {other:?}"),
    }
}

/// Degenerate exchanges (zero workers, producers or partitions) are
/// rejected outright.
#[test]
fn empty_exchange_rejected() {
    let c = catalog(BIG);
    let scan = PlanBuilder::scan(&c, "t", &["id"]).build().unwrap();
    let mut phys = plan_physical(&scan, &cfg4()).unwrap();
    assert!(matches!(
        phys.root.exchange,
        Exchange::Parallel { workers: 4, .. }
    ));
    phys.root.exchange = Exchange::Parallel {
        workers: 0,
        chunk_bytes: 0,
    };
    match verify_physical(&phys) {
        Err(VerifyError::EmptyExchange { node: "Parallel" }) => {}
        other => panic!("expected EmptyExchange, got {other:?}"),
    }
    let plan = merge_plan(&c);
    let mut phys = plan_physical(&plan, &cfg4()).unwrap();
    phys.root.children[0].exchange = Exchange::Merge {
        producers: 0,
        key: 0,
        chunk_bytes: 0,
    };
    match verify_physical(&phys) {
        Err(VerifyError::EmptyExchange { node: "Merge" }) => {}
        other => panic!("expected EmptyExchange, got {other:?}"),
    }
    let plan = agg_plan(&c);
    let mut phys = partitioned_root(&plan);
    if let Exchange::HashPartition { partitions, .. } = &mut phys.root.exchange {
        *partitions = 0;
    }
    match verify_physical(&phys) {
        Err(VerifyError::EmptyExchange {
            node: "HashPartition",
        }) => {}
        other => panic!("expected EmptyExchange, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// fragment rules (joins probing inside a sharded chain's fragments)
// ---------------------------------------------------------------------------

/// `join_plan` under [`cfg4`]: the root join tops the probe scan's chain
/// (`Parallel ×4`, `fragments = 4` down to the probe scan) and its build
/// child is a sharded scan of its own.
fn in_fragment_join<'a>(plan: &'a LogicalPlan) -> PhysicalPlan<'a> {
    let phys = plan_physical(plan, &cfg4()).unwrap();
    verify_physical(&phys).unwrap();
    let root = &phys.root;
    assert!(matches!(
        root.exchange,
        Exchange::Parallel { workers: 4, .. }
    ));
    assert_eq!((root.fragments, root.children[1].fragments), (4, 4));
    assert!(matches!(
        root.children[0].exchange,
        Exchange::Parallel { workers: 4, .. }
    ));
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
        workers: 4,
        chunk_bytes: 0,
    };
    match verify_physical(&phys) {
        Err(VerifyError::NestedExchange { node: "Parallel" }) => {}
        other => panic!("expected NestedExchange, got {other:?}"),
    }
    // Whatever its kind.
    let mut phys = in_fragment_join(&plan);
    phys.root.children[1].exchange = Exchange::Merge {
        producers: 4,
        key: 0,
        chunk_bytes: 0,
    };
    match verify_physical(&phys) {
        Err(VerifyError::NestedExchange { node: "Merge" }) => {}
        other => panic!("expected NestedExchange, got {other:?}"),
    }
}

/// `fragments` is what position implies, on every node: explain and the
/// translation validation read it as the prober count.
#[test]
fn fragment_count_must_match_position() {
    let c = catalog(BIG);
    let plan = join_plan(&c);
    // A stage claiming a different fan-out than the exchange above it.
    let mut phys = in_fragment_join(&plan);
    phys.root.children[1].fragments = 2;
    match verify_physical(&phys) {
        Err(VerifyError::FragmentCountMismatch {
            expected: 4,
            found: 2,
            ..
        }) => {}
        other => panic!("expected FragmentCountMismatch, got {other:?}"),
    }
    // A node outside any chain claiming to be a fragment stage.
    let agg = PlanBuilder::scan(&c, "t", &["id", "k"])
        .hash_agg(&["id"], vec![ma_executor::plan::count()], "agg")
        .build()
        .unwrap();
    let mut phys = plan_physical(&agg, &cfg4()).unwrap();
    verify_physical(&phys).unwrap();
    phys.root.fragments = 4;
    match verify_physical(&phys) {
        Err(VerifyError::FragmentCountMismatch {
            node: 0,
            expected: 1,
            found: 4,
        }) => {}
        other => panic!("expected FragmentCountMismatch, got {other:?}"),
    }
}

/// The build side of a join probing in the fragments runs once, outside
/// them: a build child marked as a stage of the fragments (and carrying no
/// exchange of its own) contradicts the one shared table.
#[test]
fn in_fragment_join_build_must_stay_outside() {
    let c = catalog(BIG);
    let plan = join_plan(&c);
    let mut phys = in_fragment_join(&plan);
    phys.root.children[0].exchange = Exchange::None;
    match verify_physical(&phys) {
        Err(VerifyError::BuildInsideFragment { label }) => assert_eq!(label, "j"),
        other => panic!("expected BuildInsideFragment, got {other:?}"),
    }
}

/// The K-way merge needs every fragment key-sorted; that is proven for
/// Filter/Project chains only, so a merging exchange must not top a chain
/// with a join in it.
#[test]
fn merge_over_a_join_chain_rejected() {
    let c = catalog(BIG);
    let plan = join_plan(&c);
    let mut phys = in_fragment_join(&plan);
    phys.root.exchange = Exchange::Merge {
        producers: 4,
        key: 0,
        chunk_bytes: 0,
    };
    match verify_physical(&phys) {
        Err(VerifyError::MergeOverJoin { label }) => assert_eq!(label, "j"),
        other => panic!("expected MergeOverJoin, got {other:?}"),
    }
    // `instantiate` refuses it too (release builds skip the verifier).
    let ctx = ma_executor::QueryContext::new(Arc::new(ma_primitives::build_dictionary()), cfg4());
    match ma_executor::instantiate(&phys, &ctx) {
        Err(ma_executor::ExecError::Plan(_)) => {}
        Err(other) => panic!("expected ExecError::Plan, got {other:?}"),
        Ok(_) => panic!("a join chain cannot merge"),
    }
}

/// What the verifier lets through, `instantiate` still refuses to build
/// wrong: a sharding exchange over a node that is not a scan chain is a
/// typed error, never a panic.
#[test]
fn sharding_a_non_chain_is_a_typed_instantiate_error() {
    let c = catalog(BIG);
    let plan = PlanBuilder::scan(&c, "t", &["id", "k"])
        .hash_agg(&["id"], vec![ma_executor::plan::count()], "agg")
        .build()
        .unwrap();
    let mut phys = plan_physical(&plan, &cfg4()).unwrap();
    phys.root.exchange = Exchange::Parallel {
        workers: 4,
        chunk_bytes: 0,
    };
    let ctx = ma_executor::QueryContext::new(Arc::new(ma_primitives::build_dictionary()), cfg4());
    match ma_executor::instantiate(&phys, &ctx) {
        Err(ma_executor::ExecError::Plan(_)) => {}
        Err(other) => panic!("expected ExecError::Plan, got {other:?}"),
        Ok(_) => panic!("an aggregate cannot compile into scan fragments"),
    }
}
