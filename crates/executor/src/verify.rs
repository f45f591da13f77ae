//! Plan-invariant verifier.
//!
//! [`instantiate`](crate::plan::instantiate) relies on a set of
//! invariants when it builds a [`PhysicalPlan`]'s operators: every node
//! types by its kind's rule and declares the schema that rule derives,
//! merge joins only ever see key-sorted inputs, order-destroying exchanges
//! never end up under order-sensitive ancestors, and only hash aggregates
//! partition. A two-phase aggregate needs no rule of its own: it is a
//! chain top carrying [`Exchange::Parallel`], checked like any other. Labels are display names and need not be unique: instances
//! key on their node's [`crate::NodeId`]. [`verify`] plans the query once
//! and checks the plan it made:
//!
//! 1. **Planning** ([`crate::plan_physical`]): the planner calls every
//!    node's typing rule bottom-up — the one function per node kind
//!    (`plan/rules.rs`) that [`crate::PlanBuilder`] builds the node with,
//!    over the shared expression, predicate and aggregate typing, exactly
//!    as strict as the evaluator and the operators — and compares the
//!    types it derives with the schema the node declares. A node that
//!    fails either has no physical plan. No second copy of the rules
//!    exists: the copies this module once kept had drifted from the
//!    builder's and the planner's (DESIGN.md §9).
//! 2. **Physical plan** ([`verify_physical`]): translation validation of
//!    the planner's actual output. It walks the very [`PhysicalPlan`]
//!    [`instantiate`](crate::plan::instantiate) will build from, with one
//!    bit of context — "an order-sensitive ancestor is live" — and checks
//!    the exchange-placement rules: no [`Exchange::Parallel`] or
//!    [`Exchange::HashPartition`] under an ordered ancestor short of a
//!    materialization boundary, a partitioning exchange sits on a hash
//!    aggregate (whose group keys it routes by), and a stage beneath a
//!    chain top carries no exchange of its own. The ordered-ancestor bit
//!    is what keeps a merge-join input serial: no exchange restores an
//!    order. The rest of an exchange's shape cannot be written wrong: its
//!    counts are non-zero by type, and a node's fragment count is derived
//!    from its position ([`PhysNode::chains`]), not stored.
//! 3. **Hazards**: the abstract interpreter's findings, which planning
//!    collects on the way, reject a plan with a reachable trap.
//!
//! [`lower`](crate::plan::lower()) is `instantiate(&verify(plan, cfg)?)`
//! in every build, so every query that runs was checked, and the plan it
//! runs is the plan that was checked. CI also runs the standalone matrix
//! sweep in `crates/tpch/tests/verify_matrix.rs` across all 22 queries ×
//! worker/partition/vector-size configurations.

use std::num::NonZeroUsize;

use ma_vector::DataType;

use crate::analyze::AnalysisError;
use crate::config::ExecConfig;
use crate::plan::{Exchange, LogicalPlan, PhysNode, PhysicalPlan};
use crate::ExecError;

/// A plan invariant violation found by [`verify`] or [`verify_physical`].
///
/// Every variant names one distinct way a plan can be ill-formed, so
/// tests can assert the *specific* failure and error messages can say
/// precisely what to fix.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// A node referenced a column index outside its input's arity.
    ColumnOutOfRange {
        /// Which node/field referenced the column.
        context: String,
        /// The offending index.
        col: usize,
        /// The input arity it was resolved against.
        arity: usize,
    },
    /// A column, constant or expression had the wrong type for its role:
    /// a non-integer join key, an `f64` group key, a left-single default
    /// of another type than its payload column, a mistyped operand.
    TypeMismatch {
        /// Which node/field was being checked.
        context: String,
        /// The type the role requires.
        expected: String,
        /// The type actually derived.
        found: DataType,
    },
    /// A node or tree no operator or evaluator form exists for: a scan of
    /// a column its table lacks, a join without key pairs or with a
    /// payload it would drop, a hash aggregation without group keys, a
    /// merge-join input not sorted by its key, a constant outside the
    /// right-hand side of arithmetic, an empty `AND`.
    Invalid {
        /// Which node.
        context: String,
        /// What is wrong with it.
        reason: String,
    },
    /// A node's declared output schema disagrees with the schema its
    /// typing rule derives from its inputs.
    SchemaMismatch {
        /// Which node was being checked.
        context: String,
        /// The types the node declares.
        declared: Vec<DataType>,
        /// The types the rule derived.
        derived: Vec<DataType>,
    },
    /// An order-destroying exchange sits under an order-sensitive
    /// ancestor without a materialization boundary in between.
    OrderViolation {
        /// The offending exchange (`"Parallel"` or `"HashPartition"`).
        node: &'static str,
    },
    /// A hash-partitioning exchange on a node that is not a hash
    /// aggregate: no other operator has a partitioned form, so it would
    /// run unpartitioned while the plan says otherwise.
    PartitionedNonAggregate {
        /// The node's pre-order id.
        node: usize,
    },
    /// A stage inside a sharded chain's fragments carries an exchange of
    /// its own: fragments are single pipelines, nothing unites a nested
    /// exchange's outputs.
    NestedExchange {
        /// The offending exchange.
        node: &'static str,
    },
    /// The abstract interpreter (phase 3, [`mod@crate::analyze`]) proved a
    /// runtime trap reachable — e.g. an integer division whose divisor
    /// interval contains zero.
    Analysis {
        /// The underlying hazard finding.
        err: AnalysisError,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::ColumnOutOfRange {
                context,
                col,
                arity,
            } => {
                write!(f, "{context}: column {col} out of range (arity {arity})")
            }
            VerifyError::TypeMismatch {
                context,
                expected,
                found,
            } => write!(f, "{context}: expected {expected}, found {found}"),
            VerifyError::Invalid { context, reason } => write!(f, "{context}: {reason}"),
            VerifyError::SchemaMismatch {
                context,
                declared,
                derived,
            } => {
                let list = |ts: &[DataType]| ts.iter().map(DataType::to_string).collect::<Vec<_>>();
                let (declared, derived) = (list(declared).join(", "), list(derived).join(", "));
                write!(
                    f,
                    "{context}: declared schema ({declared}) but derived ({derived})"
                )
            }
            VerifyError::OrderViolation { node } => write!(
                f,
                "{node} exchange under an order-sensitive ancestor would interleave \
                 its outputs in arrival order"
            ),
            VerifyError::PartitionedNonAggregate { node } => write!(
                f,
                "physical node {node} carries a HashPartition exchange but is not a \
                 hash aggregate"
            ),
            VerifyError::NestedExchange { node } => write!(
                f,
                "{node} exchange on a stage inside a sharded chain's fragments"
            ),
            VerifyError::Analysis { err } => write!(f, "analysis: {err}"),
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<VerifyError> for ExecError {
    fn from(e: VerifyError) -> Self {
        ExecError::Plan(e.to_string())
    }
}

/// Plans `plan` under `cfg` and checks every invariant of that plan that
/// [`instantiate`](crate::plan::instantiate) relies on: the planner's own
/// rejections (every node's typing rule against its declared schema),
/// then [`verify_physical`] and the analyzer's hazards. Returns the plan it
/// checked, which is safe to instantiate under `cfg`.
pub fn verify<'a>(
    plan: &'a LogicalPlan,
    cfg: &ExecConfig,
) -> Result<PhysicalPlan<'a>, VerifyError> {
    let phys = PhysicalPlan::new(plan, cfg)?;
    verify_physical(&phys)?;
    // Planning interprets the plan abstractly anyway, so its findings
    // double as phase 3. Only *hazards* (reachable traps) fail
    // verification; warnings (possible wraps, possibly overflowing sums,
    // contradictions) are reported by `crate::analyze::analyze` and the
    // `repro analyze` CLI instead — see `AnalysisError::is_hazard` for the
    // rationale.
    if let Some(err) = phys.findings.iter().find(|e| e.is_hazard()) {
        return Err(VerifyError::Analysis { err: err.clone() });
    }
    Ok(phys)
}

// ---------------------------------------------------------------------------
// phase 2: the physical plan
// ---------------------------------------------------------------------------

/// Checks a physical plan's exchange-placement invariants: no
/// order-destroying exchange ([`Exchange::Parallel`],
/// [`Exchange::HashPartition`]) under an order-sensitive ancestor without
/// an intervening materialization boundary (sort, aggregate, join build);
/// a partitioning exchange sits on a hash aggregate; and a chain's stages
/// carry no exchange beneath its top.
///
/// The planner's own output always passes; the function is public so
/// tests can hand-build ill-formed [`PhysicalPlan`]s and prove each rule
/// fires.
pub fn verify_physical(plan: &PhysicalPlan<'_>) -> Result<(), VerifyError> {
    check_node(&plan.root, false, None)
}

/// `ordered`: an ancestor consumes this node's output in key order.
/// `within`: the sharded chain the node's parent places it in
/// ([`PhysNode::chains`]).
fn check_node(
    node: &PhysNode<'_>,
    ordered: bool,
    within: Option<NonZeroUsize>,
) -> Result<(), VerifyError> {
    let name = match node.exchange {
        Exchange::None => None,
        Exchange::Parallel { .. } => Some("Parallel"),
        Exchange::HashPartition { .. } => Some("HashPartition"),
    };
    if let Some(exchange) = name {
        if ordered {
            return Err(VerifyError::OrderViolation { node: exchange });
        }
        if exchange == "HashPartition" && !matches!(node.logical, LogicalPlan::HashAgg { .. }) {
            return Err(VerifyError::PartitionedNonAggregate { node: node.id.0 });
        }
        if within.is_some() {
            return Err(VerifyError::NestedExchange { node: exchange });
        }
    }
    let (_, inputs) = node.chains(within);
    for (i, (child, within)) in node.children.iter().zip(inputs).enumerate() {
        let child_ordered = match node.logical {
            // Order-sensitive: both inputs must preserve key order.
            LogicalPlan::MergeJoin { .. } => true,
            // Materialization boundaries re-establish or discard order.
            LogicalPlan::Sort { .. }
            | LogicalPlan::HashAgg { .. }
            | LogicalPlan::StreamAgg { .. } => false,
            // The build side materializes; the probe side streams.
            LogicalPlan::HashJoin { .. } => i > 0 && ordered,
            LogicalPlan::Scan { .. } | LogicalPlan::Filter { .. } | LogicalPlan::Project { .. } => {
                ordered
            }
        };
        check_node(child, child_ordered, within)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{col, count, plan_physical, sum_i64, NamedPred, PlanBuilder, PlanError};
    use crate::{CmpKind, Value};
    use ma_vector::{ColumnBuilder, Schema, Table};
    use std::collections::HashMap;
    use std::sync::Arc;

    fn catalog(rows: usize) -> HashMap<String, Arc<Table>> {
        let mut id = ColumnBuilder::with_capacity(DataType::I64, rows);
        let mut k = ColumnBuilder::with_capacity(DataType::I32, rows);
        let mut f = ColumnBuilder::with_capacity(DataType::F64, rows);
        for i in 0..rows {
            id.push_i64(i as i64);
            k.push_i32((i % 7) as i32);
            f.push_f64(i as f64 * 0.5);
        }
        let t = Arc::new(
            Table::new(
                "t",
                vec![
                    ("id".into(), id.finish()),
                    ("k".into(), k.finish()),
                    ("f".into(), f.finish()),
                ],
            )
            .unwrap(),
        );
        let mut c = HashMap::new();
        c.insert("t".to_string(), t);
        c
    }

    fn cfg(workers: usize) -> ExecConfig {
        let mut cfg = ExecConfig::fixed_default();
        cfg.worker_threads = workers;
        cfg
    }

    #[test]
    fn builder_plans_verify_across_worker_counts() {
        let c = catalog(40_000);
        for workers in [1, 2, 4] {
            let plan = PlanBuilder::scan(&c, "t", &["k", "id"])
                .filter(NamedPred::cmp_val("k", CmpKind::Lt, Value::I32(5)), "sel")
                .hash_agg(&["k"], vec![count(), sum_i64("id")], "agg")
                .sort(&[crate::plan::asc("k")])
                .build()
                .unwrap();
            verify(&plan, &cfg(workers)).unwrap();
        }
    }

    #[test]
    fn sharded_agg_plans_as_partition_exchange() {
        let c = catalog(40_000);
        let plan = PlanBuilder::scan(&c, "t", &["k", "id"])
            .hash_agg(&["k"], vec![count()], "agg")
            .build()
            .unwrap();
        // Left to the planner, 7 groups over 40 000 rows go two-phase: the
        // aggregate tops the chain's one Parallel.
        let phys = plan_physical(&plan, &cfg(4)).unwrap();
        assert!(phys.root.two_phase(), "{:?}", phys.root.exchange);
        verify_physical(&phys).unwrap();
        // An explicit partition count routes instead.
        let mut routed = cfg(4);
        routed.agg_partitions = 4;
        let phys = plan_physical(&plan, &routed).unwrap();
        match &phys.root.exchange {
            Exchange::HashPartition {
                partitions,
                producers,
                ..
            } => assert_eq!((partitions.get(), producers.get()), (4, 4)),
            other => panic!("expected HashPartition, got {other:?}"),
        }
        verify_physical(&phys).unwrap();
    }

    #[test]
    fn single_worker_plan_is_sequential() {
        let c = catalog(40_000);
        let plan = PlanBuilder::scan(&c, "t", &["k", "id"])
            .hash_agg(&["k"], vec![count()], "agg")
            .build()
            .unwrap();
        let phys = plan_physical(&plan, &cfg(1)).unwrap();
        assert!(phys.nodes().iter().all(|n| n.exchange == Exchange::None));
    }

    #[test]
    fn merge_join_over_clustered_scans_plans_merges() {
        let c = catalog(40_000);
        let left = PlanBuilder::scan(&c, "t", &["id", "k"]);
        let plan = PlanBuilder::scan(&c, "t", &["id as rid"])
            .merge_join(left, ("rid", "id"), &["k"], "mj")
            .build()
            .unwrap();
        // Both inputs are clustering-key chains: at 4 workers they still
        // run serially, no exchange and one fragment down to each scan.
        let phys = plan_physical(&plan, &cfg(4)).unwrap();
        for (node, fragments) in phys.fragments() {
            assert_eq!((&node.exchange, fragments), (&Exchange::None, 1));
        }
        verify(&plan, &cfg(4)).unwrap();
    }

    #[test]
    fn float_group_key_is_typed_error() {
        let c = catalog(100);
        // The builder rejects this; hand-build the node to prove the
        // verifier, through the same rule, rejects it too.
        let built = PlanBuilder::scan(&c, "t", &["f", "id"])
            .hash_agg(&["f"], vec![count()], "agg")
            .build();
        assert!(matches!(built, Err(PlanError::TypeMismatch { .. })));
        let base = PlanBuilder::scan(&c, "t", &["f", "id"]).build().unwrap();
        let schema = Schema::new(vec![
            ma_vector::Field::new("f", DataType::F64),
            ma_vector::Field::new("n", DataType::I64),
        ]);
        let bad = LogicalPlan::HashAgg {
            input: Box::new(base),
            keys: vec![0],
            aggs: vec![crate::Agg::count()],
            label: "agg".into(),
            schema,
        };
        let err = verify(&bad, &cfg(1)).unwrap_err();
        assert!(
            matches!(
                err,
                VerifyError::TypeMismatch {
                    found: DataType::F64,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn projected_merge_key_still_verifies() {
        let c = catalog(40_000);
        let left = PlanBuilder::scan(&c, "t", &["id", "k"])
            .project(vec![("id", col("id")), ("k", col("k"))], "keep");
        let plan = PlanBuilder::scan(&c, "t", &["id as rid"])
            .merge_join(left, ("rid", "id"), &["k"], "mj")
            .build()
            .unwrap();
        verify(&plan, &cfg(4)).unwrap();
    }
}
