//! Independent plan-invariant verifier.
//!
//! [`lower`](crate::plan::lower) relies on a set of invariants when it
//! turns a [`LogicalPlan`] into a physical pipeline: schemas stay
//! consistent node to node, merge joins only ever see provably key-sorted
//! inputs, order-destroying exchanges never end up under order-sensitive
//! ancestors, only hash aggregates partition, and every
//! primitive-instantiating node carries a unique stats label.
//! This module *re-checks* those invariants from scratch:
//!
//! 1. **Logical walk** ([`verify`], first phase): re-derives every node's
//!    output schema bottom-up — expressions and predicates through the one
//!    typing pass the builder also runs ([`crate::Expr::type_of`],
//!    [`crate::Pred::check`], exactly as strict as the evaluator),
//!    aggregates and joins from rules of its own — and compares it against
//!    the schema the node declares; re-proves
//!    merge-join input sortedness structurally; enforces stats-label
//!    uniqueness across instantiating nodes; rejects float partition
//!    keys with a typed error instead of a worker-thread panic.
//! 2. **Physical plan** ([`verify_physical`]): translation validation of
//!    the planner's actual output. It walks the very [`PhysicalPlan`]
//!    [`instantiate`](crate::plan::instantiate) will build from, with one
//!    bit of context — "an order-sensitive ancestor is live" — and checks
//!    the exchange-placement rules: no [`Exchange::Parallel`] or
//!    [`Exchange::HashPartition`] under an ordered ancestor short of a
//!    materialization boundary, a partitioning exchange sits on a hash
//!    aggregate and routes by hashable keys, no empty producer sets,
//!    merge keys are integers; and the fragment rules — a stage beneath a chain top
//!    carries no exchange of its own, every node's `fragments` says what
//!    its position says, an in-fragment join's build child stays outside
//!    the fragments, and no merging exchange tops a chain with a join.
//!
//! In debug builds [`lower`](crate::plan::lower()) runs [`verify`] on
//! every plan before lowering it, so any test executing a query exercises
//! the verifier for free. Release builds skip it (the checks are pure
//! overhead once a plan shape is proven); CI runs the standalone matrix
//! sweep in `crates/tpch/tests/verify_matrix.rs` across all 22 queries ×
//! worker/partition/vector-size configurations.

use std::collections::HashSet;
use std::fmt::Display;

use ma_vector::{DataType, Schema};

use crate::analyze::AnalysisError;
use crate::config::ExecConfig;
use crate::expr::TypeError;
use crate::ops::{JoinKind, ProjItem};
use crate::plan::builder::clustered_key_chain;
use crate::plan::{plan_with_findings, Exchange, LogicalPlan, PhysNode, PhysicalPlan};

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
    /// A scan listed a source column its table does not have.
    UnknownScanColumn {
        /// The missing source column name.
        col: String,
    },
    /// A column or expression had the wrong type for its role.
    TypeMismatch {
        /// Which node/field was being checked.
        context: String,
        /// The type the role requires.
        expected: String,
        /// The type actually derived.
        found: DataType,
    },
    /// An expression or predicate tree no evaluator form exists for (a
    /// constant outside the right-hand side of arithmetic, an empty
    /// `AND`).
    InvalidExpression {
        /// Which node holds the tree.
        context: String,
        /// What is wrong with it.
        reason: String,
    },
    /// A node's declared output schema disagrees with the schema the
    /// verifier re-derived from its inputs.
    SchemaMismatch {
        /// Which node was being checked.
        context: String,
        /// The type list the node declares.
        declared: String,
        /// The type list the verifier derived.
        derived: String,
    },
    /// Two primitive-instantiating nodes in one plan share a stats
    /// label, which would silently merge their adaptive statistics.
    DuplicateLabel {
        /// The colliding label.
        label: String,
    },
    /// A merge-join input is not provably sorted by the join key
    /// (neither a clustering-key chain nor a matching ascending sort).
    UnsortedMergeInput {
        /// `"left"` or `"right"`.
        side: &'static str,
        /// The join key column on that side.
        key: usize,
    },
    /// A merge-join input is sorted by the join key but *descending* —
    /// the merge scans ascending and would drop matches.
    DescendingMergeKey {
        /// `"left"` or `"right"`.
        side: &'static str,
        /// The join key column on that side.
        key: usize,
    },
    /// A merging exchange key is not an integer column.
    NonIntegerMergeKey {
        /// The key's type.
        ty: DataType,
    },
    /// An `f64` column used as a hash-partitioning or join/group key
    /// (float keys don't hash portably and are rejected up front).
    FloatPartitionKey {
        /// Which key of which node.
        context: String,
    },
    /// Two aligned key/value lists have different lengths.
    KeyCountMismatch {
        /// Which node/field pair was being checked.
        context: String,
        /// Length of the first list.
        left: usize,
        /// Length of the second list.
        right: usize,
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
    /// An exchange with zero workers, producers or partitions: its
    /// channels would close immediately and silently emit nothing.
    EmptyExchange {
        /// The offending exchange.
        node: &'static str,
    },
    /// A stage inside a sharded chain's fragments carries an exchange of
    /// its own: fragments are single pipelines, nothing unites a nested
    /// exchange's outputs.
    NestedExchange {
        /// The offending exchange.
        node: &'static str,
    },
    /// A node's `fragments` disagrees with its position: a chain top and
    /// the stages down its probe path say the fan-out of the exchange
    /// that shards them, everything else says 1.
    FragmentCountMismatch {
        /// The node's pre-order id.
        node: usize,
        /// What the node's position implies.
        expected: usize,
        /// What the node says.
        found: usize,
    },
    /// The build child of a join that probes in the fragments is itself
    /// marked as a fragment stage: the build runs once, outside them.
    BuildInsideFragment {
        /// The join's stats label.
        label: String,
    },
    /// A merging exchange tops a chain that contains a join: the K-way
    /// merge needs every fragment key-sorted, which is proven for
    /// Filter/Project chains only (an inner join's expansion order is
    /// not).
    MergeOverJoin {
        /// The join's stats label.
        label: String,
    },
    /// The abstract interpreter (phase 3, [`mod@crate::analyze`]) proved a
    /// runtime trap reachable — e.g. an integer division whose divisor
    /// interval contains zero.
    Analysis {
        /// The underlying hazard finding.
        err: AnalysisError,
    },
    /// The memory/cost pass (phase 4, [`mod@crate::cost`]) proved the
    /// plan's peak resident bytes exceed the configured budget, and
    /// [`crate::ExecConfig::strict_memory`] promotes that finding from a
    /// warning to a rejection.
    MemoryBudget {
        /// Proven whole-query peak bytes.
        peak_bytes: u64,
        /// The configured [`crate::ExecConfig::memory_budget`].
        budget: u64,
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
            VerifyError::UnknownScanColumn { col } => {
                write!(f, "scan references column {col} absent from its table")
            }
            VerifyError::TypeMismatch {
                context,
                expected,
                found,
            } => write!(f, "{context}: expected {expected}, found {found}"),
            VerifyError::InvalidExpression { context, reason } => write!(f, "{context}: {reason}"),
            VerifyError::SchemaMismatch {
                context,
                declared,
                derived,
            } => write!(
                f,
                "{context}: declared schema {declared} but derived {derived}"
            ),
            VerifyError::DuplicateLabel { label } => write!(
                f,
                "stats label {label:?} used by more than one primitive-instantiating \
                 node; their adaptive statistics would merge silently"
            ),
            VerifyError::UnsortedMergeInput { side, key } => write!(
                f,
                "{side} merge-join input is not provably sorted by join key column {key}"
            ),
            VerifyError::DescendingMergeKey { side, key } => write!(
                f,
                "{side} merge-join input sorts key column {key} descending; the merge \
                 scans ascending"
            ),
            VerifyError::NonIntegerMergeKey { ty } => {
                write!(
                    f,
                    "merging exchange key must be an integer column, found {ty}"
                )
            }
            VerifyError::FloatPartitionKey { context } => write!(
                f,
                "{context}: f64 is not a hashable partition key (use an integer or \
                 string column)"
            ),
            VerifyError::KeyCountMismatch {
                context,
                left,
                right,
            } => {
                write!(f, "{context}: {left} vs {right} entries")
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
            VerifyError::EmptyExchange { node } => {
                write!(f, "{node} exchange with zero workers/producers/partitions")
            }
            VerifyError::NestedExchange { node } => write!(
                f,
                "{node} exchange on a stage inside a sharded chain's fragments"
            ),
            VerifyError::FragmentCountMismatch {
                node,
                expected,
                found,
            } => write!(
                f,
                "physical node {node} says {found} fragments where its position implies \
                 {expected}"
            ),
            VerifyError::BuildInsideFragment { label } => write!(
                f,
                "the build side of in-fragment hash join {label:?} is marked as a fragment \
                 stage; it runs once, outside the fragments"
            ),
            VerifyError::MergeOverJoin { label } => write!(
                f,
                "a merging exchange tops a chain containing hash join {label:?}, whose \
                 fragments are not proven key-sorted"
            ),
            VerifyError::Analysis { err } => write!(f, "analysis: {err}"),
            VerifyError::MemoryBudget { peak_bytes, budget } => write!(
                f,
                "proven peak of {peak_bytes} resident bytes exceeds the {budget}-byte \
                 memory budget (strict_memory)"
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies every invariant of `plan` that [`crate::lower`] relies on:
/// the logical walk (schemas, types, labels, merge-input sortedness),
/// then [`verify_physical`] over the physical plan `cfg` produces.
/// `Ok(())` means the plan is safe to lower under `cfg`.
pub fn verify(plan: &LogicalPlan, cfg: &ExecConfig) -> Result<(), VerifyError> {
    let mut labels = HashSet::new();
    check_plan(plan, &mut labels)?;
    // Planning interprets the plan abstractly anyway, so its findings
    // double as phase 3. Only *hazards* (reachable traps) fail
    // verification; warnings (possible wraps, checked-panic sum bounds,
    // contradictions) are reported by `crate::analyze::analyze` and the
    // `repro analyze` CLI instead — see `AnalysisError::is_hazard` for the
    // rationale.
    let (phys, findings) = plan_with_findings(plan, cfg)
        .expect("phase 1 proved every merge-join input sorted, the planner's one rejection");
    verify_physical(&phys)?;
    if let Some(err) = findings.into_iter().find(AnalysisError::is_hazard) {
        return Err(VerifyError::Analysis { err });
    }
    // Phase 4: memory/cost bounds. Budget findings are warnings by
    // default (surfaced by `repro analyze` / `repro mem`); under
    // `strict_memory` a plan whose proven peak exceeds the budget is
    // rejected before any operator allocates.
    if cfg.strict_memory {
        let report = crate::cost::report(&phys, cfg.memory_budget);
        if report.peak_bytes > cfg.memory_budget {
            return Err(VerifyError::MemoryBudget {
                peak_bytes: report.peak_bytes,
                budget: cfg.memory_budget,
            });
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// phase 1: the logical walk
// ---------------------------------------------------------------------------

fn is_integer(ty: DataType) -> bool {
    matches!(ty, DataType::I16 | DataType::I32 | DataType::I64)
}

fn fmt_types(types: &[DataType]) -> String {
    let mut s = String::from("(");
    for (i, t) in types.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&t.to_string());
    }
    s.push(')');
    s
}

fn schema_types(schema: &Schema) -> impl Iterator<Item = DataType> + Clone + '_ {
    schema.fields().iter().map(|f| f.ty)
}

/// The node an error names (`filter "Q1/sel"`), formatted only when an
/// error is actually built: the success path of every check is
/// allocation-free.
struct Ctx<'a>(&'static str, &'a str);

impl Display for Ctx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {:?}", self.0, self.1)
    }
}

fn col_ty(schema: &Schema, col: usize, context: &dyn Display) -> Result<DataType, VerifyError> {
    match schema.fields().get(col) {
        Some(f) => Ok(f.ty),
        None => Err(VerifyError::ColumnOutOfRange {
            context: context.to_string(),
            col,
            arity: schema.fields().len(),
        }),
    }
}

/// Declared-vs-derived output schema comparison (types only: aliases are
/// presentation, types are what operators execute against).
fn expect_schema(
    context: &dyn Display,
    declared: &Schema,
    derived: impl Iterator<Item = DataType> + Clone,
) -> Result<(), VerifyError> {
    if schema_types(declared).eq(derived.clone()) {
        return Ok(());
    }
    Err(VerifyError::SchemaMismatch {
        context: context.to_string(),
        declared: fmt_types(&schema_types(declared).collect::<Vec<_>>()),
        derived: fmt_types(&derived.collect::<Vec<_>>()),
    })
}

/// Stats labels must be unique *per plan* across nodes that instantiate
/// primitives: per-worker/per-partition instances of one node share its
/// label by design (their statistics fold), but two distinct nodes
/// sharing one would merge unrelated bandit state.
fn note_label<'a>(labels: &mut HashSet<&'a str>, label: &'a str) -> Result<(), VerifyError> {
    if !labels.insert(label) {
        return Err(VerifyError::DuplicateLabel {
            label: label.to_string(),
        });
    }
    Ok(())
}

/// A failure of the shared typing pass ([`crate::Expr::type_of`],
/// [`crate::Pred::check`]) at the node `context` names.
fn typing(err: TypeError, context: &dyn Display) -> VerifyError {
    match err {
        TypeError::ColumnOutOfRange { col, arity } => VerifyError::ColumnOutOfRange {
            context: context.to_string(),
            col,
            arity,
        },
        TypeError::Mismatch {
            context: what,
            expected,
            found,
        } => VerifyError::TypeMismatch {
            context: format!("{context}: {what}"),
            expected,
            found,
        },
        TypeError::Invalid(reason) => VerifyError::InvalidExpression {
            context: context.to_string(),
            reason,
        },
    }
}

/// A merge-join input must *provably* deliver its key sorted ascending:
/// an explicit sort whose primary key is the join key (descending is its
/// own error — the shape is right, the direction fatal), or a
/// clustering-key chain (the structural proof the builder and the
/// merging exchange share).
fn merge_input_proof(
    side: &'static str,
    plan: &LogicalPlan,
    key: usize,
) -> Result<(), VerifyError> {
    if let LogicalPlan::Sort { keys, .. } = plan {
        return match keys.first() {
            Some(k) if k.col == key && !k.desc => Ok(()),
            Some(k) if k.col == key => Err(VerifyError::DescendingMergeKey { side, key }),
            _ => Err(VerifyError::UnsortedMergeInput { side, key }),
        };
    }
    if clustered_key_chain(plan, key) {
        Ok(())
    } else {
        Err(VerifyError::UnsortedMergeInput { side, key })
    }
}

fn check_plan<'a>(plan: &'a LogicalPlan, labels: &mut HashSet<&'a str>) -> Result<(), VerifyError> {
    match plan {
        LogicalPlan::Scan {
            table,
            cols,
            schema,
            ..
        } => {
            if cols.len() != schema.fields().len() {
                return Err(VerifyError::KeyCountMismatch {
                    context: "scan source columns vs output schema".to_string(),
                    left: cols.len(),
                    right: schema.fields().len(),
                });
            }
            for c in cols {
                if !table.column_names().iter().any(|n| n == c) {
                    return Err(VerifyError::UnknownScanColumn { col: c.clone() });
                }
            }
            Ok(())
        }
        LogicalPlan::Filter {
            input,
            pred,
            label,
            schema,
        } => {
            check_plan(input, labels)?;
            let ctx = Ctx("filter", label);
            pred.check(input.schema()).map_err(|e| typing(e, &ctx))?;
            expect_schema(&ctx, schema, schema_types(input.schema()))?;
            note_label(labels, label)
        }
        LogicalPlan::Project {
            input,
            items,
            label,
            schema,
        } => {
            check_plan(input, labels)?;
            let ctx = Ctx("project", label);
            let mut derived = Vec::with_capacity(items.len());
            let mut instantiates = false;
            for item in items {
                derived.push(match item {
                    ProjItem::Pass(i) => col_ty(input.schema(), *i, &ctx)?,
                    ProjItem::Expr(e) => {
                        instantiates = true;
                        e.type_of(input.schema()).map_err(|e| typing(e, &ctx))?
                    }
                });
            }
            expect_schema(&ctx, schema, derived.iter().copied())?;
            // Pass-only projections compile to zero primitive instances,
            // so their label never reaches the stats registry — it can't
            // collide.
            if instantiates {
                note_label(labels, label)?;
            }
            Ok(())
        }
        LogicalPlan::HashAgg {
            input,
            keys,
            aggs,
            label,
            schema,
        } => {
            check_plan(input, labels)?;
            let ctx = Ctx("hash aggregation", label);
            let mut derived = Vec::with_capacity(keys.len() + aggs.len());
            for (i, &k) in keys.iter().enumerate() {
                let t = col_ty(input.schema(), k, &ctx)?;
                if t == DataType::F64 {
                    return Err(VerifyError::FloatPartitionKey {
                        context: format!("group key {i} of {ctx}"),
                    });
                }
                derived.push(t);
            }
            for a in aggs {
                derived.push(a.type_of(input.schema()).map_err(|e| typing(e, &ctx))?);
            }
            expect_schema(&ctx, schema, derived.iter().copied())?;
            note_label(labels, label)
        }
        LogicalPlan::StreamAgg {
            input,
            aggs,
            label,
            schema,
        } => {
            check_plan(input, labels)?;
            let ctx = Ctx("stream aggregation", label);
            let mut derived = Vec::with_capacity(aggs.len());
            for a in aggs {
                derived.push(a.type_of(input.schema()).map_err(|e| typing(e, &ctx))?);
            }
            expect_schema(&ctx, schema, derived.iter().copied())?;
            note_label(labels, label)
        }
        LogicalPlan::HashJoin {
            build,
            probe,
            build_keys,
            probe_keys,
            payload,
            kind,
            defaults,
            label,
            schema,
            ..
        } => {
            check_plan(build, labels)?;
            check_plan(probe, labels)?;
            let ctx = Ctx("hash join", label);
            if build_keys.len() != probe_keys.len() || build_keys.is_empty() {
                return Err(VerifyError::KeyCountMismatch {
                    context: format!("{ctx} build vs probe keys"),
                    left: build_keys.len(),
                    right: probe_keys.len(),
                });
            }
            for (side, keys, schema_in) in [
                ("build", build_keys, build.schema()),
                ("probe", probe_keys, probe.schema()),
            ] {
                for (i, &k) in keys.iter().enumerate() {
                    let t = col_ty(schema_in, k, &ctx)?;
                    if t == DataType::F64 {
                        return Err(VerifyError::FloatPartitionKey {
                            context: format!("{side} key {i} of {ctx}"),
                        });
                    }
                    if !is_integer(t) {
                        return Err(VerifyError::TypeMismatch {
                            context: format!("{side} key {i} of {ctx}"),
                            expected: "integer join key".to_string(),
                            found: t,
                        });
                    }
                }
            }
            let mut payload_types = Vec::with_capacity(payload.len());
            for &p in payload {
                payload_types.push(col_ty(build.schema(), p, &ctx)?);
            }
            if *kind == JoinKind::LeftSingle {
                if defaults.len() != payload.len() {
                    return Err(VerifyError::KeyCountMismatch {
                        context: format!("{ctx} left-single defaults vs payload"),
                        left: defaults.len(),
                        right: payload.len(),
                    });
                }
                for (d, &pt) in defaults.iter().zip(&payload_types) {
                    if d.data_type() != pt {
                        return Err(VerifyError::TypeMismatch {
                            context: format!("{ctx} left-single default"),
                            expected: pt.to_string(),
                            found: d.data_type(),
                        });
                    }
                }
            }
            let mut derived: Vec<DataType> = schema_types(probe.schema()).collect();
            match kind {
                JoinKind::Inner | JoinKind::LeftSingle => derived.extend(payload_types),
                JoinKind::Semi | JoinKind::Anti => {}
            }
            expect_schema(&ctx, schema, derived.iter().copied())?;
            note_label(labels, label)
        }
        LogicalPlan::MergeJoin {
            left,
            right,
            left_key,
            right_key,
            payload,
            label,
            schema,
        } => {
            check_plan(left, labels)?;
            check_plan(right, labels)?;
            let ctx = Ctx("merge join", label);
            for (key, schema_in) in [(*left_key, left.schema()), (*right_key, right.schema())] {
                let t = col_ty(schema_in, key, &ctx)?;
                if !is_integer(t) {
                    return Err(VerifyError::NonIntegerMergeKey { ty: t });
                }
            }
            merge_input_proof("left", left, *left_key)?;
            merge_input_proof("right", right, *right_key)?;
            let mut derived: Vec<DataType> = schema_types(right.schema()).collect();
            for &p in payload {
                derived.push(col_ty(left.schema(), p, &ctx)?);
            }
            expect_schema(&ctx, schema, derived.iter().copied())?;
            note_label(labels, label)
        }
        LogicalPlan::Sort {
            input,
            keys,
            schema,
            ..
        } => {
            check_plan(input, labels)?;
            let ctx = "sort";
            for k in keys {
                col_ty(input.schema(), k.col, &ctx)?;
            }
            expect_schema(&ctx, schema, schema_types(input.schema()))
        }
    }
}

// ---------------------------------------------------------------------------
// phase 2: the physical plan
// ---------------------------------------------------------------------------

/// Checks a physical plan's exchange-placement invariants: no
/// order-destroying exchange ([`Exchange::Parallel`],
/// [`Exchange::HashPartition`]) under an order-sensitive ancestor without
/// an intervening materialization boundary (sort, aggregate, join build);
/// merging exchanges merge on an integer column; a partitioning exchange
/// sits on a hash aggregate and routes by hashable (non-float) columns of
/// its input; no exchange is degenerate (zero workers, producers or
/// partitions); and the fragment rules: a
/// chain's stages carry no exchange beneath its top, `fragments` matches
/// position on every node, a join probing in the fragments keeps its
/// build child outside them, and no [`Exchange::Merge`] tops a chain with
/// a join.
///
/// The planner's own output always passes; the function is public so
/// tests can hand-build ill-formed [`PhysicalPlan`]s and prove each rule
/// fires.
pub fn verify_physical(plan: &PhysicalPlan<'_>) -> Result<(), VerifyError> {
    check_node(&plan.root, false, None)
}

/// The sharded chain a node is a stage of.
#[derive(Clone, Copy)]
struct Chain {
    fragments: usize,
    /// United by an [`Exchange::Merge`].
    merging: bool,
}

/// `ordered`: an ancestor consumes this node's output in key order.
/// `within`: the node is a stage of that chain, beneath its top or
/// routing into a partitioned aggregate.
fn check_node(
    node: &PhysNode<'_>,
    ordered: bool,
    within: Option<Chain>,
) -> Result<(), VerifyError> {
    let (exchange_name, tops) = match &node.exchange {
        Exchange::None => ("None", None),
        Exchange::Parallel { workers, .. } => {
            if ordered {
                return Err(VerifyError::OrderViolation { node: "Parallel" });
            }
            if *workers == 0 {
                return Err(VerifyError::EmptyExchange { node: "Parallel" });
            }
            let chain = Chain {
                fragments: *workers,
                merging: false,
            };
            ("Parallel", Some(chain))
        }
        Exchange::Merge { producers, key, .. } => {
            if *producers == 0 {
                return Err(VerifyError::EmptyExchange { node: "Merge" });
            }
            let ty = col_ty(node.logical.schema(), *key, &"merging exchange key")?;
            if !is_integer(ty) {
                return Err(VerifyError::NonIntegerMergeKey { ty });
            }
            let chain = Chain {
                fragments: *producers,
                merging: true,
            };
            ("Merge", Some(chain))
        }
        Exchange::HashPartition {
            partitions,
            producers,
            key_cols,
            ..
        } => {
            if ordered {
                return Err(VerifyError::OrderViolation {
                    node: "HashPartition",
                });
            }
            let LogicalPlan::HashAgg { input, .. } = node.logical else {
                return Err(VerifyError::PartitionedNonAggregate { node: node.id.0 });
            };
            if *partitions == 0 || *producers == 0 {
                return Err(VerifyError::EmptyExchange {
                    node: "HashPartition",
                });
            }
            for (j, &k) in key_cols.iter().enumerate() {
                let context = format!("partition key {j}");
                if col_ty(input.schema(), k, &context)? == DataType::F64 {
                    return Err(VerifyError::FloatPartitionKey { context });
                }
            }
            ("HashPartition", None)
        }
    };
    if within.is_some() && node.exchange != Exchange::None {
        return Err(VerifyError::NestedExchange {
            node: exchange_name,
        });
    }
    let chain = within.or(tops);
    let expected = chain.map_or(1, |c| c.fragments);
    if node.fragments != expected {
        return Err(VerifyError::FragmentCountMismatch {
            node: node.id.0,
            expected,
            found: node.fragments,
        });
    }
    if let (Some(chain), LogicalPlan::HashJoin { label, .. }) = (chain, node.logical) {
        if chain.merging {
            return Err(VerifyError::MergeOverJoin {
                label: label.clone(),
            });
        }
        let outside = |b: &PhysNode<'_>| b.fragments == 1 || b.exchange != Exchange::None;
        if !node.children.first().is_some_and(outside) {
            return Err(VerifyError::BuildInsideFragment {
                label: label.clone(),
            });
        }
    }
    for (i, child) in node.children.iter().enumerate() {
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
        // A chain continues into a filter's or projection's input and a
        // join's probe side; a multi-producer partitioning exchange
        // starts one.
        let child_chain = match (&node.exchange, node.logical) {
            (Exchange::HashPartition { producers, .. }, _) => (*producers >= 2).then_some(Chain {
                fragments: *producers,
                merging: false,
            }),
            (_, LogicalPlan::HashJoin { .. }) if i == 0 => None,
            _ => chain,
        };
        check_node(child, child_ordered, child_chain)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{col, count, plan_physical, sum_i64, NamedPred, PlanBuilder};
    use crate::{CmpKind, Value};
    use ma_vector::{ColumnBuilder, Table};
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
        let phys = plan_physical(&plan, &cfg(4)).unwrap();
        match &phys.root.exchange {
            Exchange::HashPartition {
                partitions,
                producers,
                key_cols,
                ..
            } => {
                assert_eq!((*partitions, *producers), (4, 4));
                assert_eq!(*key_cols, vec![0]);
            }
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
        let phys = plan_physical(&plan, &cfg(4)).unwrap();
        for child in &phys.root.children {
            assert!(
                matches!(child.exchange, Exchange::Merge { producers: 4, .. }),
                "expected Merge under the merge join, got {:?}",
                child.exchange
            );
        }
        verify(&plan, &cfg(4)).unwrap();
    }

    #[test]
    fn float_group_key_is_typed_error() {
        let c = catalog(100);
        let plan = PlanBuilder::scan(&c, "t", &["f", "id"])
            .hash_agg(&["f"], vec![count()], "agg")
            .build();
        // The builder already rejects this; hand-build the node to prove
        // the verifier independently catches it.
        drop(plan);
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
            matches!(err, VerifyError::FloatPartitionKey { .. }),
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
