#![warn(missing_docs)]
//! # ma-executor — vectorized query executor with Micro Adaptivity
//!
//! A vector-at-a-time pull engine in the Vectorwise architecture (§1):
//! operators exchange [`ma_vector::DataChunk`]s of ~1024 tuples; all data
//! processing happens in primitive functions resolved through the Primitive
//! Dictionary; and the *expression evaluator* ([`eval`]) is the place where
//! the engine — per configuration — either always calls the default flavor,
//! applies hard-coded heuristics (§4.2), or runs a multi-armed bandit per
//! primitive instance (Micro Adaptivity, §3).
//!
//! Operators: [`ops::Scan`], [`ops::Select`], [`ops::Project`],
//! [`ops::HashJoin`] (inner/semi/anti/left-single, bloom-filter
//! accelerated), [`ops::MergeJoin`], [`ops::HashAggregate`],
//! [`ops::StreamAggregate`], [`ops::Sort`], [`ops::Limit`].

pub mod adaptive;
pub mod analyze;
pub mod config;
pub mod cost;
pub mod eval;
pub mod expr;
pub mod frontend;
pub mod heuristics;
#[cfg(test)]
mod model_check;
pub mod ops;
pub mod plan;
pub mod stage;
pub mod verify;

pub use adaptive::{
    HeurKind, InstanceReport, MemReport, MemTracker, NodeKey, NodeScope, PrimInstance,
    QueryContext, Slot,
};
pub use analyze::{analyze, AbsDomain, Analysis, AnalysisError, ColFact, Facts};
pub use config::{DecodeMode, ExecConfig, FlavorAxis, FlavorMode};
pub use cost::{cost, CostFinding, CostReport, OpCost};
pub use eval::{CompiledExpr, CompiledPred};
pub use expr::{
    Agg, AggFunc, ArithKind, CmpKind, CmpRhs, Expr, NumType, Pred, SortKey, TypeError, Value,
};
pub use ops::{collect, BoxOp, Operator};
pub use plan::{
    instantiate, lower, plan_physical, Catalog, Exchange, LogicalPlan, NodeId, PhysNode,
    PhysicalPlan, PlanBuilder, PlanError,
};
pub use stage::StageProfile;
pub use verify::{verify, verify_physical, VerifyError};

use ma_vector::TableError;

/// Errors from plan construction and execution.
#[derive(Debug)]
pub enum ExecError {
    /// Malformed plan (type mismatch, bad column index, ...).
    Plan(String),
    /// A primitive signature missing from the dictionary.
    UnknownPrimitive(String),
    /// Storage-level error.
    Table(TableError),
    /// An `i64` sum left its output column's range: the 128-bit
    /// accumulator holds the exact sum, which no `i64` can.
    SumOverflow {
        /// The summing instance's label, e.g. `Q1/agg/aggr_sum128_i64`.
        instance: String,
        /// The exact sum.
        sum: i128,
    },
    /// A worker thread of an exchange panicked. Every worker of that
    /// exchange has been joined by the time this is returned.
    Worker {
        /// The exchange's plan node (the default key for an exchange
        /// built outside a plan).
        node: NodeKey,
        /// The panic's message, or `<non-string panic>`.
        message: String,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Plan(m) => write!(f, "plan error: {m}"),
            ExecError::UnknownPrimitive(s) => write!(f, "unknown primitive: {s}"),
            ExecError::Table(e) => write!(f, "table error: {e}"),
            ExecError::SumOverflow { instance, sum } => {
                write!(f, "sum overflow: {instance} totals {sum}, outside i64")
            }
            ExecError::Worker { node, message } => write!(
                f,
                "worker of plan {} node {} panicked: {message}",
                node.plan, node.node.0
            ),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<TableError> for ExecError {
    fn from(e: TableError) -> Self {
        ExecError::Table(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(ExecError::Plan("x".into()).to_string().contains("plan"));
        assert!(ExecError::UnknownPrimitive("sig".into())
            .to_string()
            .contains("sig"));
        let t: ExecError = TableError::UnknownColumn("c".into()).into();
        assert!(t.to_string().contains("table error"));
    }
}
