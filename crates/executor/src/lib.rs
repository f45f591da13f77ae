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

pub use adaptive::{HeurKind, InstanceReport, MemReport, MemTracker, PrimInstance, QueryContext};
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
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Plan(m) => write!(f, "plan error: {m}"),
            ExecError::UnknownPrimitive(s) => write!(f, "unknown primitive: {s}"),
            ExecError::Table(e) => write!(f, "table error: {e}"),
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
