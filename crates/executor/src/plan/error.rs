//! Typed errors from logical-plan construction.
//!
//! Every mistake a query author can make — misspelled column, joining a
//! string to an integer, summing a string column — is caught while the
//! [`crate::plan::PlanBuilder`] resolves names against schemas, *before*
//! any operator is constructed, and reported as a variant a caller can
//! match on (instead of a panic or a stringly-typed failure at lowering
//! time).

use ma_vector::DataType;

use crate::expr::TypeError;
use crate::ExecError;

/// An error detected while building or resolving a [`crate::plan::LogicalPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A scan referenced a table the catalog does not know.
    UnknownTable(String),
    /// A column name did not resolve against the input schema.
    UnknownColumn {
        /// The name that failed to resolve.
        name: String,
        /// The schema it was resolved against, rendered `(a:i32, ...)`.
        schema: String,
    },
    /// A column name matched more than one input column.
    AmbiguousColumn(String),
    /// An output column name would collide with an existing one.
    DuplicateColumn(String),
    /// A column had the wrong type for the requested operation.
    TypeMismatch {
        /// What was being built (e.g. `join key l_orderkey = o_orderkey`).
        context: String,
        /// The type the operation requires.
        expected: String,
        /// The type actually found.
        found: DataType,
    },
    /// A structurally invalid plan (empty key list, payload on a semi
    /// join, ...).
    Invalid(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::UnknownTable(t) => write!(f, "unknown table {t}"),
            PlanError::UnknownColumn { name, schema } => {
                write!(f, "unknown column {name} in schema {schema}")
            }
            PlanError::AmbiguousColumn(n) => write!(f, "ambiguous column name {n}"),
            PlanError::DuplicateColumn(n) => write!(f, "duplicate output column {n}"),
            PlanError::TypeMismatch {
                context,
                expected,
                found,
            } => write!(
                f,
                "type mismatch in {context}: expected {expected}, found {found}"
            ),
            PlanError::Invalid(m) => write!(f, "invalid plan: {m}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<TypeError> for PlanError {
    fn from(e: TypeError) -> Self {
        match e {
            TypeError::Mismatch {
                context,
                expected,
                found,
            } => PlanError::TypeMismatch {
                context,
                expected,
                found,
            },
            TypeError::Invalid(m) => PlanError::Invalid(m),
            TypeError::ColumnOutOfRange { col, arity } => {
                PlanError::Invalid(format!("column {col} out of range (arity {arity})"))
            }
        }
    }
}

impl From<PlanError> for ExecError {
    fn from(e: PlanError) -> Self {
        ExecError::Plan(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_problem() {
        let e = PlanError::UnknownColumn {
            name: "l_shipmode".into(),
            schema: "(a:i32)".into(),
        };
        assert!(e.to_string().contains("l_shipmode"));
        let e = PlanError::TypeMismatch {
            context: "join key x = y".into(),
            expected: "integer".into(),
            found: DataType::Str,
        };
        assert!(e.to_string().contains("join key"));
        assert!(e.to_string().contains("str"));
    }

    #[test]
    fn converts_to_exec_error() {
        let e: ExecError = PlanError::UnknownTable("nope".into()).into();
        assert!(e.to_string().contains("nope"));
    }
}
