//! Schema-aware logical plans and the physical planner.
//!
//! This module is the query-authoring API of the engine. Queries are
//! written against **named columns** with the fluent [`PlanBuilder`]
//! (`scan(...).filter(...).hash_agg(...).sort(...)`), which tracks a
//! [`Schema`] through every node and resolves names to positions at plan
//! *build* time — unknown columns and type mismatches come back as typed
//! [`PlanError`]s before any operator exists.
//!
//! The result is a [`LogicalPlan`]: a purely declarative operator tree
//! that knows nothing about threads, morsels or exchanges.
//! [`plan_physical`] — the physical planner — decides every parallelism
//! question centrally and writes the answers down as a [`PhysicalPlan`];
//! [`instantiate`] builds the [`crate::BoxOp`] pipeline that plan
//! describes ([`lower`] is the two in sequence):
//!
//! * large scans under order-insensitive consumers are sharded into
//!   morsel-driven worker fragments united by a [`crate::ops::Parallel`]
//!   exchange;
//! * selections, projections and hash-join probes sitting on a scan are
//!   pushed *into* the scan fragments, so the paper's hot selection, map
//!   and probe primitives parallelize with per-worker bandit state, each
//!   join over one build table the fragments share;
//! * pipelines feeding order-sensitive consumers (merge join) are safe
//!   **by construction**: a merge-join input whose key carries the
//!   table's clustering order runs as one sequential pipeline down to its
//!   scan, a sorted input plans freely beneath its sort, and anything
//!   else has no physical plan. A query author cannot wire an
//!   order-destroying exchange under a merge join.
//!
//! [`LogicalPlan`] implements [`std::fmt::Display`] as an `EXPLAIN`-style
//! indented tree with resolved schemas and the planner's ordered-vs-
//! shardable verdict per scan.

mod builder;
mod error;
mod explain;
pub(crate) mod expr;
mod lower;
pub(crate) mod rules;

pub use crate::expr::{lit_f64, lit_i64, Agg, SortKey};
pub use builder::PlanBuilder;
pub use error::PlanError;
pub use explain::explain_physical;
pub use expr::{
    asc, col, count, desc, max_f64, max_i64, min_f64, min_i64, substr, sum_f64, sum_i64, NamedExpr,
    NamedPred,
};
pub use lower::{instantiate, lower, plan_physical, Exchange, NodeId, PhysNode, PhysicalPlan};

use std::sync::Arc;

use ma_vector::{Schema, Table};

use crate::expr::{Pred, Value};
use crate::ops::{JoinKind, ProjItem};

/// A source of named tables for [`PlanBuilder::scan`].
pub trait Catalog {
    /// Looks up a table by name.
    fn lookup(&self, name: &str) -> Option<Arc<Table>>;

    /// The **exact** row count of a base table, or `None` when the table
    /// doesn't exist. This is the planner's cardinality anchor: scan
    /// nodes report it as their row estimate, so the aggregate
    /// partitioning verdict (`ExecConfig::agg_min_partition_groups`) never
    /// over-triggers on small base tables. Implementations backed by
    /// materialized tables get it for free; a future disk-backed catalog
    /// must answer from metadata without loading the table.
    fn row_count(&self, name: &str) -> Option<usize> {
        self.lookup(name).map(|t| t.rows())
    }

    /// Exact statistics for one column of a base table (the abstract
    /// interpreter's base facts; see `crate::analyze`), or `None` when
    /// the table or column doesn't exist. The default computes (and
    /// memoizes) them from the materialized table; a metadata-backed
    /// catalog can answer from stored stats instead.
    fn column_stats(&self, table: &str, column: &str) -> Option<ma_vector::ColumnStats> {
        let t = self.lookup(table)?;
        let i = t.column_index(column).ok()?;
        Some(t.stats()[i].clone())
    }
}

/// A resolved logical operator tree.
///
/// Nodes carry positional indices (already resolved against their input's
/// [`Schema`]) plus the output schema, so lowering is mechanical and
/// rendering can map every index back to a name.
pub enum LogicalPlan {
    /// Read columns of a base table.
    Scan {
        /// The table scanned.
        table: Arc<Table>,
        /// Source column names, in output order (pre-alias).
        cols: Vec<String>,
        /// The catalog's exact row count for the table
        /// ([`Catalog::row_count`], captured at plan-build time): the
        /// cardinality anchor the physical planner's row bounds and
        /// partitioning verdicts start from.
        base_rows: usize,
        /// Output schema (post-alias names).
        schema: Schema,
    },
    /// Narrow the selection vector by a predicate.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Resolved predicate.
        pred: Pred,
        /// Display label of the node's primitive instances.
        label: String,
        /// Output schema (same columns as the input).
        schema: Schema,
    },
    /// Compute/pass columns.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Resolved projection items.
        items: Vec<ProjItem>,
        /// Display label.
        label: String,
        /// Output schema.
        schema: Schema,
    },
    /// Grouped hash aggregation.
    HashAgg {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Group-key column indices.
        keys: Vec<usize>,
        /// Aggregates.
        aggs: Vec<Agg>,
        /// Display label.
        label: String,
        /// Output schema: keys then aggregates.
        schema: Schema,
    },
    /// Ungrouped aggregation (one output row).
    StreamAgg {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Aggregates.
        aggs: Vec<Agg>,
        /// Display label.
        label: String,
        /// Output schema.
        schema: Schema,
    },
    /// Hash join; output = probe columns (++ build payload for
    /// inner/left-single).
    HashJoin {
        /// Build-side plan (materialized into the hash table).
        build: Box<LogicalPlan>,
        /// Probe-side plan (streamed).
        probe: Box<LogicalPlan>,
        /// Build key column indices.
        build_keys: Vec<usize>,
        /// Probe key column indices (aligned with `build_keys`).
        probe_keys: Vec<usize>,
        /// Build columns appended to the output.
        payload: Vec<usize>,
        /// Join semantics.
        kind: JoinKind,
        /// Bloom-filter probe acceleration.
        bloom: bool,
        /// Left-single default payload values (empty otherwise).
        defaults: Vec<Value>,
        /// Display label.
        label: String,
        /// Output schema.
        schema: Schema,
    },
    /// Merge join over key-sorted inputs; output = right columns ++ left
    /// payload. Both children are order-sensitive: a clustering-key chain
    /// runs sequentially down to its scan, a sort input plans freely
    /// beneath the sort.
    MergeJoin {
        /// Left (unique-key) plan, materialized.
        left: Box<LogicalPlan>,
        /// Right (streaming) plan.
        right: Box<LogicalPlan>,
        /// Left key column index.
        left_key: usize,
        /// Right key column index.
        right_key: usize,
        /// Left columns appended to the output.
        payload: Vec<usize>,
        /// Display label.
        label: String,
        /// Output schema.
        schema: Schema,
    },
    /// Sort (optionally truncated to a top-N).
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort keys, leftmost primary.
        keys: Vec<SortKey>,
        /// Optional row limit.
        limit: Option<usize>,
        /// Output schema (same columns as the input).
        schema: Schema,
    },
}

impl LogicalPlan {
    /// The node's output schema.
    pub fn schema(&self) -> &Schema {
        match self {
            LogicalPlan::Scan { schema, .. }
            | LogicalPlan::Filter { schema, .. }
            | LogicalPlan::Project { schema, .. }
            | LogicalPlan::HashAgg { schema, .. }
            | LogicalPlan::StreamAgg { schema, .. }
            | LogicalPlan::HashJoin { schema, .. }
            | LogicalPlan::MergeJoin { schema, .. }
            | LogicalPlan::Sort { schema, .. } => schema,
        }
    }

    /// The node's display label; scans and sorts have none. Labels name
    /// nodes in reports and need not be unique: identity is the node's
    /// [`NodeId`].
    pub fn label(&self) -> Option<&str> {
        match self {
            LogicalPlan::Filter { label, .. }
            | LogicalPlan::Project { label, .. }
            | LogicalPlan::HashAgg { label, .. }
            | LogicalPlan::StreamAgg { label, .. }
            | LogicalPlan::HashJoin { label, .. }
            | LogicalPlan::MergeJoin { label, .. } => Some(label),
            LogicalPlan::Scan { .. } | LogicalPlan::Sort { .. } => None,
        }
    }

    /// The node's inputs in plan order: build before probe, left before
    /// right. Every tree walk (analysis, physical planning, rendering)
    /// numbers nodes pre-order over this order.
    pub fn children(&self) -> impl Iterator<Item = &LogicalPlan> {
        let (first, second): (Option<&LogicalPlan>, Option<&LogicalPlan>) = match self {
            LogicalPlan::Scan { .. } => (None, None),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::HashAgg { input, .. }
            | LogicalPlan::StreamAgg { input, .. }
            | LogicalPlan::Sort { input, .. } => (Some(input), None),
            LogicalPlan::HashJoin { build, probe, .. } => (Some(build), Some(probe)),
            LogicalPlan::MergeJoin { left, right, .. } => (Some(left), Some(right)),
        };
        first.into_iter().chain(second)
    }
}

impl std::fmt::Debug for LogicalPlan {
    /// Debug output reuses the EXPLAIN rendering (the operator tree is
    /// the useful view; `Arc<Table>` contents are not).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self}")
    }
}

impl Catalog for std::collections::HashMap<String, Arc<Table>> {
    fn lookup(&self, name: &str) -> Option<Arc<Table>> {
        self.get(name).cloned()
    }

    fn row_count(&self, name: &str) -> Option<usize> {
        self.get(name).map(|t| t.rows())
    }
}
