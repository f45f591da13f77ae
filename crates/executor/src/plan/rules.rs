//! One typing rule per [`LogicalPlan`] node kind.
//!
//! Each rule takes a node's resolved positional fields and its inputs and
//! returns the node's output types, or the [`TypeError`] that says why no
//! operator can run the node. The rules are written once and called from
//! two places, so they cannot drift apart:
//!
//! * [`crate::PlanBuilder`] resolves names, calls the rule and zips the
//!   types it returns with its alias names into the node's schema;
//! * the physical planner, which [`crate::verify()`] and every `lower`
//!   run, calls [`output_types`] on every node, compares the result with
//!   the schema the node declares, and maps the merge-input verdict
//!   ([`merge_input`]) to the feed of a merge join's inputs.
//!
//! Expressions, predicates and aggregates are typed by their own shared
//! functions ([`crate::Expr::type_of`], [`crate::Pred::check`],
//! [`crate::Agg::type_of`]), which the rules call.

use ma_vector::{DataType, Schema, Table};

use crate::expr::{col_type, mismatch, Agg, Pred, SortKey, TypeError, Value};
use crate::ops::{JoinKind, ProjItem};
use crate::plan::LogicalPlan;

/// A node's output types, or why it does not type.
pub(crate) type Types = Result<Vec<DataType>, TypeError>;

/// The output types `plan` derives from its inputs, by its kind's rule.
pub(crate) fn output_types(plan: &LogicalPlan) -> Types {
    match plan {
        LogicalPlan::Scan { table, cols, .. } => scan(table, cols),
        LogicalPlan::Filter { input, pred, .. } => filter(input.schema(), pred),
        LogicalPlan::Project { input, items, .. } => project(input.schema(), items),
        LogicalPlan::HashAgg {
            input, keys, aggs, ..
        } => hash_agg(input.schema(), keys, aggs),
        LogicalPlan::StreamAgg { input, aggs, .. } => stream_agg(input.schema(), aggs),
        LogicalPlan::HashJoin {
            build,
            probe,
            build_keys,
            probe_keys,
            payload,
            kind,
            defaults,
            ..
        } => hash_join(
            build.schema(),
            probe.schema(),
            build_keys,
            probe_keys,
            payload,
            *kind,
            defaults,
        ),
        LogicalPlan::MergeJoin {
            left,
            right,
            left_key,
            right_key,
            payload,
            ..
        } => merge_join(left, right, *left_key, *right_key, payload),
        LogicalPlan::Sort { input, keys, .. } => sort(input.schema(), keys),
    }
}

/// The node a rule failure names: its kind and label (`filter "Q1/sel"`,
/// `sort`).
pub(crate) fn node_name(plan: &LogicalPlan) -> String {
    let kind = match plan {
        LogicalPlan::Scan { .. } => "scan",
        LogicalPlan::Filter { .. } => "filter",
        LogicalPlan::Project { .. } => "project",
        LogicalPlan::HashAgg { .. } => "hash aggregation",
        LogicalPlan::StreamAgg { .. } => "stream aggregation",
        LogicalPlan::HashJoin { .. } => "hash join",
        LogicalPlan::MergeJoin { .. } => "merge join",
        LogicalPlan::Sort { .. } => "sort",
    };
    match plan.label() {
        Some(label) => format!("{kind} {label:?}"),
        None => kind.to_string(),
    }
}

/// The named columns of the table, each of which must exist.
pub(crate) fn scan(table: &Table, cols: &[String]) -> Types {
    let ty = |c: &String| match table.column(c) {
        Ok(col) => Ok(col.data_type()),
        Err(_) => Err(TypeError::Invalid(format!(
            "column {c} is absent from table {}",
            table.name()
        ))),
    };
    cols.iter().map(ty).collect()
}

/// The input's columns; the predicate must check against them.
pub(crate) fn filter(input: &Schema, pred: &Pred) -> Types {
    pred.check(input)?;
    Ok(input.types())
}

/// One column per item: a passed-through input column or a typed
/// expression.
pub(crate) fn project(input: &Schema, items: &[ProjItem]) -> Types {
    let ty = |item: &ProjItem| match item {
        ProjItem::Pass(i) => col_type(input, *i),
        ProjItem::Expr(e) => e.type_of(input),
    };
    items.iter().map(ty).collect()
}

/// A group key's type: any column but an `f64` (floats do not hash
/// portably: ±0.0, NaN bit patterns).
pub(crate) fn group_key(input: &Schema, col: usize) -> Result<DataType, TypeError> {
    match col_type(input, col)? {
        DataType::F64 => mismatch(
            format!("group key {}", input.field(col).name),
            "an integer or string column",
            DataType::F64,
        ),
        ty => Ok(ty),
    }
}

/// The group keys — at least one, each a [`group_key`] — then one column
/// per aggregate.
pub(crate) fn hash_agg(input: &Schema, keys: &[usize], aggs: &[Agg]) -> Types {
    if keys.is_empty() {
        return Err(TypeError::Invalid(
            "a hash aggregation needs group keys; use a stream aggregation".into(),
        ));
    }
    let keys = keys.iter().map(|&k| group_key(input, k));
    keys.chain(aggs.iter().map(|a| a.type_of(input))).collect()
}

/// One column per aggregate.
pub(crate) fn stream_agg(input: &Schema, aggs: &[Agg]) -> Types {
    aggs.iter().map(|a| a.type_of(input)).collect()
}

/// A join key (`side`: `"probe join"`, `"left merge-join"`, ...): an
/// integer column, since the join kernels hash and compare keys as `i64`.
fn join_key(side: &str, input: &Schema, col: usize) -> Result<DataType, TypeError> {
    match col_type(input, col)? {
        ty @ (DataType::I16 | DataType::I32 | DataType::I64) => Ok(ty),
        ty => mismatch(
            format!("{side} key {}", input.field(col).name),
            "an integer column",
            ty,
        ),
    }
}

/// The probe columns, then the build payload. The key lists pair up, at
/// least one pair, each key a [`join_key`]. A semi or anti join keeps
/// probe columns only, so it carries no payload. A left-single join fills
/// unmatched tuples with one default per payload column, of exactly that
/// column's type, and only numbers; no other kind takes defaults.
pub(crate) fn hash_join(
    build: &Schema,
    probe: &Schema,
    build_keys: &[usize],
    probe_keys: &[usize],
    payload: &[usize],
    kind: JoinKind,
    defaults: &[Value],
) -> Types {
    if build_keys.is_empty() || build_keys.len() != probe_keys.len() {
        return Err(TypeError::Invalid(format!(
            "a join needs one or more key pairs, found {} build and {} probe keys",
            build_keys.len(),
            probe_keys.len()
        )));
    }
    for (&b, &p) in build_keys.iter().zip(probe_keys) {
        join_key("probe join", probe, p)?;
        join_key("build join", build, b)?;
    }
    if matches!(kind, JoinKind::Semi | JoinKind::Anti) && !payload.is_empty() {
        return Err(TypeError::Invalid(format!(
            "{kind:?} join keeps probe columns only; payload is not allowed"
        )));
    }
    let wanted = if kind == JoinKind::LeftSingle {
        payload.len()
    } else {
        0
    };
    if defaults.len() != wanted {
        return Err(TypeError::Invalid(format!(
            "{kind:?} join takes {wanted} defaults, found {}",
            defaults.len()
        )));
    }
    let mut out = probe.types();
    for (i, &p) in payload.iter().enumerate() {
        let ty = col_type(build, p)?;
        if let Some(d) = defaults.get(i) {
            let name = &build.field(p).name;
            if ty == DataType::Str {
                return mismatch(
                    format!("left-single payload {name}"),
                    "a numeric column",
                    ty,
                );
            }
            if d.data_type() != ty {
                return mismatch(format!("left-single default for {name}"), ty, d.data_type());
            }
        }
        out.push(ty);
    }
    Ok(out)
}

/// The right columns, then the left payload. Both keys are
/// [`join_key`]s, and both inputs deliver them sorted ascending
/// ([`merge_input`]).
pub(crate) fn merge_join(
    left: &LogicalPlan,
    right: &LogicalPlan,
    left_key: usize,
    right_key: usize,
    payload: &[usize],
) -> Types {
    join_key("left merge-join", left.schema(), left_key)?;
    join_key("right merge-join", right.schema(), right_key)?;
    merge_input("left", left, left_key)?;
    merge_input("right", right, right_key)?;
    let mut out = right.schema().types();
    for &p in payload {
        out.push(col_type(left.schema(), p)?);
    }
    Ok(out)
}

/// The input's columns; every key must be one of them.
pub(crate) fn sort(input: &Schema, keys: &[SortKey]) -> Types {
    for k in keys {
        col_type(input, k.col)?;
    }
    Ok(input.types())
}

/// How a merge-join input delivers its key sorted ascending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MergeInput {
    /// A sort whose primary key is the join key, ascending: everything
    /// beneath it may run in any order.
    Sorted,
    /// A [`clustered_key_chain`]: sorted as long as it runs as one
    /// sequential pipeline down to its scan.
    Clustered,
}

/// The merge-input verdict on the `side` input of a merge join on `key`.
/// Anything but the two [`MergeInput`] shapes — hash aggregates and joins
/// (hash or arrival order), computed keys, non-clustering columns, sorts
/// on another column or descending — would make the merge silently drop
/// matches.
pub(crate) fn merge_input(
    side: &str,
    input: &LogicalPlan,
    key: usize,
) -> Result<MergeInput, TypeError> {
    let why = match input {
        LogicalPlan::Sort { keys, .. } => match keys.first() {
            Some(k) if k.col == key && !k.desc => return Ok(MergeInput::Sorted),
            Some(k) if k.col == key => "it sorts the key descending; the merge scans ascending",
            _ => "its sort's primary key is not the join key",
        },
        _ if clustered_key_chain(input, key) => return Ok(MergeInput::Clustered),
        _ => {
            "the key must pass through from the scanned table's clustering (first) \
             column, or the input must be sorted ascending by it"
        }
    };
    Err(TypeError::Invalid(format!(
        "{side} merge-join input is not sorted by the join key: {why}"
    )))
}

/// True when the merge key traces — through order-preserving nodes
/// (Filter narrows the selection vector; Project must pass the key
/// through unchanged) — to the base table's **first column**, which is by
/// convention its clustering key (every table this engine generates or
/// materializes is stored in first-column order).
fn clustered_key_chain(plan: &LogicalPlan, key: usize) -> bool {
    match plan {
        LogicalPlan::Scan { table, cols, .. } => {
            cols.get(key).map(String::as_str) == table.column_names().first().map(String::as_str)
        }
        LogicalPlan::Filter { input, .. } => clustered_key_chain(input, key),
        LogicalPlan::Project { input, items, .. } => match items.get(key) {
            Some(ProjItem::Pass(i)) => clustered_key_chain(input, *i),
            _ => false, // a computed key has no stored order
        },
        _ => false,
    }
}
