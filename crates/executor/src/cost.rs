//! Static memory & cost bounds — the planner's byte model and its report.
//!
//! Where [`mod@crate::analyze`] proves *value* facts (intervals, NDV,
//! expression safety), this module proves *resource* facts: for every
//! physical operator instance, an upper bound on its peak resident bytes,
//! plus a coarse work bound (tuples × per-op cost). It has two halves:
//!
//! * the **byte model** — per-column row widths and the per-operator
//!   bound formulas — which [`crate::plan::plan_physical`] consults once
//!   per node and stores on the [`PhysicalPlan`];
//! * the **report** — [`cost`] folds one [`OpCost`] per stage off those
//!   same nodes, so it prices exactly the pipeline
//!   [`crate::plan::instantiate`] builds and every number it prints is the
//!   number a [`crate::adaptive::MemTracker`] was registered with.
//!
//! The byte model is deliberately conservative (DESIGN.md §12 states the
//! roll-up rules and the soundness argument):
//!
//! * per-column row widths come from base-table statistics
//!   ([`ma_vector::ColumnStats::max_bytes`]) and propagate structurally
//!   through the plan (string widths never grow: `substr` shrinks,
//!   aggregates emit 8-byte scalars);
//! * hash-aggregate tables are bounded from the analyzer's group bound
//!   (slot arrays at 50% load, key storage, accumulators, one emitted
//!   output copy);
//! * join builds from the build side's row bound (key columns, payload
//!   row store, hashes/heads/chain, Bloom filter);
//! * sorts from the input row bound (row store + index + one emitted
//!   copy);
//! * exchanges from channel depth × batch size × a chunk byte bound.
//!
//! The per-query peak is the *sum* of all per-operator stage bounds, as
//! if every operator held its maximum simultaneously — pessimistic, but
//! sound without liveness reasoning. The fuzzer's byte-accounting oracle
//! re-checks `actual ≤ bound` on every execution (`crate::fuzz`).
//!
//! Findings compare the roll-up against [`crate::ExecConfig::memory_budget`]:
//! warnings by default, a [`crate::verify::VerifyError::MemoryBudget`]
//! rejection under `strict_memory`.

use ma_primitives::BloomFilter;
use ma_vector::{Column, DataType, EncColumn, Encoding, Schema, Table};

use crate::config::ExecConfig;
use crate::expr::{Agg, AggFunc, NumType};
use crate::ops::{key_row_width, ProjItem};
use crate::plan::{plan_physical, Exchange, LogicalPlan, PhysNode, PhysicalPlan};

/// Saturation ceiling for quantities derived from saturated row bounds
/// (large enough to dwarf any real budget, small enough that downstream
/// saturating sums stay meaningful).
const SAT: u64 = u64::MAX >> 8;

// ---------------------------------------------------------------------------
// report types
// ---------------------------------------------------------------------------

/// Proven bounds for one physical operator stage.
#[derive(Debug, Clone)]
pub struct OpCost {
    /// Stats label (or a synthesized name for label-less nodes).
    pub label: String,
    /// Operator kind, e.g. `"hash-agg"` or `"exchange"`.
    pub kind: &'static str,
    /// Parallel instances the planner will lower (partition verdict).
    pub instances: usize,
    /// Peak resident bytes proven for **one** instance.
    pub per_instance_bytes: u64,
    /// Stage total: `instances × per_instance_bytes` (each partition may
    /// in the worst case receive the whole input, so the per-instance
    /// figure is not divided).
    pub bytes: u64,
    /// Work bound: input tuples × a per-operator cost constant.
    pub work: u64,
}

/// A typed finding from the memory/cost pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CostFinding {
    /// The whole-query peak-byte roll-up exceeds the configured budget.
    BudgetExceeded {
        /// Proven peak bytes for the query.
        peak_bytes: u64,
        /// The configured [`ExecConfig::memory_budget`].
        budget: u64,
    },
    /// A single operator stage alone exceeds the configured budget.
    OpBudgetExceeded {
        /// The offending stage's label.
        label: String,
        /// The stage's proven bytes.
        bytes: u64,
        /// The configured [`ExecConfig::memory_budget`].
        budget: u64,
    },
}

impl std::fmt::Display for CostFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CostFinding::BudgetExceeded { peak_bytes, budget } => write!(
                f,
                "proven peak {} exceeds memory budget {}",
                fmt_bytes(*peak_bytes),
                fmt_bytes(*budget)
            ),
            CostFinding::OpBudgetExceeded {
                label,
                bytes,
                budget,
            } => write!(
                f,
                "operator `{label}` alone needs {} against memory budget {}",
                fmt_bytes(*bytes),
                fmt_bytes(*budget)
            ),
        }
    }
}

/// The full report: per-stage bounds, the roll-up, and findings.
#[derive(Debug, Clone)]
pub struct CostReport {
    /// Per-stage bounds, in plan walk order (top-down).
    pub ops: Vec<OpCost>,
    /// Whole-query peak-byte bound (sum of all stage bounds).
    pub peak_bytes: u64,
    /// Whole-query work bound.
    pub total_work: u64,
    /// Budget findings (empty when the plan fits the budget).
    pub findings: Vec<CostFinding>,
}

/// Runs the memory/cost pass over a logical plan under `cfg`: plans it
/// physically and prices every stage of that plan.
///
/// # Panics
///
/// When `plan` has no physical plan — a merge-join input that is neither
/// a sort nor a clustering-key chain, which [`crate::verify()`] rejects.
pub fn cost(plan: &LogicalPlan, cfg: &ExecConfig) -> CostReport {
    let phys = plan_physical(plan, cfg).expect("cost() takes a verified plan");
    report(&phys, cfg.memory_budget)
}

/// Prices an already-planned query against `budget`.
pub(crate) fn report(plan: &PhysicalPlan<'_>, budget: u64) -> CostReport {
    let mut ops = Vec::new();
    for node in plan.nodes() {
        price(node, &mut ops);
    }
    let peak_bytes = ops.iter().fold(0u64, |a, o| a.saturating_add(o.bytes));
    let total_work = ops.iter().fold(0u64, |a, o| a.saturating_add(o.work));
    let mut findings = Vec::new();
    if peak_bytes > budget {
        findings.push(CostFinding::BudgetExceeded { peak_bytes, budget });
    }
    for o in &ops {
        if o.bytes > budget {
            findings.push(CostFinding::OpBudgetExceeded {
                label: o.label.clone(),
                bytes: o.bytes,
                budget,
            });
        }
    }
    CostReport {
        ops,
        peak_bytes,
        total_work,
        findings,
    }
}

/// Renders a report as an aligned table (the `repro mem` / `repro
/// analyze` view).
pub fn render(report: &CostReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "peak bytes (proven): {}   work bound: {}",
        fmt_bytes(report.peak_bytes),
        report.total_work
    );
    for o in &report.ops {
        let _ = writeln!(
            out,
            "  {:<11} {:<28} x{:<2} {:>12}/inst {:>12} total",
            o.kind,
            o.label,
            o.instances,
            fmt_bytes(o.per_instance_bytes),
            fmt_bytes(o.bytes),
        );
    }
    if report.findings.is_empty() {
        let _ = writeln!(out, "  findings: none");
    } else {
        for fdg in &report.findings {
            let _ = writeln!(out, "  finding: {fdg}");
        }
    }
    out
}

/// Human-readable byte count (binary units, one decimal).
pub fn fmt_bytes(b: u64) -> String {
    const KIB: u64 = 1 << 10;
    const MIB: u64 = 1 << 20;
    const GIB: u64 = 1 << 30;
    if b >= SAT {
        "unbounded".to_string()
    } else if b >= GIB {
        format!("{:.1} GiB", b as f64 / GIB as f64)
    } else if b >= MIB {
        format!("{:.1} MiB", b as f64 / MIB as f64)
    } else if b >= KIB {
        format!("{:.1} KiB", b as f64 / KIB as f64)
    } else {
        format!("{b} B")
    }
}

// ---------------------------------------------------------------------------
// the cost-model partition verdict
// ---------------------------------------------------------------------------

/// Picks a partition count for a bound-triggered partitioned consumer:
/// enough partitions that each stays under `threshold` units of demand
/// (`ceil(demand / threshold)`), at least 2 (a single partition would be
/// the sequential plan), at most `cap` (the worker count). An explicit
/// `agg_partitions` knob bypasses this verdict.
pub(crate) fn pick_partitions(demand: usize, threshold: usize, cap: usize) -> usize {
    let per = threshold.max(1);
    let need = demand
        .checked_div(per)
        .unwrap_or(0)
        .saturating_add(usize::from(!demand.is_multiple_of(per)));
    need.clamp(2, cap.max(2))
}

// ---------------------------------------------------------------------------
// per-column row widths
// ---------------------------------------------------------------------------

/// Stored bytes of one value of a column. Numeric columns are their
/// scalar width; `Str` columns are the widest value's byte length plus an
/// 8-byte view, anchored at scans by [`ma_vector::ColumnStats::max_bytes`]
/// and carried structurally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Width {
    /// The sound width every byte bound uses.
    pub raw: u64,
    /// The width as *consumers of decoded vectors* see it: identical
    /// except for dictionary-coded `Str` columns, whose decoded form is an
    /// 8-byte view into the shared dictionary arena (the scan never
    /// re-materializes the string bytes). Integer codecs decode to
    /// full-width values and keep their raw width. Used only to *weight
    /// partition demand* (DESIGN.md §13).
    pub enc: u64,
}

impl Width {
    fn fixed(w: u64) -> Width {
        Width { raw: w, enc: w }
    }
}

/// Per-column widths of `plan`'s output, from its children's (`inputs`,
/// in [`LogicalPlan::children`] order).
pub(crate) fn node_widths(plan: &LogicalPlan, inputs: &[&[Width]]) -> Vec<Width> {
    match plan {
        LogicalPlan::Scan {
            table,
            cols,
            schema,
            ..
        } => cols
            .iter()
            .zip(schema.fields())
            .map(|(name, f)| match f.ty.fixed_width() {
                Some(w) => Width::fixed(w as u64),
                None => {
                    let i = table
                        .column_index(name)
                        .expect("scan columns resolve at plan build time");
                    let raw = (table.stats()[i].max_bytes as u64).saturating_add(8);
                    let dict = table.column_at(i).encoding() == Some(Encoding::Dict);
                    Width {
                        raw,
                        enc: if dict { 8 } else { raw },
                    }
                }
            })
            .collect(),
        LogicalPlan::Filter { .. } | LogicalPlan::Sort { .. } => inputs[0].to_vec(),
        LogicalPlan::Project {
            input,
            items,
            schema,
            ..
        } => {
            let w_in = inputs[0];
            // A computed Str expression (substr) never yields a longer
            // string than some input Str column.
            let strs = || {
                let fields = input.schema().fields().iter().zip(w_in);
                fields
                    .filter(|(f, _)| f.ty == DataType::Str)
                    .map(|(_, w)| w)
            };
            let max_str = Width {
                raw: strs().map(|w| w.raw).max().unwrap_or(8),
                enc: strs().map(|w| w.enc).max().unwrap_or(8),
            };
            items
                .iter()
                .zip(schema.fields())
                .map(|(it, f)| match it {
                    ProjItem::Pass(i) => w_in[*i],
                    ProjItem::Expr(_) => match f.ty.fixed_width() {
                        Some(w) => Width::fixed(w as u64),
                        None => max_str,
                    },
                })
                .collect()
        }
        LogicalPlan::HashAgg { keys, aggs, .. } => {
            let keys = keys.iter().map(|&k| inputs[0][k]);
            keys.chain(aggs.iter().map(|_| Width::fixed(8))).collect()
        }
        LogicalPlan::StreamAgg { aggs, .. } => vec![Width::fixed(8); aggs.len()],
        LogicalPlan::HashJoin {
            payload, schema, ..
        } => {
            let mut w = inputs[1].to_vec();
            if schema.len() > w.len() {
                w.extend(payload.iter().map(|&i| inputs[0][i]));
            }
            w
        }
        LogicalPlan::MergeJoin { payload, .. } => {
            let mut w = inputs[1].to_vec();
            w.extend(payload.iter().map(|&i| inputs[0][i]));
            w
        }
    }
}

/// Total stored bytes of one row with the given column widths.
pub(crate) fn row_width(widths: &[Width]) -> u64 {
    widths.iter().fold(0u64, |a, w| a.saturating_add(w.raw))
}

/// Scales a partition-verdict demand by the encoded/raw width ratio of
/// the columns the partitioned consumer holds (`cols`, or the whole row
/// when `None`): `ceil(demand × enc_width / raw_width)`. The partition
/// thresholds are calibrated in raw-width units, so when a consumer's
/// rows arrive dictionary-coded (8-byte views into a shared arena) the
/// same logical demand occupies proportionally fewer resident bytes and
/// the verdict discounts it. A no-op when nothing is dict-coded
/// (`enc == raw`). Verdict-only: the sound byte bounds stay raw.
pub(crate) fn enc_weighted_demand(
    demand: usize,
    widths: &[Width],
    cols: Option<&[usize]>,
) -> usize {
    let (mut raw, mut enc) = (0u64, 0u64);
    let mut add = |w: Width| {
        raw = raw.saturating_add(w.raw);
        enc = enc.saturating_add(w.enc);
    };
    match cols {
        Some(ks) => ks.iter().for_each(|&k| add(widths[k])),
        None => widths.iter().for_each(|&w| add(w)),
    }
    if enc >= raw || raw == 0 {
        return demand;
    }
    let scaled = (demand.min(SAT as usize) as u128)
        .saturating_mul(u128::from(enc))
        .div_ceil(u128::from(raw));
    usize::try_from(scaled).unwrap_or(usize::MAX)
}

// ---------------------------------------------------------------------------
// per-operator instance bounds
// ---------------------------------------------------------------------------

/// Peak resident bytes proven for **one** instance of `plan`'s operator,
/// given the node's own proven row bound (`rows`) and each child's row
/// bound and raw column widths (`inputs`, in [`LogicalPlan::children`]
/// order). Streaming nodes (filter, project) hold nothing. Hash routing
/// makes no distribution promise, so a partitioned aggregate or join
/// carries this full bound on *every* partition: in the worst case one
/// consumer sees all groups / the whole build side.
pub(crate) fn instance_bytes(
    plan: &LogicalPlan,
    rows: usize,
    inputs: &[(usize, &[Width])],
    vector_size: usize,
) -> u64 {
    match plan {
        LogicalPlan::Scan { table, cols, .. } => scan_resident_bytes(table, cols, vector_size),
        LogicalPlan::Filter { .. } | LogicalPlan::Project { .. } => 0,
        // An aggregate's output row bound *is* its group bound.
        LogicalPlan::HashAgg {
            input, keys, aggs, ..
        } => agg_instance_bound(rows, inputs[0].1, input.schema(), keys, aggs),
        // Scalar accumulators only; not facade-tracked (MEM_EXEMPT).
        LogicalPlan::StreamAgg { aggs, .. } => 16u64.saturating_mul(aggs.len() as u64),
        LogicalPlan::HashJoin {
            build_keys,
            payload,
            ..
        } => join_build_bound(inputs[0].0, inputs[0].1, build_keys.len(), payload),
        // The left (unique-key) side is materialized; merge join is not
        // facade-tracked (MEM_EXEMPT) but the bound still counts its store
        // plus an emitted copy, like a sort without index.
        LogicalPlan::MergeJoin { payload, .. } => {
            let (n, w_l) = inputs[0];
            let pay_w = payload
                .iter()
                .fold(row_width(w_l), |a, &i| a.saturating_add(w_l[i].raw));
            tuples(n).saturating_mul(pay_w).saturating_mul(2)
        }
        LogicalPlan::Sort { .. } => sort_bound(inputs[0].0, row_width(inputs[0].1)),
    }
}

/// Open-addressing capacity for `n` entries at 50% load with the group
/// tables' / join builds' growth policy: `next_pow2(2n)`, at least 64.
fn pow2_cap(n: usize) -> u64 {
    match n.saturating_mul(2).checked_next_power_of_two() {
        Some(c) => c.max(64) as u64,
        None => SAT,
    }
}

/// One [`crate::ops::HashAggregate`] instance holding up to `g` groups of
/// an input with column widths `w_in`: group-table slots (16 bytes each at
/// ≤50% load), stored key bytes for the byte-keyed table path, one key
/// builder per group column, accumulators (16 bytes for `sum_i64`'s
/// 128-bit sums, 8 otherwise), plus one emitted output copy.
fn agg_instance_bound(
    g: usize,
    w_in: &[Width],
    input: &Schema,
    keys: &[usize],
    aggs: &[Agg],
) -> u64 {
    let g64 = g.min(usize::MAX >> 8) as u64;
    let key_types: Vec<DataType> = keys.iter().map(|&k| input.fields()[k].ty).collect();
    let single_int = keys.len() == 1 && key_types[0] != DataType::Str;
    let table = if single_int {
        pow2_cap(g).saturating_mul(16)
    } else {
        // Stored key width: the raw string for the single-Str path, the
        // operator's key row for the multi-column path.
        let ser: u64 = if keys.len() == 1 {
            // raw bytes; the +8 view is added below
            w_in[keys[0]].raw.saturating_sub(8)
        } else {
            keys.iter().zip(&key_types).fold(0u64, |a, (&k, &ty)| {
                // An f64 key is rejected by `HashAggregate::new`.
                let fixed = key_row_width(ty).map_or(0, u64::from);
                let value = match ty {
                    DataType::Str => w_in[k].raw.saturating_sub(8),
                    _ => 0,
                };
                a.saturating_add(fixed).saturating_add(value)
            })
        };
        pow2_cap(g)
            .saturating_mul(16)
            .saturating_add(g64.saturating_mul(ser.saturating_add(8)))
    };
    let builders = keys.iter().fold(0u64, |a, &k| {
        a.saturating_add(g64.saturating_mul(w_in[k].raw))
    });
    let accs = aggs.iter().fold(0u64, |a, s| {
        let w = match s.of {
            Some((AggFunc::Sum, NumType::I64, _)) => 16,
            _ => 8,
        };
        a.saturating_add(g64.saturating_mul(w))
    });
    let out_row_w = keys
        .iter()
        .fold(0u64, |a, &k| a.saturating_add(w_in[k].raw))
        .saturating_add(8u64.saturating_mul(aggs.len() as u64));
    table
        .saturating_add(builders)
        .saturating_add(accs)
        .saturating_add(g64.saturating_mul(out_row_w))
}

/// One [`crate::ops::HashJoin`] instance's build side holding up to `r`
/// rows of widths `w_b`: key columns (8 bytes per key per row), the
/// payload row store, and the `finish` structures (row hashes, chain,
/// head slots, Bloom filter).
fn join_build_bound(r: usize, w_b: &[Width], build_keys: usize, payload: &[usize]) -> u64 {
    let r64 = r.min(usize::MAX >> 8) as u64;
    let pay_w = payload
        .iter()
        .fold(0u64, |a, &i| a.saturating_add(w_b[i].raw));
    let keys = r64.saturating_mul(8).saturating_mul(build_keys as u64);
    let store = r64.saturating_mul(pay_w);
    let hashes = r64.saturating_mul(8);
    let chain = r64.saturating_mul(4);
    let heads = pow2_cap(r).saturating_mul(4);
    let bloom = if r >= (1usize << 48) {
        SAT
    } else {
        BloomFilter::bytes_for_keys(r) as u64
    };
    keys.saturating_add(store)
        .saturating_add(hashes)
        .saturating_add(chain)
        .saturating_add(heads)
        .saturating_add(bloom)
}

/// A [`crate::ops::Sort`] over up to `n` rows of `row_w` bytes: the
/// materialized row store, the 4-byte sort index, and one emitted copy of
/// the output chunks.
fn sort_bound(n: usize, row_w: u64) -> u64 {
    let n = tuples(n);
    n.saturating_mul(row_w)
        .saturating_mul(2)
        .saturating_add(n.saturating_mul(4))
}

/// Resident bytes a scan stage holds: the *stored* representation of the
/// scanned columns (the packed words + metadata for encoded columns, the
/// raw vectors/arena otherwise — [`ma_vector::table::Column::resident_bytes`])
/// plus one vector's worth of decode scratch per encoded column (the
/// decoded output vector the flavored decode kernels fill). This is the
/// term the `repro compress` experiment compares across storage modes:
/// encoding shrinks the stored bytes while adding only `vector_size ×
/// decoded-width` scratch.
fn scan_resident_bytes(table: &Table, cols: &[String], vector_size: usize) -> u64 {
    cols.iter().fold(0u64, |acc, name| {
        let i = table
            .column_index(name)
            .expect("scan columns resolve at plan build time");
        let col = table.column_at(i);
        let mut b = col.resident_bytes() as u64;
        if let Column::Enc(e) = col {
            // Decoded element width: full-width values for the integer
            // codecs, an 8-byte view + 4-byte code for dictionary strings.
            let w = match &**e {
                EncColumn::For(c) => c.dt.fixed_width().unwrap_or(8) as u64,
                EncColumn::Delta(_) => 4,
                EncColumn::Dict(_) => 12,
            };
            b = b.saturating_add((vector_size as u64).saturating_mul(w));
        }
        acc.saturating_add(b)
    })
}

// ---------------------------------------------------------------------------
// the report: one fold over the physical plan
// ---------------------------------------------------------------------------

/// Work-bound cost constants (per input tuple).
const W_SCAN: u64 = 1;
const W_FILTER: u64 = 1;
const W_PROJECT: u64 = 2;
const W_AGG: u64 = 4;
const W_JOIN_BUILD: u64 = 3;
const W_JOIN_PROBE: u64 = 2;
const W_EXCHANGE: u64 = 1;

fn tuples(rows: usize) -> u64 {
    rows.min(usize::MAX >> 8) as u64
}

/// Appends `node`'s stages: its exchange (if it has one), then the
/// operator itself. Every byte figure is read off the node — the same
/// field [`crate::plan::instantiate`] registers the stage's
/// [`crate::adaptive::MemTracker`] with.
fn price(node: &PhysNode<'_>, ops: &mut Vec<OpCost>) {
    let rows_in = |i: usize| node.children.get(i).map_or(0, |c| tuples(c.rows));
    let label = match node.logical {
        LogicalPlan::Scan { table, .. } => table.name(),
        LogicalPlan::Sort { .. } => "sort",
        LogicalPlan::Filter { label, .. }
        | LogicalPlan::Project { label, .. }
        | LogicalPlan::HashAgg { label, .. }
        | LogicalPlan::StreamAgg { label, .. }
        | LogicalPlan::HashJoin { label, .. }
        | LogicalPlan::MergeJoin { label, .. } => label,
    };
    // An exchange stage holds `buffered_chunks` chunks of at most
    // `chunk_bytes` each; it is listed once per producer feeding it.
    let exchange_stage = match node.exchange {
        Exchange::None => None,
        // the aggregate's routed input
        Exchange::HashPartition { .. } => Some((format!("{label}/exchange"), rows_in(0))),
        Exchange::Parallel { .. } | Exchange::Merge { .. } => {
            Some(("scan-shard/exchange".to_string(), tuples(node.rows)))
        }
    };
    if let Some((label, streamed)) = exchange_stage {
        push(
            ops,
            &label,
            "exchange",
            node.exchange.producers(),
            node.exchange
                .buffered_chunks()
                .saturating_mul(node.exchange.chunk_bytes()),
            streamed.saturating_mul(W_EXCHANGE),
        );
    }
    let (kind, work) = match node.logical {
        LogicalPlan::Scan { .. } => ("scan", tuples(node.rows).saturating_mul(W_SCAN)),
        LogicalPlan::Filter { .. } => ("filter", rows_in(0).saturating_mul(W_FILTER)),
        LogicalPlan::Project { .. } => ("project", rows_in(0).saturating_mul(W_PROJECT)),
        LogicalPlan::HashAgg { .. } => ("hash-agg", rows_in(0).saturating_mul(W_AGG)),
        LogicalPlan::StreamAgg { .. } => ("stream-agg", rows_in(0).saturating_mul(W_AGG)),
        LogicalPlan::HashJoin { .. } => ("hash-join", join_work(rows_in(0), rows_in(1))),
        LogicalPlan::MergeJoin { .. } => ("merge-join", join_work(rows_in(0), rows_in(1))),
        LogicalPlan::Sort { .. } => {
            let n = rows_in(0);
            let logn = if n <= 1 {
                1
            } else {
                u64::from(n.ilog2()).saturating_add(1)
            };
            ("sort", n.saturating_mul(logn))
        }
    };
    push(
        ops,
        label,
        kind,
        node.instances(),
        node.instance_bytes,
        work,
    );
}

fn join_work(build: u64, probe: u64) -> u64 {
    build
        .saturating_mul(W_JOIN_BUILD)
        .saturating_add(probe.saturating_mul(W_JOIN_PROBE))
}

fn push(
    ops: &mut Vec<OpCost>,
    label: &str,
    kind: &'static str,
    instances: usize,
    per_instance_bytes: u64,
    work: u64,
) {
    let bytes = per_instance_bytes.saturating_mul(instances as u64);
    ops.push(OpCost {
        label: label.to_string(),
        kind,
        instances,
        per_instance_bytes,
        bytes,
        work,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::JoinKind;
    use crate::plan::{sum_i64, Catalog, PlanBuilder};
    use ma_vector::{ColumnBuilder, Table};
    use std::collections::HashMap;
    use std::sync::Arc;

    fn catalog(rows: usize) -> HashMap<String, Arc<Table>> {
        let mut id = ColumnBuilder::with_capacity(ma_vector::DataType::I64, rows);
        let mut k = ColumnBuilder::with_capacity(ma_vector::DataType::I32, rows);
        let mut s = ColumnBuilder::with_capacity(ma_vector::DataType::Str, rows);
        for i in 0..rows {
            id.push_i64(i as i64);
            k.push_i32((i % 5) as i32);
            s.push_str(if i % 2 == 0 { "even" } else { "odd-row" });
        }
        let t = Table::new(
            "t",
            vec![
                ("id".into(), id.finish()),
                ("k".into(), k.finish()),
                ("s".into(), s.finish()),
            ],
        )
        .unwrap();
        let mut d_k = ColumnBuilder::with_capacity(ma_vector::DataType::I32, 3);
        let mut d_v = ColumnBuilder::with_capacity(ma_vector::DataType::I64, 3);
        for i in 0..3 {
            d_k.push_i32(i);
            d_v.push_i64(i64::from(i) * 100);
        }
        let d = Table::new(
            "d",
            vec![("dk".into(), d_k.finish()), ("dv".into(), d_v.finish())],
        )
        .unwrap();
        let mut m = HashMap::new();
        m.insert("t".to_string(), Arc::new(t));
        m.insert("d".to_string(), Arc::new(d));
        m
    }

    fn agg_plan(cat: &dyn Catalog) -> LogicalPlan {
        PlanBuilder::scan(cat, "t", &["id", "k"])
            .hash_agg(&["k"], vec![sum_i64("id")], "agg")
            .build()
            .unwrap()
    }

    #[test]
    fn pick_partitions_scales_with_demand() {
        // at the engagement threshold exactly: one partition's worth of
        // demand, clamped up to the minimum parallel plan
        assert_eq!(pick_partitions(1000, 1000, 4), 2);
        assert_eq!(pick_partitions(1001, 1000, 4), 2);
        assert_eq!(pick_partitions(3500, 1000, 4), 4);
        // demand beyond the worker cap clamps down
        assert_eq!(pick_partitions(90_000, 1000, 4), 4);
        assert_eq!(pick_partitions(usize::MAX, 0, 8), 8);
    }

    #[test]
    fn scan_widths_anchor_at_stats() {
        let cat = catalog(10);
        let plan = PlanBuilder::scan(&cat, "t", &["id", "k", "s"])
            .build()
            .unwrap();
        // i64=8, i32=4, Str = longest ("odd-row"=7) + 8-byte view
        let widths = node_widths(&plan, &[]);
        let raw: Vec<u64> = widths.iter().map(|w| w.raw).collect();
        assert_eq!(raw, vec![8, 4, 15]);
        assert_eq!(row_width(&widths), 27);
    }

    /// The one stage of `kind` in the plan's report.
    fn stage(plan: &LogicalPlan, kind: &str) -> OpCost {
        let report = cost(plan, &ExecConfig::default());
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        let mut ops = report.ops.into_iter().filter(|o| o.kind == kind);
        let op = ops.next().expect("stage present");
        assert!(ops.next().is_none());
        op
    }

    #[test]
    fn agg_bound_is_finite_and_covers_table_floor() {
        let cat = catalog(100);
        let b = stage(&agg_plan(&cat), "hash-agg").per_instance_bytes;
        // 5 groups: 64-slot floor (1024 B) + builders + accs + output
        assert!(b >= 1024, "bound {b} below the slot-array floor");
        assert!(b < 16 << 10, "bound {b} implausibly large for 5 groups");
    }

    #[test]
    fn report_has_no_findings_under_default_budget() {
        let cat = catalog(1000);
        let plan = agg_plan(&cat);
        let report = cost(&plan, &ExecConfig::default());
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert!(report.peak_bytes > 0);
        assert!(report.total_work > 0);
        assert!(report.ops.iter().any(|o| o.kind == "hash-agg"));
    }

    #[test]
    fn tiny_budget_yields_typed_findings() {
        let cat = catalog(1000);
        let plan = agg_plan(&cat);
        let cfg = ExecConfig::default().with_memory_budget(16);
        let report = cost(&plan, &cfg);
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, CostFinding::BudgetExceeded { .. })));
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, CostFinding::OpBudgetExceeded { .. })));
        let rendered = render(&report);
        assert!(rendered.contains("finding:"), "{rendered}");
    }

    #[test]
    fn sort_bound_doubles_the_store() {
        let cat = catalog(100);
        let plan = PlanBuilder::scan(&cat, "t", &["id"])
            .sort(&[crate::plan::asc("id")])
            .build()
            .unwrap();
        // 100 rows × 8 B × 2 copies + 4 B index
        assert_eq!(
            stage(&plan, "sort").per_instance_bytes,
            100 * 8 * 2 + 100 * 4
        );
    }

    #[test]
    fn in_fragment_join_prices_one_table_and_no_exchange_of_its_own() {
        // Big enough that 4 workers shard the probe scan.
        let cat = catalog(40_000);
        let plan = PlanBuilder::scan(&cat, "t", &["k", "id"])
            .hash_join(
                PlanBuilder::scan(&cat, "d", &["dk", "dv"]),
                &[("k", "dk")],
                &["dv"],
                JoinKind::Inner,
                false,
                "j",
            )
            .build()
            .unwrap();
        let stages = |cfg: &ExecConfig| -> Vec<(String, usize)> {
            let ops = cost(&plan, cfg).ops.into_iter();
            ops.filter(|o| o.label.starts_with('j') || o.kind == "exchange")
                .map(|o| (o.label, o.instances))
                .collect()
        };
        // Probing in the fragments: the chain's one Parallel, one table.
        let auto = ExecConfig::default().with_workers(4);
        assert_eq!(
            stages(&auto),
            [("scan-shard/exchange".to_string(), 4), ("j".to_string(), 1)]
        );
    }

    #[test]
    fn join_bound_scales_with_build_rows() {
        let cat = catalog(1000);
        let plan = PlanBuilder::scan(&cat, "t", &["k", "id"])
            .hash_join(
                PlanBuilder::scan(&cat, "d", &["dk", "dv"]),
                &[("k", "dk")],
                &["dv"],
                JoinKind::Inner,
                true,
                "j",
            )
            .build()
            .unwrap();
        let b = stage(&plan, "hash-join").per_instance_bytes;
        // 3 build rows: 64-head floor (256 B) + bloom floor dominate
        assert!(b >= 256, "bound {b} below the head-array floor");
    }
}
