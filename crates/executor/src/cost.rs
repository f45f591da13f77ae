//! Static memory & cost bounds — the planner's second dataflow pass.
//!
//! Where [`mod@crate::analyze`] proves *value* facts (intervals, NDV,
//! expression safety), this pass proves *resource* facts: for every
//! physical operator instance the plan will lower to, an upper bound on
//! its peak resident bytes, plus a coarse work bound (tuples × per-op
//! cost). The walk mirrors the physical planner's decisions — partition
//! verdicts, morsel sharding, exchange shapes — so the bounds describe
//! the pipeline [`crate::plan::lower`] actually builds.
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
//! sound without liveness reasoning. Each bound is also handed to the
//! lowered operator's [`crate::adaptive::MemTracker`] slot, and the
//! fuzzer's byte-accounting oracle re-checks `actual ≤ bound` on every
//! execution (`crate::fuzz`).
//!
//! Findings compare the roll-up against [`crate::ExecConfig::memory_budget`]:
//! warnings by default, a [`crate::verify::VerifyError::MemoryBudget`]
//! rejection under `strict_memory`.

use ma_primitives::BloomFilter;
use ma_vector::{Column, DataType, EncColumn, Encoding, Table};

use crate::analyze;
use crate::config::ExecConfig;
use crate::ops::exchange::{CHANNEL_DEPTH_PER_WORKER, CHUNKS_PER_MESSAGE};
use crate::ops::{key_row_width, AggSpec, ProjItem};
use crate::plan::lower::{agg_partition_count, join_partition_count, shardable_chain};
use crate::plan::LogicalPlan;

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

/// Runs the memory/cost pass over a logical plan under `cfg`.
pub fn cost(plan: &LogicalPlan, cfg: &ExecConfig) -> CostReport {
    let mut ops = Vec::new();
    walk(plan, cfg, false, true, &mut ops);
    let peak_bytes = ops.iter().fold(0u64, |a, o| a.saturating_add(o.bytes));
    let total_work = ops.iter().fold(0u64, |a, o| a.saturating_add(o.work));
    let mut findings = Vec::new();
    if peak_bytes > cfg.memory_budget {
        findings.push(CostFinding::BudgetExceeded {
            peak_bytes,
            budget: cfg.memory_budget,
        });
    }
    for o in &ops {
        if o.bytes > cfg.memory_budget {
            findings.push(CostFinding::OpBudgetExceeded {
                label: o.label.clone(),
                bytes: o.bytes,
                budget: cfg.memory_budget,
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
/// the sequential plan), at most `cap` (the worker count). Explicit
/// `agg_partitions` / `join_partitions` knobs bypass this verdict.
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

/// Per-column stored row width in bytes for a node's output. Numeric
/// columns are their scalar width; `Str` columns are the widest value's
/// byte length plus an 8-byte view, anchored at scans by
/// [`ma_vector::ColumnStats::max_bytes`] and carried structurally.
pub(crate) fn col_widths(plan: &LogicalPlan) -> Vec<u64> {
    col_widths_with(plan, false)
}

/// [`col_widths`] as the *consumers of decoded vectors* see it: identical
/// except at scans of dictionary-coded `Str` columns, whose decoded form
/// is an 8-byte view into the shared dictionary arena (the scan never
/// re-materializes the string bytes), so their effective row width is 8
/// rather than `max_bytes + 8`. Integer codecs decode to full-width
/// values and keep their raw width. Used only to *weight partition
/// demand* (DESIGN.md §13); the soundness-critical byte bounds keep the
/// conservative raw widths.
pub(crate) fn enc_col_widths(plan: &LogicalPlan) -> Vec<u64> {
    col_widths_with(plan, true)
}

fn col_widths_with(plan: &LogicalPlan, enc: bool) -> Vec<u64> {
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
                Some(w) => w as u64,
                None => {
                    let i = table
                        .column_index(name)
                        .expect("scan columns resolve at plan build time");
                    if enc && table.column_at(i).encoding() == Some(Encoding::Dict) {
                        8
                    } else {
                        (table.stats()[i].max_bytes as u64).saturating_add(8)
                    }
                }
            })
            .collect(),
        LogicalPlan::Filter { input, .. } | LogicalPlan::Sort { input, .. } => {
            col_widths_with(input, enc)
        }
        LogicalPlan::Project {
            input,
            items,
            schema,
            ..
        } => {
            let w_in = col_widths_with(input, enc);
            // A computed Str expression (substr) never yields a longer
            // string than some input Str column.
            let max_str = input
                .schema()
                .fields()
                .iter()
                .zip(&w_in)
                .filter(|(f, _)| f.ty == DataType::Str)
                .map(|(_, &w)| w)
                .max()
                .unwrap_or(8);
            items
                .iter()
                .zip(schema.fields())
                .map(|(it, f)| match it {
                    ProjItem::Pass(i) => w_in[*i],
                    ProjItem::Expr(_) => match f.ty.fixed_width() {
                        Some(w) => w as u64,
                        None => max_str,
                    },
                })
                .collect()
        }
        LogicalPlan::HashAgg {
            input, keys, aggs, ..
        } => {
            let w_in = col_widths_with(input, enc);
            let mut w: Vec<u64> = keys.iter().map(|&k| w_in[k]).collect();
            w.extend((0..aggs.len()).map(|_| 8u64));
            w
        }
        LogicalPlan::StreamAgg { aggs, .. } => vec![8; aggs.len()],
        LogicalPlan::HashJoin {
            build,
            probe,
            payload,
            schema,
            ..
        } => {
            let mut w = col_widths_with(probe, enc);
            if schema.len() > w.len() {
                let w_b = col_widths_with(build, enc);
                w.extend(payload.iter().map(|&i| w_b[i]));
            }
            w
        }
        LogicalPlan::MergeJoin {
            left,
            right,
            payload,
            ..
        } => {
            let mut w = col_widths_with(right, enc);
            let w_l = col_widths_with(left, enc);
            w.extend(payload.iter().map(|&i| w_l[i]));
            w
        }
    }
}

/// Total stored bytes of one row of a node's output.
pub(crate) fn row_width(plan: &LogicalPlan) -> u64 {
    col_widths(plan)
        .iter()
        .fold(0u64, |a, &b| a.saturating_add(b))
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
    plan: &LogicalPlan,
    cols: Option<&[usize]>,
) -> usize {
    let raw_w = col_widths(plan);
    let enc_w = enc_col_widths(plan);
    let sum = |w: &[u64]| -> u64 {
        match cols {
            Some(ks) => ks.iter().fold(0u64, |a, &k| a.saturating_add(w[k])),
            None => w.iter().fold(0u64, |a, &b| a.saturating_add(b)),
        }
    };
    let (raw, enc) = (sum(&raw_w), sum(&enc_w));
    if enc >= raw || raw == 0 {
        return demand;
    }
    let scaled = (demand.min(SAT as usize) as u128)
        .saturating_mul(u128::from(enc))
        .div_ceil(u128::from(raw));
    usize::try_from(scaled).unwrap_or(usize::MAX)
}

// ---------------------------------------------------------------------------
// per-operator bound helpers (shared with `plan::lower`)
// ---------------------------------------------------------------------------

/// Open-addressing capacity for `n` entries at 50% load with the group
/// tables' / join builds' growth policy: `next_pow2(2n)`, at least 64.
fn pow2_cap(n: usize) -> u64 {
    match n.saturating_mul(2).checked_next_power_of_two() {
        Some(c) => c.max(64) as u64,
        None => SAT,
    }
}

/// Peak resident bytes proven for **one** [`crate::ops::HashAggregate`]
/// instance over `input`: group-table slots (16 bytes each at ≤50%
/// load), stored key bytes for the byte-keyed table path, one key
/// builder per group column, accumulators (16 bytes for `SumI64`'s
/// 128-bit sums, 8 otherwise), plus one emitted output copy. All terms
/// scale with the analyzer's group bound, which every partition may in
/// the worst case receive entirely.
pub(crate) fn agg_instance_bound(input: &LogicalPlan, keys: &[usize], aggs: &[AggSpec]) -> u64 {
    let g = analyze::group_bound(input, keys);
    let g64 = g.min(usize::MAX >> 8) as u64;
    let w_in = col_widths(input);
    let key_types: Vec<DataType> = keys
        .iter()
        .map(|&k| input.schema().fields()[k].ty)
        .collect();
    let single_int = keys.len() == 1 && key_types[0] != DataType::Str;
    let table = if single_int {
        pow2_cap(g).saturating_mul(16)
    } else {
        // Stored key width: the raw string for the single-Str path, the
        // operator's key row for the multi-column path.
        let ser: u64 = if keys.len() == 1 {
            // raw bytes; the +8 view is added below
            w_in[keys[0]].saturating_sub(8)
        } else {
            keys.iter().zip(&key_types).fold(0u64, |a, (&k, &ty)| {
                // An f64 key is rejected by `HashAggregate::new`.
                let fixed = key_row_width(ty).map_or(0, u64::from);
                let value = match ty {
                    DataType::Str => w_in[k].saturating_sub(8),
                    _ => 0,
                };
                a.saturating_add(fixed).saturating_add(value)
            })
        };
        pow2_cap(g)
            .saturating_mul(16)
            .saturating_add(g64.saturating_mul(ser.saturating_add(8)))
    };
    let builders = keys
        .iter()
        .fold(0u64, |a, &k| a.saturating_add(g64.saturating_mul(w_in[k])));
    let accs = aggs.iter().fold(0u64, |a, s| {
        let w = if matches!(s, AggSpec::SumI64(_)) {
            16
        } else {
            8
        };
        a.saturating_add(g64.saturating_mul(w))
    });
    let out_row_w = keys
        .iter()
        .fold(0u64, |a, &k| a.saturating_add(w_in[k]))
        .saturating_add(8u64.saturating_mul(aggs.len() as u64));
    table
        .saturating_add(builders)
        .saturating_add(accs)
        .saturating_add(g64.saturating_mul(out_row_w))
}

/// Peak resident bytes proven for **one** [`crate::ops::HashJoin`]
/// instance's build side holding up to the build plan's row bound: key
/// columns (8 bytes per key per row), the payload row store, and the
/// `finish` structures (row hashes, chain, head slots, Bloom filter).
pub(crate) fn join_build_bound(
    build: &LogicalPlan,
    build_keys: &[usize],
    payload: &[usize],
) -> u64 {
    let r = analyze::row_bound(build);
    let r64 = r.min(usize::MAX >> 8) as u64;
    let w_b = col_widths(build);
    let pay_w = payload.iter().fold(0u64, |a, &i| a.saturating_add(w_b[i]));
    let keys = r64
        .saturating_mul(8)
        .saturating_mul(build_keys.len() as u64);
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

/// Peak resident bytes proven for a [`crate::ops::Sort`] over `input`:
/// the materialized row store, the 4-byte sort index, and one emitted
/// copy of the output chunks.
pub(crate) fn sort_bound(input: &LogicalPlan) -> u64 {
    let n = analyze::row_bound(input).min(usize::MAX >> 8) as u64;
    let w = row_width(input);
    n.saturating_mul(w)
        .saturating_mul(2)
        .saturating_add(n.saturating_mul(4))
}

/// Byte bound for a single exchanged chunk of `plan`'s output: at most
/// `vector_size` rows of the node's row width. This is the bound the
/// exchange operators' [`crate::adaptive::MemTracker`] slots carry.
pub(crate) fn chunk_bound(plan: &LogicalPlan, vector_size: usize) -> u64 {
    (vector_size as u64).saturating_mul(row_width(plan))
}

/// Chunk byte bound for a hash aggregate's *output* stream (group keys
/// plus 8-byte aggregate scalars): the partitioned-agg exchange's union
/// carries these alongside the producers' input chunks.
pub(crate) fn agg_out_chunk_bound(
    input: &LogicalPlan,
    keys: &[usize],
    aggs: &[AggSpec],
    vector_size: usize,
) -> u64 {
    let w_in = col_widths(input);
    let out_w = keys
        .iter()
        .fold(0u64, |a, &k| a.saturating_add(w_in[k]))
        .saturating_add(8u64.saturating_mul(aggs.len() as u64));
    (vector_size as u64).saturating_mul(out_w)
}

/// Stage bound for an exchange's channel buffers: every channel holds up
/// to [`CHANNEL_DEPTH_PER_WORKER`] messages per producer plus one
/// in-flight batch, each message up to [`CHUNKS_PER_MESSAGE`] chunks,
/// and the consumer union adds the same per partition.
fn exchange_bytes(producers: usize, partitions: usize, chunk: u64) -> u64 {
    let msgs_per_route = (CHANNEL_DEPTH_PER_WORKER as u64).saturating_add(1);
    let routed = (producers as u64)
        .saturating_mul(partitions as u64)
        .saturating_mul(msgs_per_route);
    let union = (partitions as u64).saturating_mul(msgs_per_route);
    routed
        .saturating_add(union)
        .saturating_mul(CHUNKS_PER_MESSAGE as u64)
        .saturating_mul(chunk)
}

// ---------------------------------------------------------------------------
// the walk
// ---------------------------------------------------------------------------

/// Work-bound cost constants (per input tuple).
const W_SCAN: u64 = 1;
const W_FILTER: u64 = 1;
const W_PROJECT: u64 = 2;
const W_AGG: u64 = 4;
const W_JOIN_BUILD: u64 = 3;
const W_JOIN_PROBE: u64 = 2;
const W_EXCHANGE: u64 = 1;

fn tuples(plan: &LogicalPlan) -> u64 {
    analyze::row_bound(plan).min(usize::MAX >> 8) as u64
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

/// Recursive bound derivation mirroring `plan::lower`'s decisions.
/// `ordered` tracks whether an order-sensitive ancestor pins this
/// subtree sequential (partition verdicts disengage, as in lowering);
/// `boundary` is true at the nodes `lower_node` dispatches on, so each
/// scan chain's sharding verdict is assessed exactly once at its top.
fn walk(
    plan: &LogicalPlan,
    cfg: &ExecConfig,
    ordered: bool,
    boundary: bool,
    ops: &mut Vec<OpCost>,
) {
    match plan {
        LogicalPlan::Scan { table, cols, .. } => {
            if boundary {
                chain_exchange(plan, cfg, ops);
            }
            push(
                ops,
                table.name(),
                "scan",
                1,
                scan_resident_bytes(table, cols, cfg.vector_size),
                tuples(plan).saturating_mul(W_SCAN),
            );
        }
        LogicalPlan::Filter { input, label, .. } => {
            if boundary {
                chain_exchange(plan, cfg, ops);
            }
            let chain = matches!(
                **input,
                LogicalPlan::Scan { .. } | LogicalPlan::Filter { .. } | LogicalPlan::Project { .. }
            );
            push(
                ops,
                label,
                "filter",
                1,
                0,
                tuples(input).saturating_mul(W_FILTER),
            );
            walk(input, cfg, ordered, !chain, ops);
        }
        LogicalPlan::Project { input, label, .. } => {
            if boundary {
                chain_exchange(plan, cfg, ops);
            }
            let chain = matches!(
                **input,
                LogicalPlan::Scan { .. } | LogicalPlan::Filter { .. } | LogicalPlan::Project { .. }
            );
            push(
                ops,
                label,
                "project",
                1,
                0,
                tuples(input).saturating_mul(W_PROJECT),
            );
            walk(input, cfg, ordered, !chain, ops);
        }
        LogicalPlan::HashAgg {
            input,
            keys,
            aggs,
            label,
            ..
        } => {
            let partitions = if ordered {
                1
            } else {
                agg_partition_count(input, keys, cfg)
            };
            let per = agg_instance_bound(input, keys, aggs);
            if partitions >= 2 {
                let producers = if shardable_chain(input, cfg).is_some() {
                    cfg.worker_threads.max(1)
                } else {
                    1
                };
                let chunk = chunk_bound(input, cfg.vector_size);
                push(
                    ops,
                    &format!("{label}/exchange"),
                    "exchange",
                    producers,
                    exchange_bytes(producers, partitions, chunk),
                    tuples(input).saturating_mul(W_EXCHANGE),
                );
            }
            push(
                ops,
                label,
                "hash-agg",
                partitions.max(1),
                per,
                tuples(input).saturating_mul(W_AGG),
            );
            walk(input, cfg, false, true, ops);
        }
        LogicalPlan::StreamAgg {
            input, aggs, label, ..
        } => {
            // Scalar accumulators only; not facade-tracked (MEM_EXEMPT).
            push(
                ops,
                label,
                "stream-agg",
                1,
                16u64.saturating_mul(aggs.len() as u64),
                tuples(input).saturating_mul(W_AGG),
            );
            walk(input, cfg, false, true, ops);
        }
        LogicalPlan::HashJoin {
            build,
            probe,
            build_keys,
            payload,
            label,
            ..
        } => {
            let partitions = if ordered {
                1
            } else {
                join_partition_count(build, probe, cfg)
            };
            let per = join_build_bound(build, build_keys, payload);
            if partitions >= 2 {
                let shardable =
                    shardable_chain(build, cfg).is_some() || shardable_chain(probe, cfg).is_some();
                let producers = if shardable {
                    cfg.worker_threads.max(1)
                } else {
                    1
                };
                let chunk = chunk_bound(build, cfg.vector_size)
                    .max(chunk_bound(probe, cfg.vector_size))
                    .max(chunk_bound(plan, cfg.vector_size));
                push(
                    ops,
                    &format!("{label}/exchange"),
                    "exchange",
                    producers,
                    // two routed lanes (build + probe) share the formula
                    exchange_bytes(producers, partitions, chunk).saturating_mul(2),
                    tuples(probe).saturating_mul(W_EXCHANGE),
                );
            }
            let work = tuples(build)
                .saturating_mul(W_JOIN_BUILD)
                .saturating_add(tuples(probe).saturating_mul(W_JOIN_PROBE));
            push(ops, label, "hash-join", partitions.max(1), per, work);
            walk(build, cfg, false, true, ops);
            walk(probe, cfg, false, true, ops);
        }
        LogicalPlan::MergeJoin {
            left,
            right,
            payload,
            label,
            ..
        } => {
            // The left (unique-key) side is materialized; merge join is
            // not facade-tracked (MEM_EXEMPT) but the bound still counts
            // its store plus an emitted copy, like a sort without index.
            let n = tuples(left);
            let w_l = col_widths(left);
            let pay_w = payload
                .iter()
                .fold(row_width(left), |a, &i| a.saturating_add(w_l[i]));
            let bytes = n.saturating_mul(pay_w).saturating_mul(2);
            let work = n
                .saturating_mul(W_JOIN_BUILD)
                .saturating_add(tuples(right).saturating_mul(W_JOIN_PROBE));
            push(ops, label, "merge-join", 1, bytes, work);
            walk(left, cfg, true, true, ops);
            walk(right, cfg, true, true, ops);
        }
        LogicalPlan::Sort { input, .. } => {
            let n = tuples(input);
            let logn = if n <= 1 {
                1
            } else {
                u64::from(n.ilog2()).saturating_add(1)
            };
            push(
                ops,
                "sort",
                "sort",
                1,
                sort_bound(input),
                n.saturating_mul(logn),
            );
            walk(input, cfg, false, true, ops);
        }
    }
}

/// Emits the exchange entry for a shardable scan chain dispatched at a
/// `lower_node` boundary (a [`crate::ops::Parallel`] under a free
/// consumer, a [`crate::ops::MergeExchange`] under an ordered one; the
/// Parallel-shaped bound covers both).
fn chain_exchange(plan: &LogicalPlan, cfg: &ExecConfig, ops: &mut Vec<OpCost>) {
    if shardable_chain(plan, cfg).is_none() {
        return;
    }
    let producers = cfg.worker_threads.max(1);
    let chunk = chunk_bound(plan, cfg.vector_size);
    push(
        ops,
        "scan-shard/exchange",
        "exchange",
        producers,
        exchange_bytes(producers, 1, chunk),
        tuples(plan).saturating_mul(W_EXCHANGE),
    );
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
        assert_eq!(col_widths(&plan), vec![8, 4, 15]);
        assert_eq!(row_width(&plan), 27);
    }

    #[test]
    fn agg_bound_is_finite_and_covers_table_floor() {
        let cat = catalog(100);
        let plan = agg_plan(&cat);
        let LogicalPlan::HashAgg {
            input, keys, aggs, ..
        } = &plan
        else {
            panic!("expected agg root")
        };
        let b = agg_instance_bound(input, keys, aggs);
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
        let plan = PlanBuilder::scan(&cat, "t", &["id"]).build().unwrap();
        // 100 rows × 8 B × 2 copies + 4 B index
        assert_eq!(sort_bound(&plan), 100 * 8 * 2 + 100 * 4);
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
        let LogicalPlan::HashJoin {
            build,
            build_keys,
            payload,
            ..
        } = &plan
        else {
            panic!("expected join root")
        };
        let b = join_build_bound(build, build_keys, payload);
        // 3 build rows: 64-head floor (256 B) + bloom floor dominate
        assert!(b >= 256, "bound {b} below the head-array floor");
        let report = cost(&plan, &ExecConfig::default());
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert!(report.ops.iter().any(|o| o.kind == "hash-join"));
    }
}
