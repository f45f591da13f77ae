//! Abstract interpretation over logical plans (DESIGN.md §11).
//!
//! A forward dataflow pass that propagates per-column *facts* — integer
//! intervals `[lo, hi]`, float finiteness, distinct-count (NDV) upper
//! bounds, all-distinctness proofs, the dictionary whose codes a column's
//! vectors carry, and the byte model's per-value width — plus a per-node
//! row-count upper bound from base-table statistics
//! ([`ma_vector::ColumnStats`]) through every [`LogicalPlan`] node. It is
//! the one place a per-column property the planner reads is derived: the
//! planner's byte bounds, dense key domains and zone guards all read these
//! facts.
//!
//! * **Scan** seeds facts from exact table stats; the row bound is the
//!   catalog's row count (`base_rows`), which [`crate::plan::Catalog`]
//!   contracts to be exact. A dictionary-coded column carries its
//!   dictionary's codes, which only filters, pass-through projections and
//!   the probe side of semi, anti and left-single joins keep.
//! * **Filter** narrows intervals through comparison atoms (`col op const`
//!   and `col op col`), intersecting under `And` and hulling under `Or`;
//!   a conjunction that empties an integer interval is a
//!   [`AnalysisError::ContradictionPred`].
//! * **Project** evaluates expression arithmetic over intervals (computed
//!   in `i128`, so the check itself cannot wrap); results that leave the
//!   `i64` range raise [`AnalysisError::PossibleOverflow`], and an integer
//!   division whose divisor interval contains zero raises
//!   [`AnalysisError::DivByZeroReachable`].
//! * **Aggregates** bound group counts by the product of key NDVs and
//!   bound `sum` outputs by `rows × extreme`; a sum bound that leaves
//!   `i64` raises [`AnalysisError::SumOverflow`].
//! * **Joins** stay probe-bounded when the build key is *proven*
//!   all-distinct (exact base stats make `distinct == rows` a proof, and
//!   filters/projections preserve it), and fall back to the sound
//!   product bound otherwise.
//!
//! `plan::plan_physical` runs the per-node transfer once per node: the
//! row/NDV bounds feed its partitioning verdicts, the widths its byte
//! bounds, intervals and codes its dense key domains, and a Filter's
//! output intervals the zone guards of the scan beneath it.
//!
//! **Soundness contract:** every fact is an *over*-approximation — bounds
//! may widen but never lie. For any plan whose execution completes, every
//! materialized value lies inside its column's derived interval (NaNs only
//! where `finite` is false), every column's distinct count is at most its
//! NDV bound, a `distinct` flag only ever marks truly duplicate-free
//! columns, and the materialized row count never exceeds the node's row
//! bound. Executions that trap (integer division by a selected zero, sum
//! narrowing overflow) are exempt — there is no materialized value to
//! bound — which is exactly why those traps get their own typed errors.
//! The fuzzer checks this contract on every generated plan
//! (`ma_tpch::fuzz`), and `verify` runs the pass as its third phase.

use std::fmt;

use ma_vector::encode::EncColumn;
use ma_vector::{Column, DataType, Schema, StatsDomain};

use crate::cost::Width;
use crate::expr::{Agg, AggFunc, ArithKind, CmpKind, CmpRhs, Expr, NumType, Pred, Value};
use crate::ops::{DictRef, JoinKind, ProjItem};
use crate::plan::LogicalPlan;

/// Relative slack applied to float *sum* bounds: summation rounds once per
/// element, so the accumulated result can drift a few ULPs past the exact
/// `rows × extreme` bound. `1e-7` dwarfs the worst drift for any row count
/// this engine reaches (error ≈ rows · 2⁻⁵³ per unit magnitude).
const SUM_F64_SLACK: f64 = 1e-7;

/// A finding produced by the abstract interpreter.
///
/// Two severities exist (see [`AnalysisError::is_hazard`]): *hazards* make
/// execution trap and fail verification's third phase; the rest are
/// warnings — behavior is defined and deterministic (wrapping arithmetic,
/// a checked panic, an empty result), but almost certainly not what the
/// query author meant — reported by [`analyze`] and `repro analyze`.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// Integer `add`/`sub`/`mul` (wrapping semantics) may wrap: the exact
    /// result interval leaves the `i64` range. Also raised for the one
    /// trapping division overflow, `i64::MIN / -1`.
    PossibleOverflow {
        /// Node label the expression lives under.
        context: String,
        /// Operator (`add`/`sub`/`mul`/`div`).
        op: &'static str,
        /// Exact lower bound of the unwrapped result.
        lo: i128,
        /// Exact upper bound of the unwrapped result.
        hi: i128,
    },
    /// A `sum` aggregate's `i128` accumulator may exceed `i64` on output
    /// narrowing — a typed [`crate::ExecError::SumOverflow`] at run time.
    /// It also keeps the aggregate from going two-phase.
    SumOverflow {
        /// Aggregation node label.
        context: String,
        /// Rendered aggregate (e.g. `sum(col 3)`).
        agg: String,
        /// Exact lower bound of the accumulated sum.
        lo: i128,
        /// Exact upper bound of the accumulated sum.
        hi: i128,
    },
    /// An integer division's divisor interval contains zero, so a selected
    /// tuple can trap. (Integer division is the one primitive family with
    /// no full-computation flavor precisely because of this trap.)
    DivByZeroReachable {
        /// Node label the expression lives under.
        context: String,
        /// Divisor interval lower bound.
        lo: i64,
        /// Divisor interval upper bound.
        hi: i64,
    },
    /// A conjunction narrowed some integer column's interval to empty: the
    /// predicate is a contradiction and the node provably yields no rows.
    ContradictionPred {
        /// Filter node label.
        context: String,
        /// Name of the column whose interval emptied.
        column: String,
    },
}

impl AnalysisError {
    /// True for findings that make execution trap (fail verification);
    /// false for defined-but-suspicious behavior (warnings).
    ///
    /// Only [`AnalysisError::DivByZeroReachable`] is a hazard: integer
    /// wrap is this engine's *defined* (and deterministic) arithmetic,
    /// sum-narrowing overflow is a typed error naming the aggregate,
    /// and a contradiction merely yields an empty result. Making the
    /// conservative overflow bounds verification-fatal would reject
    /// benign plans whose worst-case row bound explodes through
    /// non-distinct joins; the trap, by contrast, is never benign.
    pub fn is_hazard(&self) -> bool {
        matches!(self, AnalysisError::DivByZeroReachable { .. })
    }
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::PossibleOverflow {
                context,
                op,
                lo,
                hi,
            } => write!(
                f,
                "[{context}] integer {op} may overflow i64: result in [{lo}, {hi}]"
            ),
            AnalysisError::SumOverflow {
                context,
                agg,
                lo,
                hi,
            } => write!(
                f,
                "[{context}] {agg} may exceed i64 on output narrowing: sum in [{lo}, {hi}]"
            ),
            AnalysisError::DivByZeroReachable { context, lo, hi } => write!(
                f,
                "[{context}] integer division by zero is reachable: divisor in [{lo}, {hi}]"
            ),
            AnalysisError::ContradictionPred { context, column } => write!(
                f,
                "[{context}] predicate is a contradiction: interval of `{column}` is empty"
            ),
        }
    }
}

/// Abstract value domain of one column.
#[derive(Debug, Clone, PartialEq)]
pub enum AbsDomain {
    /// Integer columns of any width, bounds in `i64`. Empty iff `lo > hi`.
    Int {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// `F64` columns. When `finite`, every value is finite and in
    /// `[lo, hi]`; otherwise values may also be ±∞ or NaN, and `[lo, hi]`
    /// (possibly infinite endpoints) still bounds every non-NaN value.
    Float {
        /// Inclusive lower bound of non-NaN values.
        lo: f64,
        /// Inclusive upper bound of non-NaN values.
        hi: f64,
        /// Proof that no value is NaN or ±∞.
        finite: bool,
    },
    /// String columns: no value bounds tracked.
    Str,
}

impl AbsDomain {
    /// Full range for a column of type `ty`.
    fn top(ty: DataType) -> AbsDomain {
        match ty {
            DataType::I16 => AbsDomain::Int {
                lo: i64::from(i16::MIN),
                hi: i64::from(i16::MAX),
            },
            DataType::I32 => AbsDomain::Int {
                lo: i64::from(i32::MIN),
                hi: i64::from(i32::MAX),
            },
            DataType::I64 => AbsDomain::Int {
                lo: i64::MIN,
                hi: i64::MAX,
            },
            DataType::F64 => AbsDomain::Float {
                lo: f64::NEG_INFINITY,
                hi: f64::INFINITY,
                finite: false,
            },
            DataType::Str => AbsDomain::Str,
        }
    }

    /// True when no concrete value satisfies the domain (for floats, only
    /// provable when NaN is excluded).
    fn is_empty(&self) -> bool {
        match *self {
            AbsDomain::Int { lo, hi } => lo > hi,
            AbsDomain::Float { lo, hi, finite } => finite && lo > hi,
            AbsDomain::Str => false,
        }
    }

    /// Interval width as an NDV cap (`usize::MAX` when unbounded).
    fn width(&self) -> usize {
        match *self {
            AbsDomain::Int { lo, hi } => {
                if lo > hi {
                    0
                } else {
                    usize::try_from((hi as i128) - (lo as i128) + 1).unwrap_or(usize::MAX)
                }
            }
            _ => usize::MAX,
        }
    }

    /// Intersection (meet) of two domains of the same type.
    fn intersect(&self, other: &AbsDomain) -> AbsDomain {
        match (self, other) {
            (&AbsDomain::Int { lo: a, hi: b }, &AbsDomain::Int { lo: c, hi: d }) => {
                AbsDomain::Int {
                    lo: a.max(c),
                    hi: b.min(d),
                }
            }
            (
                &AbsDomain::Float {
                    lo: a,
                    hi: b,
                    finite: fa,
                },
                &AbsDomain::Float {
                    lo: c,
                    hi: d,
                    finite: fb,
                },
            ) => AbsDomain::Float {
                lo: a.max(c),
                hi: b.min(d),
                finite: fa || fb,
            },
            _ => self.clone(),
        }
    }

    /// Hull (join) of two domains of the same type.
    fn hull(&self, other: &AbsDomain) -> AbsDomain {
        match (self, other) {
            (&AbsDomain::Int { lo: a, hi: b }, &AbsDomain::Int { lo: c, hi: d }) => {
                if a > b {
                    other.clone()
                } else if c > d {
                    self.clone()
                } else {
                    AbsDomain::Int {
                        lo: a.min(c),
                        hi: b.max(d),
                    }
                }
            }
            (
                &AbsDomain::Float {
                    lo: a,
                    hi: b,
                    finite: fa,
                },
                &AbsDomain::Float {
                    lo: c,
                    hi: d,
                    finite: fb,
                },
            ) => AbsDomain::Float {
                lo: a.min(c),
                hi: b.max(d),
                finite: fa && fb,
            },
            _ => self.clone(),
        }
    }
}

impl fmt::Display for AbsDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbsDomain::Int { lo, hi } if lo > hi => write!(f, "\u{2205}"),
            AbsDomain::Int { lo, hi } => write!(f, "[{lo}, {hi}]"),
            AbsDomain::Float { lo, hi, finite } => {
                write!(f, "[{lo}, {hi}]{}", if *finite { "" } else { "?" })
            }
            AbsDomain::Str => write!(f, "str"),
        }
    }
}

/// Everything the analyzer knows about one output column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColFact {
    /// Value bounds.
    pub domain: AbsDomain,
    /// Upper bound on the number of distinct values.
    pub ndv: usize,
    /// Proof that the column holds no duplicate values.
    pub distinct: bool,
    /// The dictionary whose codes every vector of the column carries: set
    /// at a dictionary-coded scan column and kept only by operators that
    /// pass its vectors on untouched (filters, pass-through projections,
    /// the probe side of semi, anti and left-single joins).
    pub codes: Option<DictRef>,
    /// The byte model's width of one value (DESIGN.md §12).
    pub(crate) width: Width,
}

impl ColFact {
    /// A fact with no dictionary codes; [`Facts::normalize`] sets the width
    /// of every fixed-width column from its type.
    fn new(domain: AbsDomain, ndv: usize, distinct: bool) -> ColFact {
        ColFact {
            domain,
            ndv,
            distinct,
            codes: None,
            width: Width::fixed(8),
        }
    }

    /// Nothing known: every value of `ty`, strings of any length.
    fn top(ty: DataType, rows: usize) -> ColFact {
        ColFact {
            width: Width::fixed(u64::MAX),
            ..ColFact::new(AbsDomain::top(ty), rows, false)
        }
    }

    /// Proven upper bound on the stored bytes of one value: the scalar
    /// width of a numeric column; for a `Str` column, the longest value's
    /// byte length plus its 8-byte view.
    pub fn bytes(&self) -> u64 {
        self.width.raw
    }
}

/// Facts for one plan node's output: per-column facts plus a row bound.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Facts {
    /// One fact per output column, aligned with the node's schema.
    pub cols: Vec<ColFact>,
    /// Upper bound on the number of rows the node can produce.
    pub rows: usize,
}

impl Facts {
    /// Re-establishes the cross-fact invariants after a transfer function:
    /// NDV ≤ rows, NDV ≤ interval width, a row bound ≤ 1 proves
    /// distinctness trivially, and a fixed-width column of `schema` is as
    /// wide as its type.
    fn normalize(mut self, schema: &Schema) -> Facts {
        for (i, c) in self.cols.iter_mut().enumerate() {
            c.ndv = c.ndv.min(self.rows).min(c.domain.width());
            if self.rows <= 1 {
                c.distinct = true;
            }
            if let Some(w) = schema.fields().get(i).and_then(|f| f.ty.fixed_width()) {
                c.width = Width::fixed(w as u64);
            }
        }
        self
    }

    /// Drops every column's dictionary codes: the node rebuilds its
    /// vectors.
    fn without_codes(mut self) -> Facts {
        for c in &mut self.cols {
            c.codes = None;
        }
        self
    }
}

/// The result of analyzing a plan: root facts plus every finding, in plan
/// walk order.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Facts for the root node's output.
    pub facts: Facts,
    /// All findings (hazards and warnings; see
    /// [`AnalysisError::is_hazard`]).
    pub errors: Vec<AnalysisError>,
}

impl Analysis {
    /// The first hazard finding, if any (what verification's third phase
    /// rejects on).
    pub fn first_hazard(&self) -> Option<&AnalysisError> {
        self.errors.iter().find(|e| e.is_hazard())
    }
}

/// Runs the abstract interpreter over `plan`.
pub fn analyze(plan: &LogicalPlan) -> Analysis {
    let mut errors = Vec::new();
    let facts = node_facts(plan, &mut errors);
    Analysis { facts, errors }
}

fn group_bound_from(input: &Facts, keys: &[usize]) -> usize {
    let mut groups = 1usize;
    for &k in keys {
        let ndv = input.cols.get(k).map_or(usize::MAX, |c| c.ndv);
        groups = groups.saturating_mul(ndv.max(1));
    }
    groups.min(input.rows)
}

thread_local! {
    static TRANSFERS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many times this thread has run the per-node [`transfer`] function:
/// the plan-time regression pins read it around one `plan_physical` or
/// `lower` call to prove each interprets each node exactly once.
#[doc(hidden)]
pub fn transfer_count() -> u64 {
    TRANSFERS.with(std::cell::Cell::get)
}

// --- per-node transfer functions -------------------------------------------

fn node_facts(plan: &LogicalPlan, errs: &mut Vec<AnalysisError>) -> Facts {
    let mut inputs = [Facts::default(), Facts::default()];
    let mut n = 0;
    for child in plan.children() {
        inputs[n] = node_facts(child, errs);
        n += 1;
    }
    transfer(plan, &inputs[..n], errs)
}

/// The transfer function of one node: its output facts from its
/// children's (`inputs`, in [`LogicalPlan::children`] order). The
/// physical planner calls it once per node in its own bottom-up pass and
/// keeps every node's facts on the plan it makes.
pub(crate) fn transfer(
    plan: &LogicalPlan,
    inputs: &[Facts],
    errs: &mut Vec<AnalysisError>,
) -> Facts {
    TRANSFERS.with(|c| c.set(c.get() + 1));
    let facts = match plan {
        LogicalPlan::Scan {
            table,
            cols,
            base_rows,
            ..
        } => {
            let stats = table.stats();
            let col_facts = cols
                .iter()
                .enumerate()
                .map(|(i, name)| match table.column_index(name) {
                    Ok(ci) => {
                        let s = &stats[ci];
                        let codes = match table.column_at(ci) {
                            Column::Enc(e) => match &**e {
                                EncColumn::Dict(d) => Some(DictRef::of(d)),
                                _ => None,
                            },
                            _ => None,
                        };
                        // A string is its bytes plus an 8-byte view; a
                        // dictionary-coded one decodes to the view alone.
                        let raw = (s.max_bytes as u64).saturating_add(8);
                        let width = Width {
                            raw,
                            enc: if codes.is_some() { 8 } else { raw },
                        };
                        let domain = match s.domain {
                            StatsDomain::Int { min, max } => AbsDomain::Int { lo: min, hi: max },
                            StatsDomain::Float {
                                min,
                                max,
                                all_finite,
                            } => AbsDomain::Float {
                                lo: min,
                                hi: max,
                                finite: all_finite,
                            },
                            StatsDomain::Str => AbsDomain::Str,
                        };
                        ColFact {
                            domain,
                            ndv: s.distinct,
                            // Exact stats make this a proof, not a guess.
                            distinct: s.distinct == table.rows() && table.rows() > 0,
                            codes,
                            width,
                        }
                    }
                    // Unknown source column: an ill-formed plan verify
                    // rejects in phase 1; stay sound with a top fact.
                    Err(_) => ColFact::top(plan.schema().field(i).ty, *base_rows),
                })
                .collect();
            Facts {
                cols: col_facts,
                rows: *base_rows,
            }
        }

        LogicalPlan::Filter {
            input, pred, label, ..
        } => {
            let mut facts = inputs[0].clone();
            let schema = input.schema();
            let newly_empty = narrow_pred(pred, &mut facts.cols);
            if let Some(col) = newly_empty {
                errs.push(AnalysisError::ContradictionPred {
                    context: label.clone(),
                    column: schema
                        .fields()
                        .get(col)
                        .map_or_else(|| format!("col {col}"), |f| f.name.clone()),
                });
                facts.rows = 0;
            }
            facts
        }

        LogicalPlan::Project { items, label, .. } => {
            let in_facts = &inputs[0];
            let cols = items
                .iter()
                .map(|item| match item {
                    ProjItem::Pass(i) => in_facts.cols[*i].clone(),
                    // Only a pass-through item is proven to keep its
                    // vectors; the builder makes every bare column one.
                    ProjItem::Expr(e) => ColFact {
                        codes: None,
                        ..eval_expr(e, in_facts, label, errs)
                    },
                })
                .collect();
            Facts {
                cols,
                rows: in_facts.rows,
            }
        }

        LogicalPlan::HashAgg {
            keys, aggs, label, ..
        } => {
            let in_facts = &inputs[0];
            let rows = group_bound_from(in_facts, keys);
            let mut cols: Vec<ColFact> = keys
                .iter()
                .map(|&k| {
                    let mut fact = in_facts.cols[k].clone();
                    // A single group key is deduplicated by grouping.
                    fact.distinct = keys.len() == 1;
                    // Keys are read back from the group table.
                    fact.codes = None;
                    fact
                })
                .collect();
            for agg in aggs {
                cols.push(agg_fact(agg, in_facts, /*grouped=*/ true, label, errs));
            }
            Facts { cols, rows }
        }

        LogicalPlan::StreamAgg { aggs, label, .. } => {
            let in_facts = &inputs[0];
            let cols = aggs
                .iter()
                .map(|agg| agg_fact(agg, in_facts, /*grouped=*/ false, label, errs))
                .collect();
            // A global aggregate emits exactly one row (the fold identity
            // when the input is empty).
            Facts { cols, rows: 1 }
        }

        LogicalPlan::HashJoin {
            build_keys,
            probe_keys,
            payload,
            kind,
            defaults,
            ..
        } => {
            let mut build_f = inputs[0].clone();
            let mut probe_f = inputs[1].clone();
            let build_distinct = build_keys
                .iter()
                .any(|&k| build_f.cols.get(k).is_some_and(|c| c.distinct));
            // Equi-join: surviving keys lie in both sides' intervals.
            // Sound for Inner and Semi; Anti keeps non-matching keys and
            // LeftSingle passes unmatched probe tuples through.
            if matches!(kind, JoinKind::Inner | JoinKind::Semi) {
                for (&bk, &pk) in build_keys.iter().zip(probe_keys) {
                    let inter = build_f.cols[bk].domain.intersect(&probe_f.cols[pk].domain);
                    let ndv = build_f.cols[bk].ndv.min(probe_f.cols[pk].ndv);
                    build_f.cols[bk].domain = inter.clone();
                    build_f.cols[bk].ndv = ndv;
                    probe_f.cols[pk].domain = inter;
                    probe_f.cols[pk].ndv = ndv;
                }
            }
            let key_miss = matches!(kind, JoinKind::Inner | JoinKind::Semi)
                && probe_keys
                    .iter()
                    .any(|&pk| probe_f.cols[pk].domain.is_empty());
            let rows = match kind {
                JoinKind::Inner => {
                    if build_distinct {
                        probe_f.rows
                    } else {
                        probe_f.rows.saturating_mul(build_f.rows)
                    }
                }
                JoinKind::Semi | JoinKind::Anti | JoinKind::LeftSingle => probe_f.rows,
            };
            let rows = if key_miss { 0 } else { rows };
            // An inner join copies its probe columns; the other kinds
            // pass the probe vectors on.
            let inner = matches!(kind, JoinKind::Inner);
            let mut cols = if inner {
                probe_f.without_codes().cols
            } else {
                probe_f.cols
            };
            if inner && !build_distinct {
                // A probe tuple can fan out to several matches.
                for c in &mut cols {
                    c.distinct = false;
                }
            }
            // Payloads are fetched from the build's row store.
            let build_f = build_f.without_codes();
            match kind {
                JoinKind::Inner => {
                    for &p in payload {
                        let mut fact = build_f.cols[p].clone();
                        // A build row can match many probe rows.
                        fact.distinct = false;
                        cols.push(fact);
                    }
                }
                JoinKind::LeftSingle => {
                    for (&p, default) in payload.iter().zip(defaults) {
                        let mut fact = build_f.cols[p].clone();
                        // Unmatched probe tuples get the default value.
                        fact.domain = fact.domain.hull(&const_domain(default));
                        fact.ndv = fact.ndv.saturating_add(1);
                        fact.distinct = false;
                        cols.push(fact);
                    }
                }
                JoinKind::Semi | JoinKind::Anti => {}
            }
            Facts { cols, rows }
        }

        LogicalPlan::MergeJoin {
            left_key,
            right_key,
            payload,
            ..
        } => {
            let mut left_f = inputs[0].clone();
            let mut right_f = inputs[1].clone();
            let left_distinct = left_f.cols[*left_key].distinct;
            let inter = left_f.cols[*left_key]
                .domain
                .intersect(&right_f.cols[*right_key].domain);
            let ndv = left_f.cols[*left_key].ndv.min(right_f.cols[*right_key].ndv);
            left_f.cols[*left_key].domain = inter.clone();
            left_f.cols[*left_key].ndv = ndv;
            right_f.cols[*right_key].domain = inter.clone();
            right_f.cols[*right_key].ndv = ndv;
            let rows = if inter.is_empty() {
                0
            } else if left_distinct {
                right_f.rows
            } else {
                right_f.rows.saturating_mul(left_f.rows)
            };
            // Both sides pass through row stores.
            let left_f = left_f.without_codes();
            let mut cols = right_f.without_codes().cols;
            if !left_distinct {
                for c in &mut cols {
                    c.distinct = false;
                }
            }
            for &p in payload {
                let mut fact = left_f.cols[p].clone();
                fact.distinct = false;
                cols.push(fact);
            }
            Facts { cols, rows }
        }

        LogicalPlan::Sort { limit, .. } => {
            // The sort's row store rebuilds every vector.
            let mut facts = inputs[0].clone().without_codes();
            if let Some(n) = limit {
                facts.rows = facts.rows.min(*n);
            }
            facts
        }
    };
    facts.normalize(plan.schema())
}

// --- predicate narrowing ---------------------------------------------------

/// Narrows `cols` in place through `pred`. Returns the index of the first
/// integer column whose interval *newly* became empty under a conjunction
/// (the contradiction witness), if any.
fn narrow_pred(pred: &Pred, cols: &mut [ColFact]) -> Option<usize> {
    match pred {
        Pred::Cmp { col, op, rhs } => {
            let was_empty = cols[*col].domain.is_empty();
            match rhs {
                CmpRhs::Const(v) => narrow_cmp_const(&mut cols[*col], *op, v),
                CmpRhs::Col(other) => {
                    if col == other {
                        return None;
                    }
                    // Split borrows to narrow both sides.
                    let (a, b) = if col < other {
                        let (x, y) = cols.split_at_mut(*other);
                        (&mut x[*col], &mut y[0])
                    } else {
                        let (x, y) = cols.split_at_mut(*col);
                        (&mut y[0], &mut x[*other])
                    };
                    narrow_cmp_col(a, *op, b);
                }
            }
            (!was_empty && cols[*col].domain.is_empty()).then_some(*col)
        }
        Pred::Like { .. } => None,
        Pred::InStr { col, values } => {
            cols[*col].ndv = cols[*col].ndv.min(values.len());
            None
        }
        Pred::And(branches) => {
            let mut witness = None;
            for b in branches {
                witness = witness.or(narrow_pred(b, cols));
            }
            witness
        }
        Pred::Or(branches) => {
            if branches.is_empty() {
                return None;
            }
            // Each branch narrows a private copy; the result is the hull.
            let mut hulled: Option<Vec<ColFact>> = None;
            let mut all_empty_witness = None;
            for b in branches {
                let mut branch_cols = cols.to_vec();
                let w = narrow_pred(b, &mut branch_cols);
                all_empty_witness = all_empty_witness.or(w);
                hulled = Some(match hulled {
                    None => branch_cols,
                    Some(acc) => acc
                        .into_iter()
                        .zip(branch_cols)
                        .map(|(x, y)| ColFact {
                            domain: x.domain.hull(&y.domain),
                            // Rows surviving an OR are the *union* of the
                            // branch row-sets, so value sets add — max()
                            // here was unsound (`x = "a" or x in ("b","c")`
                            // passes 3 distinct values, max proves ≤ 2).
                            ndv: x.ndv.saturating_add(y.ndv),
                            distinct: x.distinct && y.distinct,
                            ..x
                        })
                        .collect(),
                });
            }
            let hulled = hulled.expect("non-empty branches");
            let mut witness = None;
            for (i, (dst, mut src)) in cols.iter_mut().zip(hulled).enumerate() {
                if !dst.domain.is_empty() && src.domain.is_empty() && witness.is_none() {
                    witness = Some(i);
                }
                // The union of subsets of the input's value set can never
                // exceed the input's own cap.
                src.ndv = src.ndv.min(dst.ndv);
                *dst = src;
            }
            // Only a contradiction if *every* branch emptied some column
            // and the hull stayed empty — otherwise a branch survives.
            witness.or(all_empty_witness.filter(|&i| cols[i].domain.is_empty()))
        }
    }
}

/// The integers `col op v` passes, as an inclusive `i128` range (empty
/// when `lo > hi`), for `op` one of `<`, `<=`, `>`, `>=`, `=` and an
/// integer constant `v`. `None` for `<>`, which passes all but one value,
/// and for a float or string constant. The analyzer narrows a column's
/// interval by it, and a scan that owns the conjunct admits the chunks
/// whose zones it contains.
pub(crate) fn cmp_const_interval(op: CmpKind, v: &Value) -> Option<(i128, i128)> {
    let c = i128::from(const_as_i64(v)?);
    let (min, max) = (i128::MIN, i128::MAX);
    match op {
        CmpKind::Lt => Some((min, c - 1)),
        CmpKind::Le => Some((min, c)),
        CmpKind::Gt => Some((c + 1, max)),
        CmpKind::Ge => Some((c, max)),
        CmpKind::Eq => Some((c, c)),
        CmpKind::Ne => None,
    }
}

fn narrow_cmp_const(fact: &mut ColFact, op: CmpKind, v: &Value) {
    match (&mut fact.domain, v) {
        (AbsDomain::Int { lo, hi }, _) => {
            let Some(c) = const_as_i64(v).map(i128::from) else {
                return;
            };
            let (nlo, nhi) = match cmp_const_interval(op, v) {
                Some(range) => range,
                // `<>` narrows only at a boundary.
                None if c == i128::from(*lo) => (c + 1, i128::MAX),
                None if c == i128::from(*hi) => (i128::MIN, c - 1),
                None => return,
            };
            if op == CmpKind::Eq {
                fact.ndv = fact.ndv.min(1);
            }
            narrow_int(lo, hi, nlo, nhi);
        }
        (AbsDomain::Float { lo, hi, .. }, Value::F64(c)) => {
            if c.is_nan() {
                return;
            }
            match op {
                // Non-strict narrowing is sound for the strict ops too.
                CmpKind::Lt | CmpKind::Le => *hi = hi.min(*c),
                CmpKind::Gt | CmpKind::Ge => *lo = lo.max(*c),
                CmpKind::Eq => {
                    *lo = lo.max(*c);
                    *hi = hi.min(*c);
                }
                CmpKind::Ne => {}
            }
        }
        (AbsDomain::Str, Value::Str(_)) if op == CmpKind::Eq => {
            fact.ndv = fact.ndv.min(1);
        }
        _ => {}
    }
}

fn narrow_cmp_col(a: &mut ColFact, op: CmpKind, b: &mut ColFact) {
    // `a > b` is `b < a`.
    match op {
        CmpKind::Gt => return narrow_cmp_col(b, CmpKind::Lt, a),
        CmpKind::Ge => return narrow_cmp_col(b, CmpKind::Le, a),
        _ => {}
    }
    match (&mut a.domain, &mut b.domain) {
        (AbsDomain::Int { lo: alo, hi: ahi }, AbsDomain::Int { lo: blo, hi: bhi }) => match op {
            // `a` stays below `b`'s top and `b` above `a`'s bottom.
            CmpKind::Lt | CmpKind::Le => {
                let strict = i128::from(op == CmpKind::Lt);
                let alo_in = i128::from(*alo);
                narrow_int(alo, ahi, i128::MIN, i128::from(*bhi) - strict);
                narrow_int(blo, bhi, alo_in + strict, i128::MAX);
            }
            CmpKind::Eq => {
                let lo = (*alo).max(*blo);
                let hi = (*ahi).min(*bhi);
                (*alo, *ahi, *blo, *bhi) = (lo, hi, lo, hi);
                let ndv = a.ndv.min(b.ndv);
                a.ndv = ndv;
                b.ndv = ndv;
            }
            _ => {}
        },
        (
            AbsDomain::Float {
                lo: alo, hi: ahi, ..
            },
            AbsDomain::Float {
                lo: blo, hi: bhi, ..
            },
        ) => match op {
            CmpKind::Lt | CmpKind::Le => {
                *ahi = ahi.min(*bhi);
                *blo = blo.max(*alo);
            }
            CmpKind::Eq => {
                let lo = alo.max(*blo);
                let hi = ahi.min(*bhi);
                (*alo, *ahi, *blo, *bhi) = (lo, hi, lo, hi);
            }
            _ => {}
        },
        _ => {}
    }
}

/// Narrows `[lo, hi]` to its intersection with `[nlo, nhi]`, bounds taken
/// in `i128` so that `c ± 1` cannot wrap. An intersection whose bound lies
/// past an `i64` extreme (`x > i64::MAX`, `x < i64::MIN`) is empty, and is
/// written `[i64::MAX, i64::MIN]`.
fn narrow_int(lo: &mut i64, hi: &mut i64, nlo: i128, nhi: i128) {
    let l = nlo.max(i128::from(*lo));
    let h = nhi.min(i128::from(*hi));
    (*lo, *hi) = match (i64::try_from(l), i64::try_from(h)) {
        (Ok(l), Ok(h)) => (l, h),
        _ => (i64::MAX, i64::MIN),
    };
}

fn const_as_i64(v: &Value) -> Option<i64> {
    match v {
        Value::I16(x) => Some(i64::from(*x)),
        Value::I32(x) => Some(i64::from(*x)),
        Value::I64(x) => Some(*x),
        Value::F64(_) | Value::Str(_) => None,
    }
}

fn const_domain(v: &Value) -> AbsDomain {
    match v {
        Value::I16(_) | Value::I32(_) | Value::I64(_) => {
            let c = const_as_i64(v).expect("integer constant");
            AbsDomain::Int { lo: c, hi: c }
        }
        Value::F64(c) => AbsDomain::Float {
            lo: *c,
            hi: *c,
            finite: c.is_finite(),
        },
        Value::Str(_) => AbsDomain::Str,
    }
}

// --- expression interval arithmetic ----------------------------------------

fn eval_expr(expr: &Expr, input: &Facts, context: &str, errs: &mut Vec<AnalysisError>) -> ColFact {
    match expr {
        Expr::Col(i) => input.cols[*i].clone(),
        Expr::Const(v) => {
            let mut fact = ColFact::new(const_domain(v), 1, false);
            if let Value::Str(s) = v {
                fact.width = Width::fixed((s.len() as u64).saturating_add(8));
            }
            fact
        }
        Expr::Cast { to, inner } => {
            let fact = eval_expr(inner, input, context, errs);
            cast_fact(fact, *to)
        }
        Expr::Substr { col, .. } => {
            // Substring is a per-row function of one column: the NDV bound
            // and the byte width carry over, but distinctness does not (it
            // is not injective).
            let mut fact = input.cols[*col].clone();
            fact.distinct = false;
            fact
        }
        Expr::Arith { op, lhs, rhs } => {
            let a = eval_expr(lhs, input, context, errs);
            let b = eval_expr(rhs, input, context, errs);
            // A per-row function of k columns has at most Π NDV distinct
            // outputs (Const has NDV 1, so `col ⊕ const` keeps `col`'s).
            let ndv = a.ndv.saturating_mul(b.ndv.max(1)).max(a.ndv);
            match (&a.domain, &b.domain) {
                (&AbsDomain::Int { lo: alo, hi: ahi }, &AbsDomain::Int { lo: blo, hi: bhi }) => {
                    if alo > ahi || blo > bhi {
                        // Unreachable values: no rows can flow here.
                        return ColFact::new(AbsDomain::Int { lo: 0, hi: -1 }, 0, false);
                    }
                    let (domain, wrapped) = int_arith(*op, (alo, ahi), (blo, bhi), context, errs);
                    // Wrapping add/sub by a constant is a bijection on
                    // i64, so a distinct input stays distinct even when
                    // the interval had to widen; everything else only
                    // keeps the proof when it provably cannot wrap.
                    let const_rhs = matches!(**rhs, Expr::Const(_));
                    let distinct = match op {
                        ArithKind::Add | ArithKind::Sub => a.distinct && const_rhs,
                        ArithKind::Mul => {
                            a.distinct && const_rhs && !wrapped && blo == bhi && blo != 0
                        }
                        ArithKind::Div => false,
                    };
                    ColFact::new(domain, ndv, distinct)
                }
                (
                    &AbsDomain::Float {
                        lo: alo,
                        hi: ahi,
                        finite: af,
                    },
                    &AbsDomain::Float {
                        lo: blo,
                        hi: bhi,
                        finite: bf,
                    },
                ) => ColFact::new(float_arith(*op, (alo, ahi, af), (blo, bhi, bf)), ndv, false),
                // Ill-typed arithmetic: verify phase 1 rejects it; stay
                // sound with a top fact here.
                _ => ColFact::top(DataType::I64, input.rows),
            }
        }
    }
}

/// Integer interval arithmetic in `i128` (exact for all `i64` inputs).
/// Returns the result domain and whether it had to widen for a possible
/// wrap.
fn int_arith(
    op: ArithKind,
    (alo, ahi): (i64, i64),
    (blo, bhi): (i64, i64),
    context: &str,
    errs: &mut Vec<AnalysisError>,
) -> (AbsDomain, bool) {
    let (alo, ahi, blo, bhi) = (alo as i128, ahi as i128, blo as i128, bhi as i128);
    let (lo, hi) = match op {
        ArithKind::Add => (alo + blo, ahi + bhi),
        ArithKind::Sub => (alo - bhi, ahi - blo),
        ArithKind::Mul => {
            let p = [alo * blo, alo * bhi, ahi * blo, ahi * bhi];
            (
                p.iter().copied().min().expect("nonempty"),
                p.iter().copied().max().expect("nonempty"),
            )
        }
        ArithKind::Div => {
            if blo <= 0 && 0 <= bhi {
                errs.push(AnalysisError::DivByZeroReachable {
                    context: context.to_string(),
                    lo: blo as i64,
                    hi: bhi as i64,
                });
            }
            // `i64::MIN / -1` is the one *division* overflow, and it traps
            // (division has checked semantics in both build profiles).
            if alo <= i64::MIN as i128 && blo <= -1 && -1 <= bhi {
                errs.push(AnalysisError::PossibleOverflow {
                    context: context.to_string(),
                    op: "div",
                    lo: -(i64::MIN as i128),
                    hi: -(i64::MIN as i128),
                });
            }
            match div_bounds((alo, ahi), (blo, bhi)) {
                Some(b) => b,
                // Divisor can only be zero: every selected tuple traps, so
                // no value ever materializes.
                None => return (AbsDomain::Int { lo: 0, hi: -1 }, false),
            }
        }
    };
    if lo < i64::MIN as i128 || hi > i64::MAX as i128 {
        if op != ArithKind::Div {
            errs.push(AnalysisError::PossibleOverflow {
                context: context.to_string(),
                op: op.sig_name(),
                lo,
                hi,
            });
        }
        // Wrapping semantics: the concrete result is *some* i64.
        (
            AbsDomain::Int {
                lo: i64::MIN,
                hi: i64::MAX,
            },
            true,
        )
    } else {
        (
            AbsDomain::Int {
                lo: lo as i64,
                hi: hi as i64,
            },
            false,
        )
    }
}

/// Quotient bounds of `a / b` with `b` restricted to its nonzero part.
/// Returns `None` when `b` is exactly `[0, 0]`.
fn div_bounds((alo, ahi): (i128, i128), (blo, bhi): (i128, i128)) -> Option<(i128, i128)> {
    let mut lo = i128::MAX;
    let mut hi = i128::MIN;
    let mut candidates = |d1: i128, d2: i128| {
        // Truncating division is monotone in the dividend and, per sign
        // region, monotone in the divisor — extremes sit at corners.
        for a in [alo, ahi] {
            for d in [d1, d2] {
                let q = a / d;
                lo = lo.min(q);
                hi = hi.max(q);
            }
        }
    };
    if bhi >= 1 {
        candidates(blo.max(1), bhi);
    }
    if blo <= -1 {
        candidates(blo, bhi.min(-1));
    }
    (lo <= hi).then_some((lo, hi))
}

/// Float interval arithmetic. IEEE operations are correctly rounded and
/// monotone, so endpoint evaluation bounds every in-range result; anything
/// that can reach ±∞ or NaN collapses to the unbounded non-finite domain.
fn float_arith(
    op: ArithKind,
    (alo, ahi, af): (f64, f64, bool),
    (blo, bhi, bf): (f64, f64, bool),
) -> AbsDomain {
    let unbounded = AbsDomain::Float {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
        finite: false,
    };
    if !(af && bf) {
        return unbounded;
    }
    let (lo, hi) = match op {
        ArithKind::Add => (alo + blo, ahi + bhi),
        ArithKind::Sub => (alo - bhi, ahi - blo),
        ArithKind::Mul => {
            let p = [alo * blo, alo * bhi, ahi * blo, ahi * bhi];
            (p.iter().copied().fold(f64::INFINITY, f64::min), {
                p.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            })
        }
        ArithKind::Div => {
            if blo <= 0.0 && 0.0 <= bhi {
                // 0 ∈ divisor: ±∞ (x/0) and NaN (0/0) are reachable.
                return unbounded;
            }
            let p = [alo / blo, alo / bhi, ahi / blo, ahi / bhi];
            (p.iter().copied().fold(f64::INFINITY, f64::min), {
                p.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            })
        }
    };
    if lo.is_finite() && hi.is_finite() {
        AbsDomain::Float {
            lo,
            hi,
            finite: true,
        }
    } else {
        unbounded
    }
}

fn cast_fact(fact: ColFact, to: DataType) -> ColFact {
    match (&fact.domain, to) {
        // Widening integer casts are exact and injective.
        (AbsDomain::Int { .. }, DataType::I32 | DataType::I64) => fact,
        (&AbsDomain::Int { lo, hi }, DataType::F64) => {
            // `i64 as f64` rounds to nearest; direct the endpoints outward
            // so the cast of any in-range value stays inside.
            let exact = lo.abs() <= (1 << 53) && hi.abs() <= (1 << 53);
            let domain = AbsDomain::Float {
                lo: f64_at_most(lo),
                hi: f64_at_least(hi),
                finite: true,
            };
            // Beyond 2^53 the cast can collide distinct values.
            ColFact::new(domain, fact.ndv, fact.distinct && exact)
        }
        _ => fact,
    }
}

/// Largest f64 ≤ `x` (for directed interval endpoints).
fn f64_at_most(x: i64) -> f64 {
    let f = x as f64;
    // |x| ≤ i64::MAX, so `f` is finite and the exact compare is safe.
    if f as i128 > x as i128 {
        next_toward_neg_inf(f)
    } else {
        f
    }
}

/// Smallest f64 ≥ `x`.
fn f64_at_least(x: i64) -> f64 {
    let f = x as f64;
    if (f as i128) < x as i128 {
        next_toward_pos_inf(f)
    } else {
        f
    }
}

fn next_toward_neg_inf(f: f64) -> f64 {
    if f == 0.0 {
        return -f64::from_bits(1);
    }
    let bits = f.to_bits();
    f64::from_bits(if f > 0.0 { bits - 1 } else { bits + 1 })
}

fn next_toward_pos_inf(f: f64) -> f64 {
    if f == 0.0 {
        return f64::from_bits(1);
    }
    let bits = f.to_bits();
    f64::from_bits(if f > 0.0 { bits + 1 } else { bits - 1 })
}

// --- aggregate transfer functions ------------------------------------------

fn agg_fact(
    agg: &Agg,
    input: &Facts,
    grouped: bool,
    label: &str,
    errs: &mut Vec<AnalysisError>,
) -> ColFact {
    let n = input.rows;
    // normalize() caps the NDV at the output row bound.
    let fact = |domain| ColFact::new(domain, usize::MAX, false);
    match agg.of {
        None => {
            // Every group holds at least one row; a global count over an
            // empty input is 0.
            let lo = if grouped { 1 } else { 0 };
            fact(AbsDomain::Int {
                lo: lo.min(n as i64),
                hi: i64::try_from(n).unwrap_or(i64::MAX),
            })
        }
        Some((AggFunc::Sum, NumType::I64, c)) => match input.cols[c].domain {
            AbsDomain::Int { lo, hi } if lo <= hi && n > 0 => {
                let (lo, hi, n) = (lo as i128, hi as i128, n as i128);
                // Sum of k ∈ [1, n] (grouped) or [0, n] (global) values
                // each in [lo, hi], accumulated exactly in i128.
                let mut slo = if lo < 0 { n * lo } else { lo };
                let mut shi = if hi > 0 { n * hi } else { hi };
                if !grouped {
                    slo = slo.min(0);
                    shi = shi.max(0);
                }
                if slo < i64::MIN as i128 || shi > i64::MAX as i128 {
                    errs.push(AnalysisError::SumOverflow {
                        context: label.to_string(),
                        agg: format!("sum_i64(col {c})"),
                        lo: slo,
                        hi: shi,
                    });
                    fact(AbsDomain::top(DataType::I64))
                } else {
                    fact(AbsDomain::Int {
                        lo: slo as i64,
                        hi: shi as i64,
                    })
                }
            }
            // Empty input: a grouped agg emits no rows, a global sum 0.
            _ if !grouped => fact(AbsDomain::Int { lo: 0, hi: 0 }),
            _ => fact(AbsDomain::Int { lo: 0, hi: -1 }),
        },
        Some((AggFunc::Sum, NumType::F64, c)) => match input.cols[c].domain {
            AbsDomain::Float { lo, hi, finite } if finite && lo <= hi && n > 0 => {
                let nf = n as f64;
                let mut slo = if lo < 0.0 { nf * lo } else { lo };
                let mut shi = if hi > 0.0 { nf * hi } else { hi };
                if !grouped {
                    slo = slo.min(0.0);
                    shi = shi.max(0.0);
                }
                // Per-element rounding can drift past the exact bound.
                slo -= slo.abs() * SUM_F64_SLACK;
                shi += shi.abs() * SUM_F64_SLACK;
                if slo.is_finite() && shi.is_finite() {
                    fact(AbsDomain::Float {
                        lo: slo,
                        hi: shi,
                        finite: true,
                    })
                } else {
                    fact(AbsDomain::top(DataType::F64))
                }
            }
            // Non-finite input with rows possible: no usable bound.
            AbsDomain::Float { finite: false, .. } if n > 0 => fact(AbsDomain::top(DataType::F64)),
            // Provably empty input: a global sum is 0, a grouped one
            // emits no rows.
            _ if !grouped => fact(AbsDomain::Float {
                lo: 0.0,
                hi: 0.0,
                finite: true,
            }),
            _ => fact(AbsDomain::Float {
                lo: f64::INFINITY,
                hi: f64::NEG_INFINITY,
                finite: true,
            }),
        },
        Some((func, NumType::I64, c)) => {
            let input_dom = match input.cols[c].domain {
                AbsDomain::Int { lo, hi } if n > 0 => AbsDomain::Int { lo, hi },
                _ => AbsDomain::Int { lo: 0, hi: -1 },
            };
            if grouped {
                // Groups only exist for present rows: min/max of a group
                // is one of its values.
                fact(input_dom)
            } else {
                // A global fold over zero rows emits its identity.
                let identity = func.over_i64().0;
                fact(input_dom.hull(&AbsDomain::Int {
                    lo: identity,
                    hi: identity,
                }))
            }
        }
        Some((func, NumType::F64, c)) => {
            let input_dom = match input.cols[c].domain {
                AbsDomain::Float { lo, hi, finite } if n > 0 => AbsDomain::Float { lo, hi, finite },
                _ => AbsDomain::Float {
                    lo: f64::INFINITY,
                    hi: f64::NEG_INFINITY,
                    finite: true,
                },
            };
            if grouped {
                fact(input_dom)
            } else {
                let identity = func.over_f64().0;
                fact(input_dom.hull(&AbsDomain::Float {
                    lo: identity,
                    hi: identity,
                    finite: false,
                }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::sync::Arc;

    use ma_vector::{ColumnBuilder, Table};

    use super::*;
    use crate::plan::{asc, count, substr, NamedPred, PlanBuilder};

    /// `t(k, s)` and `d(dk, ds)`, encoded: `k`/`dk` the sorted row ids
    /// (the clustering keys), `s`/`ds` dictionary-coded strings.
    fn catalog() -> HashMap<String, Arc<Table>> {
        let table = |name: &str, key: &str, strs: &str, rows: usize| {
            let mut k = ColumnBuilder::with_capacity(DataType::I32, rows);
            let mut s = ColumnBuilder::with_capacity(DataType::Str, rows);
            for i in 0..rows {
                k.push_i32(i as i32);
                s.push_str(["red", "green", "blue"][i % 3]);
            }
            let cols = vec![(key.into(), k.finish()), (strs.into(), s.finish())];
            let t = ma_vector::encode_table(&Table::new(name, cols).unwrap());
            assert_eq!(t.column_at(1).encoding(), Some(ma_vector::Encoding::Dict));
            (name.to_string(), Arc::new(t))
        };
        HashMap::from([table("t", "k", "s", 3000), table("d", "dk", "ds", 300)])
    }

    fn t(c: &HashMap<String, Arc<Table>>) -> PlanBuilder {
        PlanBuilder::scan(c, "t", &["k", "s"])
    }

    fn d(c: &HashMap<String, Arc<Table>>) -> PlanBuilder {
        PlanBuilder::scan(c, "d", &["dk", "ds"])
    }

    /// Whether each root column of `plan` carries dictionary codes.
    fn coded(plan: &LogicalPlan) -> Vec<bool> {
        let facts = analyze(plan).facts;
        facts.cols.iter().map(|c| c.codes.is_some()).collect()
    }

    fn built(pb: PlanBuilder) -> LogicalPlan {
        pb.build().unwrap()
    }

    #[test]
    fn dictionary_codes_flow_only_where_vectors_pass_untouched() {
        let c = catalog();
        // A dictionary-coded scan column carries the codes of its own
        // dictionary, compared by identity.
        let scan = built(t(&c));
        let facts = analyze(&scan).facts;
        let Ok(Column::Enc(e)) = c["t"].column("s") else {
            panic!("s is encoded");
        };
        let EncColumn::Dict(dict) = &**e else {
            panic!("s is dictionary-coded");
        };
        assert_eq!(facts.cols[1].codes, Some(DictRef::of(dict)));
        assert_eq!(facts.cols[1].width.enc, 8);
        assert_ne!(
            analyze(&built(d(&c))).facts.cols[1].codes,
            facts.cols[1].codes
        );
        assert_eq!(coded(&scan), [false, true]);
        // Filters and pass-through projections keep them...
        let pred = NamedPred::cmp_val("k", CmpKind::Lt, Value::I32(7));
        assert_eq!(coded(&built(t(&c).filter(pred, "f"))), [false, true]);
        let pass = t(&c).project(vec![("s", crate::plan::col("s"))], "p");
        assert_eq!(coded(&built(pass)), [true]);
        // ... an evaluated expression does not, a bare column included.
        let sub = t(&c).project(vec![("sub", substr("s", 1, 2))], "p");
        assert_eq!(coded(&built(sub)), [false]);
        let LogicalPlan::Project { schema, .. } =
            built(t(&c).project(vec![("s", crate::plan::col("s"))], "p"))
        else {
            unreachable!("a projection");
        };
        let bare = LogicalPlan::Project {
            input: Box::new(scan),
            items: vec![ProjItem::Expr(Expr::Col(1))],
            label: "p".into(),
            schema,
        };
        assert_eq!(coded(&bare), [false]);
        // Group keys are read back from the table.
        let agg = t(&c).hash_agg(&["s"], vec![count()], "a");
        assert_eq!(coded(&built(agg)), [false, false]);
        // An inner join copies its probe columns and fetches its payload.
        let inner = t(&c).hash_join(d(&c), &[("k", "dk")], &["ds"], JoinKind::Inner, false, "j");
        assert_eq!(coded(&built(inner)), [false, false, false]);
        // Semi, anti and left-single joins pass the probe vectors on.
        for kind in [JoinKind::Semi, JoinKind::Anti] {
            let j = t(&c).hash_join(d(&c), &[("k", "dk")], &[], kind, false, "j");
            assert_eq!(coded(&built(j)), [false, true], "{kind:?}");
        }
        // Left-single payloads are numeric.
        let ls = t(&c).left_single_join(d(&c), &[("k", "dk")], &[("dk", Value::I32(-1))], "j");
        assert_eq!(coded(&built(ls)), [false, true, false]);
        // Merge joins and sorts go through row stores.
        let mj = t(&c).merge_join(d(&c), ("k", "dk"), &["ds"], "m");
        assert_eq!(coded(&built(mj)), [false, false, false]);
        assert_eq!(coded(&built(t(&c).sort(&[asc("k")]))), [false, false]);
    }

    #[test]
    fn column_comparisons_past_an_i64_extreme_empty_the_interval() {
        let fact = |lo, hi| ColFact::new(AbsDomain::Int { lo, hi }, 10, false);
        // a < b with b at its least value: no `a` qualifies.
        let (mut a, mut b) = (fact(0, 5), fact(i64::MIN, i64::MIN));
        narrow_cmp_col(&mut a, CmpKind::Lt, &mut b);
        assert!(a.domain.is_empty(), "{}", a.domain);
        // a > b with a at its greatest value: no `b` qualifies.
        let (mut a, mut b) = (fact(i64::MAX, i64::MAX), fact(0, 5));
        narrow_cmp_col(&mut b, CmpKind::Gt, &mut a);
        assert!(b.domain.is_empty(), "{}", b.domain);
        // Inside the range the bounds stay exact.
        let (mut a, mut b) = (fact(0, 10), fact(3, 7));
        narrow_cmp_col(&mut a, CmpKind::Lt, &mut b);
        assert_eq!(
            (a.domain, b.domain),
            (
                AbsDomain::Int { lo: 0, hi: 6 },
                AbsDomain::Int { lo: 3, hi: 7 }
            )
        );
    }
}
