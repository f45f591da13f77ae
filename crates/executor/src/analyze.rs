//! Abstract interpretation over logical plans (DESIGN.md §11).
//!
//! A forward dataflow pass that propagates per-column *facts* — integer
//! intervals `[lo, hi]`, float finiteness, distinct-count (NDV) upper
//! bounds, all-distinctness proofs — plus a per-node row-count upper bound
//! from base-table statistics ([`ma_vector::ColumnStats`]) through every
//! [`LogicalPlan`] node:
//!
//! * **Scan** seeds facts from exact table stats; the row bound is the
//!   catalog's row count (`base_rows`), which [`crate::plan::Catalog`]
//!   contracts to be exact.
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
//! The row/NDV bounds are what the physical planner's partitioning
//! verdicts consume: `plan::plan_physical` runs the per-node transfer
//! once per node and keeps each node's row bound on the physical plan.
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

use ma_vector::{DataType, StatsDomain};

use crate::expr::{Agg, AggFunc, ArithKind, CmpKind, CmpRhs, Expr, NumType, Pred, Value};
use crate::ops::{JoinKind, ProjItem};
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
    /// narrowing — a checked runtime panic.
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
    /// sum-narrowing overflow is a checked panic with a clear message,
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
}

impl ColFact {
    fn top(ty: DataType, rows: usize) -> ColFact {
        ColFact {
            domain: AbsDomain::top(ty),
            ndv: rows,
            distinct: false,
        }
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
    /// NDV ≤ rows, NDV ≤ interval width, and a row bound ≤ 1 proves
    /// distinctness trivially.
    fn normalize(mut self) -> Facts {
        for c in &mut self.cols {
            c.ndv = c.ndv.min(self.rows).min(c.domain.width());
            if self.rows <= 1 {
                c.distinct = true;
            }
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
/// the plan-time regression pin reads it around one `plan_physical` call
/// to prove the planner interprets each node exactly once.
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
    transfer(plan, &mut inputs[..n], errs)
}

/// The transfer function of one node: its output facts from its
/// children's (`inputs`, in [`LogicalPlan::children`] order, consumed).
/// The physical planner calls it once per node in its own bottom-up pass
/// and keeps the row bound every later decision reads.
pub(crate) fn transfer(
    plan: &LogicalPlan,
    inputs: &mut [Facts],
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
            let mut facts = std::mem::take(&mut inputs[0]);
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
                    ProjItem::Expr(e) => eval_expr(e, in_facts, label, errs),
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
            let mut build_f = std::mem::take(&mut inputs[0]);
            let mut probe_f = std::mem::take(&mut inputs[1]);
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
            let mut cols = probe_f.cols;
            if matches!(kind, JoinKind::Inner) && !build_distinct {
                // A probe tuple can fan out to several matches.
                for c in &mut cols {
                    c.distinct = false;
                }
            }
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
            let mut left_f = std::mem::take(&mut inputs[0]);
            let mut right_f = std::mem::take(&mut inputs[1]);
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
            let mut cols = right_f.cols;
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
            let mut facts = std::mem::take(&mut inputs[0]);
            if let Some(n) = limit {
                facts.rows = facts.rows.min(*n);
            }
            facts
        }
    };
    facts.normalize()
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

fn narrow_cmp_const(fact: &mut ColFact, op: CmpKind, v: &Value) {
    match (&mut fact.domain, v) {
        (AbsDomain::Int { lo, hi }, _) => {
            let Some(c) = const_as_i64(v) else { return };
            match op {
                CmpKind::Lt => *hi = (*hi).min(c.saturating_sub(1)),
                CmpKind::Le => *hi = (*hi).min(c),
                CmpKind::Gt => *lo = (*lo).max(c.saturating_add(1)),
                CmpKind::Ge => *lo = (*lo).max(c),
                CmpKind::Eq => {
                    *lo = (*lo).max(c);
                    *hi = (*hi).min(c);
                    fact.ndv = fact.ndv.min(1);
                }
                CmpKind::Ne => {
                    if *lo == *hi && *lo == c {
                        *hi = *lo - 1; // empty
                    } else if *lo == c {
                        *lo += 1;
                    } else if *hi == c {
                        *hi -= 1;
                    }
                }
            }
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
    match (&mut a.domain, &mut b.domain) {
        (AbsDomain::Int { lo: alo, hi: ahi }, AbsDomain::Int { lo: blo, hi: bhi }) => match op {
            CmpKind::Lt => {
                *ahi = (*ahi).min(bhi.saturating_sub(1));
                *blo = (*blo).max(alo.saturating_add(1));
            }
            CmpKind::Le => {
                *ahi = (*ahi).min(*bhi);
                *blo = (*blo).max(*alo);
            }
            CmpKind::Gt => {
                *alo = (*alo).max(blo.saturating_add(1));
                *bhi = (*bhi).min(ahi.saturating_sub(1));
            }
            CmpKind::Ge => {
                *alo = (*alo).max(*blo);
                *bhi = (*bhi).min(*ahi);
            }
            CmpKind::Eq => {
                let lo = (*alo).max(*blo);
                let hi = (*ahi).min(*bhi);
                (*alo, *ahi, *blo, *bhi) = (lo, hi, lo, hi);
                let ndv = a.ndv.min(b.ndv);
                a.ndv = ndv;
                b.ndv = ndv;
            }
            CmpKind::Ne => {}
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
            CmpKind::Gt | CmpKind::Ge => {
                *alo = alo.max(*blo);
                *bhi = bhi.min(*ahi);
            }
            CmpKind::Eq => {
                let lo = alo.max(*blo);
                let hi = ahi.min(*bhi);
                (*alo, *ahi, *blo, *bhi) = (lo, hi, lo, hi);
            }
            CmpKind::Ne => {}
        },
        _ => {}
    }
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
        Expr::Const(v) => ColFact {
            domain: const_domain(v),
            ndv: 1,
            distinct: false,
        },
        Expr::Cast { to, inner } => {
            let fact = eval_expr(inner, input, context, errs);
            cast_fact(fact, *to)
        }
        Expr::Substr { col, .. } => {
            // Substring is a per-row function of one column: the NDV bound
            // carries over, but distinctness does not (it is not injective).
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
                        return ColFact {
                            domain: AbsDomain::Int { lo: 0, hi: -1 },
                            ndv: 0,
                            distinct: false,
                        };
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
                    ColFact {
                        domain,
                        ndv,
                        distinct,
                    }
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
                ) => ColFact {
                    domain: float_arith(*op, (alo, ahi, af), (blo, bhi, bf)),
                    ndv,
                    distinct: false,
                },
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
            ColFact {
                domain: AbsDomain::Float {
                    lo: f64_at_most(lo),
                    hi: f64_at_least(hi),
                    finite: true,
                },
                ndv: fact.ndv,
                // Beyond 2^53 the cast can collide distinct values.
                distinct: fact.distinct && exact,
            }
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
    let fact = |domain| ColFact {
        domain,
        ndv: usize::MAX, // normalize() caps at the output row bound
        distinct: false,
    };
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

// --- rendering -------------------------------------------------------------

/// Renders the plan tree with each node's derived row bound and column
/// facts — the `repro analyze` output.
pub fn render(plan: &LogicalPlan) -> String {
    let mut out = String::new();
    render_node(plan, 0, &mut out);
    out
}

fn render_node(plan: &LogicalPlan, depth: usize, out: &mut String) {
    use std::fmt::Write;
    let facts = node_facts(plan, &mut Vec::new());
    let pad = "  ".repeat(depth);
    let name = match plan {
        LogicalPlan::Scan { table, .. } => format!("Scan {}", table.name()),
        LogicalPlan::Filter { label, .. } => format!("Filter \"{label}\""),
        LogicalPlan::Project { label, .. } => format!("Project \"{label}\""),
        LogicalPlan::HashAgg { label, .. } => format!("HashAgg \"{label}\""),
        LogicalPlan::StreamAgg { label, .. } => format!("StreamAgg \"{label}\""),
        LogicalPlan::HashJoin { label, kind, .. } => format!("HashJoin {kind:?} \"{label}\""),
        LogicalPlan::MergeJoin { label, .. } => format!("MergeJoin \"{label}\""),
        LogicalPlan::Sort { limit, .. } => match limit {
            Some(n) => format!("Sort limit={n}"),
            None => "Sort".to_string(),
        },
    };
    let _ = writeln!(out, "{pad}{name}  rows\u{2264}{}", facts.rows);
    for (field, fact) in plan.schema().fields().iter().zip(&facts.cols) {
        let _ = writeln!(
            out,
            "{pad}  \u{00b7} {}: {} ndv\u{2264}{}{}",
            field.name,
            fact.domain,
            fact.ndv,
            if fact.distinct { " distinct" } else { "" }
        );
    }
    for child in plan.children() {
        render_node(child, depth + 1, out);
    }
}
