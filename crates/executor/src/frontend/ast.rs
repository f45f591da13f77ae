//! The abstract syntax tree of the query DSL.
//!
//! A query is a scan plus a pipeline of [`Stage`]s. Scalar expressions,
//! predicates, aggregates and sort keys are the engine's own types over
//! column *names* ([`NamedExpr`], [`NamedPred`], `Agg<String>`,
//! `SortKey<String>` — the very types the plan builder takes), with
//! literals as written: `Value::I64`, `Value::F64` or `Value::Str`,
//! coerced to the column type they meet when the query is compiled.
//!
//! Everything that can fail resolution has a [`Span`]: identifiers carry
//! theirs, and the leaves of an expression or predicate (its column
//! references and literals), the input columns of a stage's aggregates and
//! its sort keys keep theirs in a [`LeafSpans`] side table, in the order
//! written, so both parse errors and plan errors point at the offending
//! characters. Spans are **diagnostic only**: they deliberately compare
//! equal (`PartialEq` on [`Span`] and [`LeafSpans`] is vacuous) so the
//! parser round-trip property — `parse(display(ast)) == ast` — holds
//! structurally even though re-rendered text has different offsets.
//!
//! [`Display`](std::fmt::Display) renders the canonical single-line form
//! of a query; the parser accepts exactly that form back (plus redundant
//! whitespace, parentheses, explicit `asc`, and the `==`/`<>` comparison
//! spellings, all of which normalize away).

use ma_vector::DataType;

use crate::expr::{Agg, ArithKind, CmpKind, CmpRhs, Expr, Pred, SortKey, Value};
use crate::plan::{NamedExpr, NamedPred};

/// A half-open byte range `start..end` into the query text.
#[derive(Debug, Clone, Copy, Default, Eq)]
pub struct Span {
    /// First byte of the spanned text.
    pub start: usize,
    /// One past the last byte.
    pub end: usize,
}

impl Span {
    /// The union of two spans (smallest span covering both).
    pub fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }
}

/// Spans are diagnostics, not semantics: two ASTs that differ only in
/// source offsets are the same query, which is exactly what the
/// round-trip property needs.
impl PartialEq for Span {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// The source spans of a tree's leaves — its column references and
/// literals, left to right. Programmatically built trees (the fuzzer's
/// generator) carry an empty table.
#[derive(Debug, Clone, Default, Eq)]
pub struct LeafSpans(pub Vec<Span>);

impl LeafSpans {
    /// The smallest span covering every leaf.
    pub fn all(&self) -> Span {
        self.0.iter().copied().reduce(Span::to).unwrap_or_default()
    }
}

/// Diagnostics, not semantics — as for [`Span`].
impl PartialEq for LeafSpans {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// An identifier with its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ident {
    /// The name as written.
    pub name: String,
    /// Where it was written.
    pub span: Span,
}

impl Ident {
    /// An identifier with a synthetic (empty) span, for programmatically
    /// built ASTs (the fuzzer's generator).
    pub fn synth(name: impl Into<String>) -> Ident {
        Ident {
            name: name.into(),
            span: Span::default(),
        }
    }
}

impl std::fmt::Display for Ident {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name)
    }
}

/// A column reference with an optional `as` alias.
#[derive(Debug, Clone, PartialEq)]
pub struct ColSpec {
    /// Source column name.
    pub name: Ident,
    /// Output alias (`None` keeps the source name).
    pub alias: Option<Ident>,
}

impl ColSpec {
    /// `name` (no alias) with a synthetic span.
    pub fn synth(name: impl Into<String>) -> ColSpec {
        ColSpec {
            name: Ident::synth(name),
            alias: None,
        }
    }

    /// `name as alias` with synthetic spans.
    pub fn synth_as(name: impl Into<String>, alias: impl Into<String>) -> ColSpec {
        ColSpec {
            name: Ident::synth(name),
            alias: Some(Ident::synth(alias)),
        }
    }

    /// The builder-facing `"source as alias"` spec string.
    pub(crate) fn spec(&self) -> String {
        match &self.alias {
            Some(a) => format!("{} as {}", self.name.name, a.name),
            None => self.name.name.clone(),
        }
    }

    /// The output column name (alias if present).
    pub fn out_name(&self) -> &str {
        match &self.alias {
            Some(a) => &a.name,
            None => &self.name.name,
        }
    }
}

impl std::fmt::Display for ColSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.alias {
            Some(a) => write!(f, "{} as {}", self.name, a),
            None => write!(f, "{}", self.name),
        }
    }
}

fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// A literal in the canonical text. After parsing only `I64`, `F64` and
/// `Str` occur; the narrow integers render like `I64` would.
fn lit(v: &Value) -> String {
    match v {
        Value::I16(v) => v.to_string(),
        Value::I32(v) => v.to_string(),
        Value::I64(v) => v.to_string(),
        // `{:?}` prints the shortest digits that round-trip, and always
        // marks the value as a float ("1.0", "1e-5").
        Value::F64(v) => format!("{v:?}"),
        Value::Str(s) => quoted(s),
    }
}

fn prec(e: &NamedExpr) -> u8 {
    match e {
        Expr::Arith {
            op: ArithKind::Add | ArithKind::Sub,
            ..
        } => 1,
        Expr::Arith { .. } => 2,
        _ => 3,
    }
}

fn arith_sym(op: ArithKind) -> &'static str {
    match op {
        ArithKind::Add => "+",
        ArithKind::Sub => "-",
        ArithKind::Mul => "*",
        ArithKind::Div => "/",
    }
}

/// The canonical DSL text of a scalar expression (the `select` surface):
/// casts are written `i32(e)` / `i64(e)` / `f64(e)`, a literal is valid
/// only as the right operand of arithmetic.
impl std::fmt::Display for NamedExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expr::Col(name) => f.write_str(name),
            Expr::Const(v) => f.write_str(&lit(v)),
            Expr::Arith { op, lhs, rhs } => {
                // Minimal parens: the tree is left-leaning after parsing,
                // so the left child may share this precedence but the
                // right child needs parens at equal precedence.
                let p = prec(self);
                if prec(lhs) < p {
                    write!(f, "({lhs})")?;
                } else {
                    write!(f, "{lhs}")?;
                }
                write!(f, " {} ", arith_sym(*op))?;
                if prec(rhs) <= p {
                    write!(f, "({rhs})")
                } else {
                    write!(f, "{rhs}")
                }
            }
            Expr::Cast { to, inner } => {
                let name = match to {
                    DataType::I16 => "i16",
                    DataType::I32 => "i32",
                    DataType::I64 => "i64",
                    DataType::F64 => "f64",
                    DataType::Str => "str",
                };
                write!(f, "{name}({inner})")
            }
            Expr::Substr { col, start, len } => write!(f, "substr({col}, {start}, {len})"),
        }
    }
}

fn cmp_sym(op: CmpKind) -> &'static str {
    match op {
        CmpKind::Lt => "<",
        CmpKind::Le => "<=",
        CmpKind::Gt => ">",
        CmpKind::Ge => ">=",
        CmpKind::Eq => "=",
        CmpKind::Ne => "!=",
    }
}

/// The canonical DSL text of a filter predicate (the `where` surface).
/// The rendering relies on two invariants the parser establishes: `And` /
/// `Or` hold **two or more** branches and never nest the same variant
/// directly (chains are flattened).
impl std::fmt::Display for NamedPred {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Pred::Cmp { col, op, rhs } => {
                write!(f, "{col} {} ", cmp_sym(*op))?;
                match rhs {
                    CmpRhs::Const(v) => f.write_str(&lit(v)),
                    CmpRhs::Col(other) => f.write_str(other),
                }
            }
            Pred::Like {
                col,
                pattern,
                negated,
            } => {
                let not = if *negated { "not " } else { "" };
                write!(f, "{col} {not}like {}", quoted(pattern))
            }
            Pred::InStr { col, values } => {
                write!(f, "{col} in (")?;
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    f.write_str(&quoted(v))?;
                }
                f.write_str(")")
            }
            Pred::And(ps) => {
                // `and` binds tighter than `or`: direct `or` children need
                // parens, atoms don't.
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" and ")?;
                    }
                    if matches!(p, Pred::Or(_)) {
                        write!(f, "({p})")?;
                    } else {
                        write!(f, "{p}")?;
                    }
                }
                Ok(())
            }
            Pred::Or(ps) => {
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" or ")?;
                    }
                    write!(f, "{p}")?;
                }
                Ok(())
            }
        }
    }
}

/// One `name = expr` item of a `select` stage.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// Output column name.
    pub name: Ident,
    /// Defining expression.
    pub expr: NamedExpr,
    /// Where the expression's leaves were written.
    pub spans: LeafSpans,
}

impl std::fmt::Display for SelectItem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} = {}", self.name, self.expr)
    }
}

/// The canonical DSL text of an aggregate: `count`, `sum(c)`, `min(c)`,
/// `max(c)`, then `as name`. The element type is not written — `sum(c)`
/// parses as the `i64` form and takes the type of the column it meets
/// when the query is compiled, as literals do.
impl std::fmt::Display for Agg<String> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.of {
            Some((func, _, col)) => write!(f, "{}({col})", func.name())?,
            None => f.write_str("count")?,
        }
        match &self.name {
            Some(name) => write!(f, " as {name}"),
            None => Ok(()),
        }
    }
}

/// The canonical DSL text of a sort key (`asc` is the default and not
/// rendered).
impl std::fmt::Display for SortKey<String> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.col)?;
        if self.desc {
            f.write_str(" desc")?;
        }
        Ok(())
    }
}

/// Hash-join semantics selectable in the DSL (`left single` joins have
/// their own stage because they carry defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKindAst {
    /// Inner join.
    Inner,
    /// Semi join (filter to probe rows with a match).
    Semi,
    /// Anti join (filter to probe rows without a match).
    Anti,
}

impl std::fmt::Display for JoinKindAst {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            JoinKindAst::Inner => "inner",
            JoinKindAst::Semi => "semi",
            JoinKindAst::Anti => "anti",
        })
    }
}

/// One pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub enum Stage {
    /// `where <pred>`, with where the predicate's leaves were written.
    Where(NamedPred, LeafSpans),
    /// `select name = expr, ...`.
    Select(Vec<SelectItem>),
    /// `keep [col, ...]` — reorder/drop/rename without computing.
    Keep(Vec<ColSpec>),
    /// `agg [aggs]` (stream) or `agg by [keys] [aggs]` (hash).
    Agg {
        /// Group keys (empty = single-group stream aggregate).
        keys: Vec<ColSpec>,
        /// Aggregates.
        aggs: Vec<Agg<String>>,
        /// Where the aggregates' input columns were written.
        spans: LeafSpans,
    },
    /// `join <kind> (<query>) on probe = build, ... payload [cols] bloom?`.
    Join {
        /// Join semantics.
        kind: JoinKindAst,
        /// Build-side query.
        query: Box<Query>,
        /// `(probe, build)` key pairs.
        on: Vec<(Ident, Ident)>,
        /// Build columns carried into the output (inner only).
        payload: Vec<ColSpec>,
        /// Bloom-filter probe acceleration.
        bloom: bool,
    },
    /// `join single (<query>) on ... payload [col default lit, ...]`.
    JoinSingle {
        /// Build-side query (unique keys required).
        query: Box<Query>,
        /// `(probe, build)` key pairs.
        on: Vec<(Ident, Ident)>,
        /// Payload columns with per-column defaults for unmatched rows.
        payload: Vec<(ColSpec, Value)>,
    },
    /// `merge join (<query>) on right_key = left_key payload [cols]`.
    MergeJoin {
        /// Left (unique-key, materialized) query.
        query: Box<Query>,
        /// `(right, left)` key pair.
        on: (Ident, Ident),
        /// Left columns appended to the output.
        payload: Vec<ColSpec>,
    },
    /// `order by key dir, ...` or, with a row limit, `top N by key dir, ...`.
    Sort {
        /// Row limit.
        limit: Option<u64>,
        /// Sort keys.
        keys: Vec<SortKey<String>>,
        /// Where the keys were written.
        spans: LeafSpans,
    },
}

fn write_list<T: std::fmt::Display>(
    f: &mut std::fmt::Formatter<'_>,
    items: &[T],
) -> std::fmt::Result {
    for (i, c) in items.iter().enumerate() {
        if i > 0 {
            f.write_str(", ")?;
        }
        write!(f, "{c}")?;
    }
    Ok(())
}

fn write_collist<T: std::fmt::Display>(
    f: &mut std::fmt::Formatter<'_>,
    items: &[T],
) -> std::fmt::Result {
    f.write_str("[")?;
    write_list(f, items)?;
    f.write_str("]")
}

fn write_on(f: &mut std::fmt::Formatter<'_>, on: &[(Ident, Ident)]) -> std::fmt::Result {
    for (i, (p, b)) in on.iter().enumerate() {
        if i > 0 {
            f.write_str(", ")?;
        }
        write!(f, "{p} = {b}")?;
    }
    Ok(())
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Stage::Where(p, _) => write!(f, "where {p}"),
            Stage::Select(items) => {
                f.write_str("select ")?;
                write_list(f, items)
            }
            Stage::Keep(cols) => {
                f.write_str("keep ")?;
                write_collist(f, cols)
            }
            Stage::Agg { keys, aggs, .. } => {
                f.write_str("agg ")?;
                if !keys.is_empty() {
                    f.write_str("by ")?;
                    write_collist(f, keys)?;
                    f.write_str(" ")?;
                }
                write_collist(f, aggs)
            }
            Stage::Join {
                kind,
                query,
                on,
                payload,
                bloom,
            } => {
                write!(f, "join {kind} ({query}) on ")?;
                write_on(f, on)?;
                if !payload.is_empty() {
                    f.write_str(" payload ")?;
                    write_collist(f, payload)?;
                }
                if *bloom {
                    f.write_str(" bloom")?;
                }
                Ok(())
            }
            Stage::JoinSingle { query, on, payload } => {
                write!(f, "join single ({query}) on ")?;
                write_on(f, on)?;
                f.write_str(" payload [")?;
                for (i, (c, d)) in payload.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{c} default {}", lit(d))?;
                }
                f.write_str("]")
            }
            Stage::MergeJoin { query, on, payload } => {
                write!(f, "merge join ({query}) on {} = {}", on.0, on.1)?;
                if !payload.is_empty() {
                    f.write_str(" payload ")?;
                    write_collist(f, payload)?;
                }
                Ok(())
            }
            Stage::Sort { limit, keys, .. } => {
                match limit {
                    Some(n) => write!(f, "top {n} by ")?,
                    None => f.write_str("order by ")?,
                }
                write_list(f, keys)
            }
        }
    }
}

impl Stage {
    /// A coarse span for the stage (used when a plan error has no finer
    /// anchor): the span of the first identifier-ish token inside it.
    pub fn span(&self) -> Span {
        match self {
            Stage::Where(_, spans) => spans.all(),
            Stage::Select(items) => items.first().map(|i| i.name.span).unwrap_or_default(),
            Stage::Keep(cols) => cols.first().map(|c| c.name.span).unwrap_or_default(),
            Stage::Agg { keys, spans, .. } => keys
                .first()
                .map(|c| c.name.span)
                .or_else(|| spans.0.first().copied())
                .unwrap_or_default(),
            Stage::Join { on, .. } | Stage::JoinSingle { on, .. } => {
                on.first().map(|(p, _)| p.span).unwrap_or_default()
            }
            Stage::MergeJoin { on, .. } => on.0.span,
            Stage::Sort { spans, .. } => spans.0.first().copied().unwrap_or_default(),
        }
    }
}

/// A whole query: a source scan plus a pipeline of stages.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Scanned table.
    pub table: Ident,
    /// Scanned columns (with optional aliases).
    pub cols: Vec<ColSpec>,
    /// Pipeline stages, applied in order.
    pub stages: Vec<Stage>,
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "from {} ", self.table)?;
        write_collist(f, &self.cols)?;
        for s in &self.stages {
            write!(f, " | {s}")?;
        }
        Ok(())
    }
}
