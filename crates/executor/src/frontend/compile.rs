//! AST → [`PlanBuilder`] compilation.
//!
//! The parsed [`Query`] already holds the trees the builder takes, so the
//! compiler walks it stage by stage and adds only what text needs, peeking
//! at the builder's schema between stages to:
//!
//! * coerce integer literals to the column type they meet (`l_shipdate <=
//!   19980902` compares an `i32` column against an `i32` value, with a
//!   range check — the builder itself requires exact [`Value`] types; in
//!   arithmetic the type met is the left operand's, which the typing pass
//!   answers);
//! * pick the typed aggregate (`sum` over an `f64` column is `sum_f64`,
//!   over anything else `sum_i64`, which the typing rule accepts or
//!   rejects);
//! * attach a [`Span`] to every resolution failure, so a
//!   [`FrontendError::Plan`] points at the offending text just like a
//!   parse error does: every column — group and sort keys included — is
//!   resolved, every literal coerced and every comparison and aggregate
//!   typed at the span its leaves were written at.
//!
//! DSL text is label-free: each stage passes its kind (`where`, `select`,
//! `agg`, `join`, ...) as its node's display label. Labels need not be
//! unique — instances key on their node, not on its label.

use ma_vector::{DataType, Schema};

use super::ast::{JoinKindAst, Query, Span, Stage};
use super::FrontendError;
use crate::expr::{CmpRhs, Expr, NumType, Pred, Value};
use crate::ops::JoinKind;
use crate::plan::expr::resolve_col;
use crate::plan::{rules, Catalog, NamedExpr, NamedPred, PlanBuilder, PlanError};

/// Compiles a parsed query against `catalog` into a finished
/// [`crate::plan::LogicalPlan`] builder. Resolution failures carry the
/// span of the stage (or finer: the literal/column) that caused them.
pub fn compile(q: &Query, catalog: &dyn Catalog) -> Result<PlanBuilder, FrontendError> {
    let specs: Vec<String> = q.cols.iter().map(|c| c.spec()).collect();
    let spec_refs: Vec<&str> = specs.iter().map(String::as_str).collect();
    let mut pb = check(
        PlanBuilder::scan(catalog, &q.table.name, &spec_refs),
        q.table.span,
    )?;
    for stage in &q.stages {
        pb = compile_stage(pb, stage, catalog)?;
    }
    Ok(pb)
}

fn plan_err<T>(err: PlanError, span: Span) -> Result<T, FrontendError> {
    Err(FrontendError::Plan { err, span })
}

/// Surfaces a builder-recorded error with `span`, or passes the builder
/// through untouched.
fn check(pb: PlanBuilder, span: Span) -> Result<PlanBuilder, FrontendError> {
    if pb.peek_schema().is_some() {
        return Ok(pb);
    }
    match pb.build() {
        Err(err) => plan_err(err, span),
        Ok(_) => plan_err(
            PlanError::Invalid("builder lost its schema without an error".into()),
            span,
        ),
    }
}

fn schema_or(pb: &PlanBuilder) -> Schema {
    // `check` runs after every stage, so the schema is always present
    // here; an empty schema only feeds a later, better-spanned error.
    pb.peek_schema()
        .cloned()
        .unwrap_or_else(|| Schema::new(vec![]))
}

fn compile_stage(
    pb: PlanBuilder,
    stage: &Stage,
    catalog: &dyn Catalog,
) -> Result<PlanBuilder, FrontendError> {
    let span = stage.span();
    let schema = schema_or(&pb);
    match stage {
        Stage::Where(p, spans) => {
            let pred = compile_pred(p, &schema, &mut spans.0.iter().copied())?;
            check(pb.filter(pred, "where"), span)
        }
        Stage::Select(items) => {
            let mut out: Vec<(&str, NamedExpr)> = Vec::with_capacity(items.len());
            for it in items {
                let expr = compile_expr(&it.expr, &schema, &mut it.spans.0.iter().copied())?;
                expr.resolve(&schema)
                    .or_else(|err| plan_err(err, it.spans.all()))?;
                out.push((&it.name.name, expr));
            }
            check(pb.project(out, "select"), span)
        }
        Stage::Keep(cols) => {
            let specs: Vec<String> = cols.iter().map(|c| c.spec()).collect();
            let refs: Vec<&str> = specs.iter().map(String::as_str).collect();
            check(pb.keep(&refs), span)
        }
        Stage::Agg { keys, aggs, spans } => {
            for k in keys {
                resolve_col(&schema, &k.name.name)
                    .and_then(|i| Ok(rules::group_key(&schema, i)?))
                    .or_else(|err| plan_err(err, k.name.span))?;
            }
            // A bare `sum(c)` — parsed as the `i64` form — takes the `f64`
            // form over an `f64` column; each aggregate is then resolved and
            // typed, by `Agg::resolve`, at its column's span.
            let leaves = &mut spans.0.iter().copied();
            let mut compiled = aggs.clone();
            for a in &mut compiled {
                if let Some((_, ty, col)) = &mut a.of {
                    let span = next(leaves);
                    if col_type(&schema, col, span)? == DataType::F64 {
                        *ty = NumType::F64;
                    }
                    a.resolve(&schema).or_else(|err| plan_err(err, span))?;
                }
            }
            if keys.is_empty() {
                check(pb.stream_agg(compiled, "agg"), span)
            } else {
                let specs: Vec<String> = keys.iter().map(|c| c.spec()).collect();
                let refs: Vec<&str> = specs.iter().map(String::as_str).collect();
                check(pb.hash_agg(&refs, compiled, "agg"), span)
            }
        }
        Stage::Join {
            kind,
            query,
            on,
            payload,
            bloom,
        } => {
            let build = compile(query, catalog)?;
            let pairs: Vec<(&str, &str)> = on
                .iter()
                .map(|(p, b)| (p.name.as_str(), b.name.as_str()))
                .collect();
            let specs: Vec<String> = payload.iter().map(|c| c.spec()).collect();
            let refs: Vec<&str> = specs.iter().map(String::as_str).collect();
            let kind = match kind {
                JoinKindAst::Inner => JoinKind::Inner,
                JoinKindAst::Semi => JoinKind::Semi,
                JoinKindAst::Anti => JoinKind::Anti,
            };
            check(
                pb.hash_join(build, &pairs, &refs, kind, *bloom, "join"),
                span,
            )
        }
        Stage::JoinSingle { query, on, payload } => {
            let build = compile(query, catalog)?;
            let build_schema = schema_or(&build);
            let pairs: Vec<(&str, &str)> = on
                .iter()
                .map(|(p, b)| (p.name.as_str(), b.name.as_str()))
                .collect();
            let mut specs: Vec<(String, Value)> = Vec::with_capacity(payload.len());
            for (c, d) in payload {
                let ty = col_type(&build_schema, &c.name.name, c.name.span)?;
                let v = coerce_lit(d, ty, "left-single default")
                    .or_else(|err| plan_err(err, c.name.span))?;
                specs.push((c.spec(), v));
            }
            let refs: Vec<(&str, Value)> =
                specs.iter().map(|(s, v)| (s.as_str(), v.clone())).collect();
            check(
                pb.left_single_join(build, &pairs, &refs, "join single"),
                span,
            )
        }
        Stage::MergeJoin { query, on, payload } => {
            let left = compile(query, catalog)?;
            let specs: Vec<String> = payload.iter().map(|c| c.spec()).collect();
            let refs: Vec<&str> = specs.iter().map(String::as_str).collect();
            check(
                pb.merge_join(left, (&on.0.name, &on.1.name), &refs, "merge join"),
                span,
            )
        }
        Stage::Sort { limit, keys, spans } => {
            let leaves = &mut spans.0.iter().copied();
            for k in keys {
                col_type(&schema, &k.col, next(leaves))?;
            }
            check(pb.sort_limit(keys, limit.map(|n| n as usize)), span)
        }
    }
}

// ---------------------------------------------------------------------------
// literals
// ---------------------------------------------------------------------------

/// Coerces a written literal to the column type it meets: integer
/// literals narrow with a range check and widen to `f64`. Anything else
/// stays as written — whether it fits is the typing pass's verdict.
fn coerce_lit(lit: &Value, ty: DataType, ctx: &str) -> Result<Value, PlanError> {
    let narrowed = match (lit, ty) {
        (Value::I64(v), DataType::I16) => i16::try_from(*v).map(Value::I16).ok(),
        (Value::I64(v), DataType::I32) => i32::try_from(*v).map(Value::I32).ok(),
        (Value::I64(v), DataType::F64) => Some(Value::F64(*v as f64)),
        _ => Some(lit.clone()),
    };
    narrowed.ok_or_else(|| {
        PlanError::Invalid(format!(
            "literal {lit:?} out of range for an {ty} column ({ctx})"
        ))
    })
}

/// The type of the column `name`, written at `span`, or its resolution
/// failure there.
fn col_type(schema: &Schema, name: &str, span: Span) -> Result<DataType, FrontendError> {
    match resolve_col(schema, name) {
        Ok(i) => Ok(schema.field(i).ty),
        Err(err) => plan_err(err, span),
    }
}

/// The spans of a tree's leaves, in the order a walk meets them.
type Leaves<'a> = dyn Iterator<Item = Span> + 'a;

/// The next leaf's span (a programmatically built tree has none).
fn next(leaves: &mut Leaves) -> Span {
    leaves.next().unwrap_or_default()
}

/// A `where` predicate ready for the builder: every column resolved at
/// its own span, every comparison literal coerced to its column's type,
/// and every atom typed — by [`NamedPred::resolve`] — at the atom's span.
fn compile_pred(
    p: &NamedPred,
    schema: &Schema,
    leaves: &mut Leaves,
) -> Result<NamedPred, FrontendError> {
    let mut branches = |ps: &[NamedPred]| {
        ps.iter()
            .map(|p| compile_pred(p, schema, leaves))
            .collect::<Result<_, _>>()
    };
    let (atom, span) = match p {
        Pred::And(ps) => return Ok(Pred::And(branches(ps)?)),
        Pred::Or(ps) => return Ok(Pred::Or(branches(ps)?)),
        Pred::Cmp { col, op, rhs } => {
            let cspan = next(leaves);
            let ty = col_type(schema, col, cspan)?;
            let rspan = next(leaves);
            let span = cspan.to(rspan);
            let rhs = match rhs {
                CmpRhs::Const(lit) => {
                    let ctx = format!("comparison on {col}");
                    CmpRhs::Const(coerce_lit(lit, ty, &ctx).or_else(|err| plan_err(err, span))?)
                }
                CmpRhs::Col(other) => {
                    col_type(schema, other, rspan)?;
                    rhs.clone()
                }
            };
            let (col, op) = (col.clone(), *op);
            (Pred::Cmp { col, op, rhs }, span)
        }
        Pred::Like { .. } | Pred::InStr { .. } => (p.clone(), next(leaves)),
    };
    atom.resolve(schema).or_else(|err| plan_err(err, span))?;
    Ok(atom)
}

/// A `select` expression ready for the builder: every leaf resolved and
/// typed at its own span, every arithmetic literal coerced to the type of
/// the left operand it meets — asked of [`NamedExpr::resolve`]; what is
/// wrong with an operand as a whole is left for the caller's resolution of
/// the whole expression to report.
fn compile_expr(
    e: &NamedExpr,
    schema: &Schema,
    leaves: &mut Leaves,
) -> Result<NamedExpr, FrontendError> {
    Ok(match e {
        Expr::Col(_) | Expr::Const(_) | Expr::Substr { .. } => {
            let span = next(leaves);
            e.resolve(schema).or_else(|err| plan_err(err, span))?;
            e.clone()
        }
        Expr::Cast { to, inner } => compile_expr(inner, schema, leaves)?.cast(*to),
        Expr::Arith { op, lhs, rhs } => {
            let lhs = compile_expr(lhs, schema, leaves)?;
            let rhs = match rhs.as_ref() {
                Expr::Const(lit) => {
                    let span = next(leaves);
                    match lhs.resolve(schema) {
                        Ok((_, lty)) => Expr::Const(
                            coerce_lit(lit, lty, "arithmetic literal")
                                .or_else(|err| plan_err(err, span))?,
                        ),
                        Err(_) => Expr::Const(lit.clone()),
                    }
                }
                rhs => compile_expr(rhs, schema, leaves)?,
            };
            Expr::Arith {
                op: *op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            }
        }
    })
}
