//! Expression and predicate trees, aggregates and sort keys, as built by
//! query plans.
//!
//! There is one type of each kind, generic over how it names a column:
//! [`Expr`] / [`Pred`] (`C = usize`) are what plan nodes hold and what
//! [`crate::eval`] compiles into chains of primitive instances resolved
//! through the Primitive Dictionary — the point where Micro Adaptivity
//! hooks into execution (§3.2: "the expression evaluator is the component
//! that calls implementation functions for primitives"); `Expr<String>` /
//! `Pred<String>` ([`crate::plan::NamedExpr`], [`crate::plan::NamedPred`])
//! are what query authors and the text front end write; [`Agg`] and
//! [`SortKey`] follow the same scheme. Names become indices in one place
//! (`try_map_cols` / `try_map_col` with the builder's column resolver), and
//! types are checked in one place ([`Expr::type_of`], [`Pred::check`],
//! [`Agg::type_of`]) — the plan builder, the verifier, the text front end
//! and, for aggregates, the operators all call that pass.

use ma_vector::{DataType, Schema};

/// A constant value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `I16`.
    I16(i16),
    /// `I32`.
    I32(i32),
    /// `I64`.
    I64(i64),
    /// `F64`.
    F64(f64),
    /// `Str`.
    Str(String),
}

impl Value {
    /// The scalar type of the constant.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::I16(_) => DataType::I16,
            Value::I32(_) => DataType::I32,
            Value::I64(_) => DataType::I64,
            Value::F64(_) => DataType::F64,
            Value::Str(_) => DataType::Str,
        }
    }
}

/// Arithmetic operator kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithKind {
    /// `Add`.
    Add,
    /// `Sub`.
    Sub,
    /// `Mul`.
    Mul,
    /// `Div`.
    Div,
}

impl ArithKind {
    /// Signature fragment (`add`, `sub`, ...).
    pub fn sig_name(self) -> &'static str {
        match self {
            ArithKind::Add => "add",
            ArithKind::Sub => "sub",
            ArithKind::Mul => "mul",
            ArithKind::Div => "div",
        }
    }
}

/// Comparison operator kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpKind {
    /// `Lt`.
    Lt,
    /// `Le`.
    Le,
    /// `Gt`.
    Gt,
    /// `Ge`.
    Ge,
    /// `Eq`.
    Eq,
    /// `Ne`.
    Ne,
}

impl CmpKind {
    /// Signature fragment (`lt`, `le`, ...).
    pub fn sig_name(self) -> &'static str {
        match self {
            CmpKind::Lt => "lt",
            CmpKind::Le => "le",
            CmpKind::Gt => "gt",
            CmpKind::Ge => "ge",
            CmpKind::Eq => "eq",
            CmpKind::Ne => "ne",
        }
    }
}

/// What a builder helper accepts as a column of reference type `C`: the
/// index itself in a positional tree, anything string-like in a named one
/// (so `Pred::cmp_val(0, ..)` and `NamedPred::cmp_val("l_shipdate", ..)`
/// are the same function).
pub trait ColArg<C> {
    /// The column reference.
    fn into_col(self) -> C;
}

impl ColArg<usize> for usize {
    fn into_col(self) -> usize {
        self
    }
}

impl<S: Into<String>> ColArg<String> for S {
    fn into_col(self) -> String {
        self.into()
    }
}

/// A projection expression over columns referenced as `C`.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr<C = usize> {
    /// Input column.
    Col(C),
    /// A constant (only valid as the rhs of [`Expr::Arith`]).
    Const(Value),
    /// Binary arithmetic. Both sides must have the same numeric type
    /// (`i64` or `f64`); insert [`Expr::Cast`]s as needed.
    Arith {
        /// `op`.
        op: ArithKind,
        /// `lhs`.
        lhs: Box<Expr<C>>,
        /// `rhs`.
        rhs: Box<Expr<C>>,
    },
    /// Numeric widening cast.
    Cast {
        /// Target type.
        to: DataType,
        /// The expression being cast.
        inner: Box<Expr<C>>,
    },
    /// `substring(col from start+1 for len)` over a string column
    /// (byte-indexed, `start` is 0-based).
    Substr {
        /// `col`.
        col: C,
        /// `start`.
        start: usize,
        /// `len`.
        len: usize,
    },
}

/// i64 constant.
pub fn lit_i64<C>(v: i64) -> Expr<C> {
    Expr::Const(Value::I64(v))
}

/// f64 constant.
pub fn lit_f64<C>(v: f64) -> Expr<C> {
    Expr::Const(Value::F64(v))
}

#[allow(clippy::should_implement_trait)] // builder fns, not operator impls
impl<C> Expr<C> {
    fn arith(self, op: ArithKind, rhs: Expr<C>) -> Expr<C> {
        Expr::Arith {
            op,
            lhs: Box::new(self),
            rhs: Box::new(rhs),
        }
    }
    /// `self + rhs`.
    pub fn add(self, rhs: Expr<C>) -> Expr<C> {
        self.arith(ArithKind::Add, rhs)
    }
    /// `self - rhs`.
    pub fn sub(self, rhs: Expr<C>) -> Expr<C> {
        self.arith(ArithKind::Sub, rhs)
    }
    /// `self * rhs`.
    pub fn mul(self, rhs: Expr<C>) -> Expr<C> {
        self.arith(ArithKind::Mul, rhs)
    }
    /// `self / rhs`.
    pub fn div(self, rhs: Expr<C>) -> Expr<C> {
        self.arith(ArithKind::Div, rhs)
    }
    /// Numeric widening cast.
    pub fn cast(self, to: DataType) -> Expr<C> {
        Expr::Cast {
            to,
            inner: Box::new(self),
        }
    }

    /// The same tree over another column reference type: `f` maps each
    /// column, left to right, and the first failure wins.
    pub fn try_map_cols<D, E>(&self, f: &mut impl FnMut(&C) -> Result<D, E>) -> Result<Expr<D>, E> {
        Ok(match self {
            Expr::Col(c) => Expr::Col(f(c)?),
            Expr::Const(v) => Expr::Const(v.clone()),
            Expr::Arith { op, lhs, rhs } => Expr::Arith {
                op: *op,
                lhs: Box::new(lhs.try_map_cols(f)?),
                rhs: Box::new(rhs.try_map_cols(f)?),
            },
            Expr::Cast { to, inner } => inner.try_map_cols(f)?.cast(*to),
            Expr::Substr { col, start, len } => Expr::Substr {
                col: f(col)?,
                start: *start,
                len: *len,
            },
        })
    }
}

/// The comparison target of a predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum CmpRhs<C = usize> {
    /// Compare against a constant (`col op const` → `_col_val` primitive).
    Const(Value),
    /// Compare against another column (`col op col` → `_col_col`).
    Col(C),
}

/// A selection predicate tree over columns referenced as `C`.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred<C = usize> {
    /// `col op rhs`.
    Cmp {
        /// `col`.
        col: C,
        /// `op`.
        op: CmpKind,
        /// `rhs`.
        rhs: CmpRhs<C>,
    },
    /// `col LIKE pattern` / `col NOT LIKE pattern`.
    Like {
        /// String column.
        col: C,
        /// LIKE pattern text (`%` and `_` wildcards).
        pattern: String,
        /// `NOT LIKE`.
        negated: bool,
    },
    /// `col IN (strings...)` — compiled to an OR of equalities.
    InStr {
        /// String column.
        col: C,
        /// Accepted values.
        values: Vec<String>,
    },
    /// Conjunction, evaluated left to right (cheapest/most selective first
    /// is the plan author's job).
    And(Vec<Pred<C>>),
    /// Disjunction (union of the branch selection vectors).
    Or(Vec<Pred<C>>),
}

impl<C> Pred<C> {
    /// `col op const`.
    pub fn cmp_val(col: impl ColArg<C>, op: CmpKind, v: Value) -> Pred<C> {
        Pred::Cmp {
            col: col.into_col(),
            op,
            rhs: CmpRhs::Const(v),
        }
    }
    /// `col op other`.
    pub fn cmp_col(col: impl ColArg<C>, op: CmpKind, other: impl ColArg<C>) -> Pred<C> {
        Pred::Cmp {
            col: col.into_col(),
            op,
            rhs: CmpRhs::Col(other.into_col()),
        }
    }
    fn between(col: impl ColArg<C>, lo: Value, hi: Value) -> Pred<C>
    where
        C: Clone,
    {
        let col = col.into_col();
        Pred::And(vec![
            Pred::Cmp {
                col: col.clone(),
                op: CmpKind::Ge,
                rhs: CmpRhs::Const(lo),
            },
            Pred::Cmp {
                col,
                op: CmpKind::Le,
                rhs: CmpRhs::Const(hi),
            },
        ])
    }
    /// `lo <= col AND col <= hi` (BETWEEN) over i32.
    pub fn between_i32(col: impl ColArg<C>, lo: i32, hi: i32) -> Pred<C>
    where
        C: Clone,
    {
        Pred::between(col, Value::I32(lo), Value::I32(hi))
    }
    /// `lo <= col AND col <= hi` over i64 (decimals ×100).
    pub fn between_i64(col: impl ColArg<C>, lo: i64, hi: i64) -> Pred<C>
    where
        C: Clone,
    {
        Pred::between(col, Value::I64(lo), Value::I64(hi))
    }
    /// String equality.
    pub fn str_eq(col: impl ColArg<C>, v: impl Into<String>) -> Pred<C> {
        Pred::cmp_val(col, CmpKind::Eq, Value::Str(v.into()))
    }
    /// `col LIKE pattern`.
    pub fn like(col: impl ColArg<C>, pattern: impl Into<String>) -> Pred<C> {
        Pred::Like {
            col: col.into_col(),
            pattern: pattern.into(),
            negated: false,
        }
    }
    /// `col NOT LIKE pattern`.
    pub fn not_like(col: impl ColArg<C>, pattern: impl Into<String>) -> Pred<C> {
        Pred::Like {
            col: col.into_col(),
            pattern: pattern.into(),
            negated: true,
        }
    }
    /// `col IN (values...)`.
    pub fn in_str<S: Into<String>>(
        col: impl ColArg<C>,
        values: impl IntoIterator<Item = S>,
    ) -> Pred<C> {
        Pred::InStr {
            col: col.into_col(),
            values: values.into_iter().map(Into::into).collect(),
        }
    }

    /// The same tree over another column reference type (see
    /// [`Expr::try_map_cols`]): a comparison's column, then its right-hand
    /// side.
    pub fn try_map_cols<D, E>(&self, f: &mut impl FnMut(&C) -> Result<D, E>) -> Result<Pred<D>, E> {
        let branches = |ps: &[Pred<C>], f: &mut _| {
            ps.iter()
                .map(|p| p.try_map_cols(f))
                .collect::<Result<Vec<_>, E>>()
        };
        Ok(match self {
            Pred::Cmp { col, op, rhs } => Pred::Cmp {
                col: f(col)?,
                op: *op,
                rhs: match rhs {
                    CmpRhs::Const(v) => CmpRhs::Const(v.clone()),
                    CmpRhs::Col(other) => CmpRhs::Col(f(other)?),
                },
            },
            Pred::Like {
                col,
                pattern,
                negated,
            } => Pred::Like {
                col: f(col)?,
                pattern: pattern.clone(),
                negated: *negated,
            },
            Pred::InStr { col, values } => Pred::InStr {
                col: f(col)?,
                values: values.clone(),
            },
            Pred::And(ps) => Pred::And(branches(ps, f)?),
            Pred::Or(ps) => Pred::Or(branches(ps, f)?),
        })
    }
}

// ---------------------------------------------------------------------------
// aggregates and sort keys
// ---------------------------------------------------------------------------

/// An aggregate function over a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `sum`.
    Sum,
    /// `min`.
    Min,
    /// `max`.
    Max,
}

impl AggFunc {
    /// `sum` / `min` / `max`: the DSL spelling and the signature fragment.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }

    /// The function over `i64`: its identity (what an empty group holds)
    /// and how two partial results combine.
    pub fn over_i64(self) -> (i64, fn(i64, i64) -> i64) {
        match self {
            AggFunc::Sum => (0, |a, b| a + b),
            AggFunc::Min => (i64::MAX, i64::min),
            AggFunc::Max => (i64::MIN, i64::max),
        }
    }

    /// The function over `f64`, as [`AggFunc::over_i64`].
    pub fn over_f64(self) -> (f64, fn(f64, f64) -> f64) {
        match self {
            AggFunc::Sum => (0.0, |a, b| a + b),
            AggFunc::Min => (f64::INFINITY, f64::min),
            AggFunc::Max => (f64::NEG_INFINITY, f64::max),
        }
    }
}

/// The element type an aggregate reads and emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumType {
    /// `i64` (sums accumulate in 128 bits).
    I64,
    /// `f64`.
    F64,
}

impl NumType {
    /// The column type.
    pub fn data_type(self) -> DataType {
        match self {
            NumType::I64 => DataType::I64,
            NumType::F64 => DataType::F64,
        }
    }
}

/// One aggregate of a hash or stream aggregation, over a column referenced
/// as `C`.
#[derive(Debug, Clone, PartialEq)]
pub struct Agg<C = usize> {
    /// Function, element type and input column; `None` is `COUNT(*)` over
    /// live tuples, the one aggregate without an input.
    pub of: Option<(AggFunc, NumType, C)>,
    /// Output column name; `None` takes the default (`sum_<col>`, `count`).
    pub name: Option<String>,
}

impl<C> Agg<C> {
    fn over(func: AggFunc, ty: NumType, col: impl ColArg<C>) -> Agg<C> {
        Agg {
            of: Some((func, ty, col.into_col())),
            name: None,
        }
    }
    /// `COUNT(*)` over live tuples.
    pub fn count() -> Agg<C> {
        Agg {
            of: None,
            name: None,
        }
    }
    /// Sum of an `i64` column (128-bit accumulation).
    pub fn sum_i64(col: impl ColArg<C>) -> Agg<C> {
        Agg::over(AggFunc::Sum, NumType::I64, col)
    }
    /// Sum of an `f64` column.
    pub fn sum_f64(col: impl ColArg<C>) -> Agg<C> {
        Agg::over(AggFunc::Sum, NumType::F64, col)
    }
    /// Minimum of an `i64` column.
    pub fn min_i64(col: impl ColArg<C>) -> Agg<C> {
        Agg::over(AggFunc::Min, NumType::I64, col)
    }
    /// Maximum of an `i64` column.
    pub fn max_i64(col: impl ColArg<C>) -> Agg<C> {
        Agg::over(AggFunc::Max, NumType::I64, col)
    }
    /// Minimum of an `f64` column.
    pub fn min_f64(col: impl ColArg<C>) -> Agg<C> {
        Agg::over(AggFunc::Min, NumType::F64, col)
    }
    /// Maximum of an `f64` column.
    pub fn max_f64(col: impl ColArg<C>) -> Agg<C> {
        Agg::over(AggFunc::Max, NumType::F64, col)
    }

    /// Overrides the output column name.
    pub fn named(mut self, name: impl Into<String>) -> Agg<C> {
        self.name = Some(name.into());
        self
    }

    /// The same aggregate over another column reference type.
    pub fn try_map_col<D, E>(&self, f: &mut impl FnMut(&C) -> Result<D, E>) -> Result<Agg<D>, E> {
        Ok(Agg {
            of: match &self.of {
                Some((func, ty, col)) => Some((*func, *ty, f(col)?)),
                None => None,
            },
            name: self.name.clone(),
        })
    }
}

/// One sort key: column + direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortKey<C = usize> {
    /// The key column.
    pub col: C,
    /// Descending order when true.
    pub desc: bool,
}

impl<C> SortKey<C> {
    /// Ascending key.
    pub fn asc(col: impl ColArg<C>) -> SortKey<C> {
        SortKey {
            col: col.into_col(),
            desc: false,
        }
    }
    /// Descending key.
    pub fn desc(col: impl ColArg<C>) -> SortKey<C> {
        SortKey {
            col: col.into_col(),
            desc: true,
        }
    }

    /// The same key over another column reference type.
    pub fn try_map_col<D, E>(
        &self,
        f: &mut impl FnMut(&C) -> Result<D, E>,
    ) -> Result<SortKey<D>, E> {
        Ok(SortKey {
            col: f(&self.col)?,
            desc: self.desc,
        })
    }
}

// ---------------------------------------------------------------------------
// typing
// ---------------------------------------------------------------------------

/// Why a positional tree does not type against a schema. Converts into
/// [`crate::plan::PlanError`] for the builder and into
/// [`crate::VerifyError`] for the verifier.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeError {
    /// A column index beyond the schema's arity.
    ColumnOutOfRange {
        /// The offending index.
        col: usize,
        /// The schema's arity.
        arity: usize,
    },
    /// A column, constant or operand of the wrong type for its role.
    Mismatch {
        /// What was being typed (`comparison k lt const`).
        context: String,
        /// The type the role requires.
        expected: String,
        /// The type found.
        found: DataType,
    },
    /// A structurally invalid tree (misplaced constant, empty `AND`).
    Invalid(String),
}

fn mismatch<T>(context: String, expected: impl ToString, found: DataType) -> Result<T, TypeError> {
    Err(TypeError::Mismatch {
        context,
        expected: expected.to_string(),
        found,
    })
}

fn col_type(schema: &Schema, col: usize) -> Result<DataType, TypeError> {
    match schema.fields().get(col) {
        Some(f) => Ok(f.ty),
        None => Err(TypeError::ColumnOutOfRange {
            col,
            arity: schema.len(),
        }),
    }
}

impl Expr {
    /// The expression's output type against `schema`, by the evaluator's
    /// rules: constants only as the right operand of arithmetic, both
    /// operands the same `i64`/`f64` type, casts numeric and widening,
    /// `substr` over a string column.
    pub fn type_of(&self, schema: &Schema) -> Result<DataType, TypeError> {
        match self {
            Expr::Col(c) => col_type(schema, *c),
            Expr::Const(v) => Err(TypeError::Invalid(format!(
                "constant {v:?} is only valid as the right-hand side of arithmetic \
                 (write `col.sub(lit)`, not `lit.sub(col)`)"
            ))),
            Expr::Arith { op, lhs, rhs } => {
                let lty = lhs.type_of(schema)?;
                let rty = match rhs.as_ref() {
                    Expr::Const(v) => v.data_type(),
                    other => other.type_of(schema)?,
                };
                let context = || format!("{} operands", op.sig_name());
                if lty != rty {
                    mismatch(context(), lty, rty)
                } else if lty != DataType::I64 && lty != DataType::F64 {
                    mismatch(context(), "i64 or f64 (cast first)", lty)
                } else {
                    Ok(lty)
                }
            }
            Expr::Cast { to, inner } => {
                let ity = inner.type_of(schema)?;
                let widening = matches!(
                    (ity, *to),
                    (DataType::I16, DataType::I32 | DataType::I64 | DataType::F64)
                        | (DataType::I32, DataType::I64 | DataType::F64)
                        | (DataType::I64, DataType::F64)
                );
                if widening {
                    Ok(*to)
                } else {
                    mismatch(format!("cast to {to}"), "a narrower numeric type", ity)
                }
            }
            Expr::Substr { col, .. } => match col_type(schema, *col)? {
                DataType::Str => Ok(DataType::Str),
                ty => mismatch(
                    format!("substr({})", schema.field(*col).name),
                    DataType::Str,
                    ty,
                ),
            },
        }
    }
}

impl Pred {
    /// Checks the predicate against `schema`, by the evaluator's rules: a
    /// constant has exactly its column's type, a string column compares
    /// by `=` / `!=` and against constants only, column-column comparisons
    /// are same-typed, `LIKE` / `IN` take a string column, `AND` / `OR`
    /// have branches.
    pub fn check(&self, schema: &Schema) -> Result<(), TypeError> {
        let name = |c: &usize| &schema.field(*c).name;
        match self {
            Pred::Cmp { col, op, rhs } => {
                let cty = col_type(schema, *col)?;
                let (what, rty, constant) = match rhs {
                    CmpRhs::Const(v) => ("const", v.data_type(), true),
                    CmpRhs::Col(other) => (name(other).as_str(), col_type(schema, *other)?, false),
                };
                let context = || format!("comparison {} {} {what}", name(col), op.sig_name());
                if cty == DataType::Str && !(constant && matches!(op, CmpKind::Eq | CmpKind::Ne)) {
                    let only = "a numeric column (strings compare by = and != with constants only)";
                    mismatch(context(), only, cty)
                } else if rty != cty {
                    mismatch(context(), cty, rty)
                } else {
                    Ok(())
                }
            }
            Pred::Like { col, .. } | Pred::InStr { col, .. } => match col_type(schema, *col)? {
                DataType::Str => Ok(()),
                ty => {
                    let what = match self {
                        Pred::Like { negated: false, .. } => "LIKE",
                        Pred::Like { .. } => "NOT LIKE",
                        _ => "IN",
                    };
                    mismatch(format!("{what} over {}", name(col)), DataType::Str, ty)
                }
            },
            Pred::And(ps) | Pred::Or(ps) if ps.is_empty() => {
                Err(TypeError::Invalid("empty AND / OR".into()))
            }
            Pred::And(ps) | Pred::Or(ps) => ps.iter().try_for_each(|p| p.check(schema)),
        }
    }
}

impl Agg {
    /// The aggregate's output type against `schema`, by the operators'
    /// rule: the input column exists and has exactly the aggregate's
    /// element type (narrower integers are cast first).
    pub fn type_of(&self, schema: &Schema) -> Result<DataType, TypeError> {
        let Some((func, ty, col)) = self.of else {
            return Ok(DataType::I64);
        };
        let (found, ty) = (col_type(schema, col)?, ty.data_type());
        if found == ty {
            Ok(ty)
        } else {
            let context = format!("{}({})", func.name(), schema.field(col).name);
            mismatch(context, format!("{ty} (cast first)"), found)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_types() {
        assert_eq!(Value::I32(1).data_type(), DataType::I32);
        assert_eq!(Value::Str("x".into()).data_type(), DataType::Str);
    }

    #[test]
    fn builders_compose() {
        let e: Expr = Expr::Col(0).mul(lit_i64(100).sub(Expr::Col(1)));
        match e {
            Expr::Arith {
                op: ArithKind::Mul,
                lhs,
                rhs,
            } => {
                assert_eq!(*lhs, Expr::Col(0));
                assert!(matches!(
                    *rhs,
                    Expr::Arith {
                        op: ArithKind::Sub,
                        ..
                    }
                ));
            }
            _ => panic!("wrong shape"),
        }
    }

    #[test]
    fn between_desugars_to_and() {
        let p: Pred = Pred::between_i32(2, 10, 20);
        assert_eq!(
            p,
            Pred::And(vec![
                Pred::cmp_val(2, CmpKind::Ge, Value::I32(10)),
                Pred::cmp_val(2, CmpKind::Le, Value::I32(20)),
            ])
        );
    }

    #[test]
    fn sig_names() {
        assert_eq!(ArithKind::Mul.sig_name(), "mul");
        assert_eq!(CmpKind::Ge.sig_name(), "ge");
    }

    /// One of every variant, `Like { negated: true }` and nested
    /// `And`/`Or` included.
    fn every_variant() -> (Expr<String>, Pred<String>) {
        let e = Expr::Col("v".to_string())
            .cast(DataType::F64)
            .mul(lit_f64(2.0))
            .add(Expr::Col("f".to_string()))
            .div(
                Expr::Substr {
                    col: "s".to_string(),
                    start: 1,
                    len: 2,
                }
                .sub(Expr::Const(Value::Str("x".into()))),
            );
        let p = Pred::And(vec![
            Pred::cmp_val("k", CmpKind::Lt, Value::I32(7)),
            Pred::Or(vec![
                Pred::cmp_col("v", CmpKind::Ne, "w"),
                Pred::like("s", "a%"),
                Pred::And(vec![
                    Pred::not_like("s", "%z"),
                    Pred::in_str("s", ["a", "b"]),
                ]),
            ]),
        ]);
        (e, p)
    }

    #[test]
    fn try_map_cols_identity_law() {
        let (e, p) = every_variant();
        let mut id = |c: &String| Ok::<_, ()>(c.clone());
        assert_eq!(e.try_map_cols(&mut id), Ok(e.clone()));
        assert_eq!(p.try_map_cols(&mut id), Ok(p.clone()));
        // Columns are visited left to right and the first failure wins.
        let mut seen = Vec::new();
        let stop = p.try_map_cols(&mut |c: &String| {
            seen.push(c.clone());
            if c == "w" {
                Err("no w")
            } else {
                Ok(())
            }
        });
        assert_eq!(
            (stop, seen),
            (Err("no w"), vec!["k".into(), "v".into(), "w".into()])
        );
    }

    #[test]
    fn try_map_col_identity_law() {
        let aggs = [
            Agg::count(),
            Agg::count().named("n"),
            Agg::sum_i64("v"),
            Agg::min_f64("f").named("lo"),
            Agg::max_i64("v"),
        ];
        for a in aggs {
            assert_eq!(
                a.try_map_col(&mut |c: &String| Ok::<_, ()>(c.clone())),
                Ok(a.clone())
            );
            let failed = a.try_map_col(&mut |_: &String| Err::<usize, _>("no"));
            assert_eq!(failed.is_err(), a.of.is_some(), "{a:?}");
        }
        for k in [SortKey::asc("k"), SortKey::desc("k")] {
            assert_eq!(
                k.try_map_col(&mut |c: &String| Ok::<_, ()>(c.clone())),
                Ok(k.clone())
            );
            assert_eq!(k.try_map_col(&mut |_| Err::<usize, _>("no")), Err("no"));
        }
        // Positional and named constructors are one function.
        assert_eq!(
            Agg::sum_f64("f").try_map_col(&mut |_| Ok::<_, ()>(3)),
            Ok(Agg::sum_f64(3))
        );
        assert_eq!(SortKey::desc(2), SortKey { col: 2, desc: true });
    }

    #[test]
    fn aggregate_units_are_identities_of_their_combine() {
        for func in [AggFunc::Sum, AggFunc::Min, AggFunc::Max] {
            let (unit, combine) = func.over_i64();
            let (funit, fcombine) = func.over_f64();
            for x in [-7, 0, 7] {
                assert_eq!(combine(unit, x), x, "{func:?}");
                assert_eq!(fcombine(funit, x as f64), x as f64, "{func:?}");
            }
        }
        assert_eq!((AggFunc::Min.over_i64().1)(3, -2), -2);
        assert_eq!((AggFunc::Max.over_f64().1)(3.0, -2.0), 3.0);
    }
}
