//! Recursive-descent parser for the query DSL.
//!
//! The grammar is LL(1) over the token stream (see DESIGN.md §10 for the
//! EBNF). The parser produces the AST of [`super::ast`], whose expressions,
//! predicates, aggregates and sort keys are the engine's own named types
//! with literals as written; all name/type resolution is left to
//! [`super::compile`], so a parsed query is well-formed text, not yet a
//! well-typed plan.

use ma_vector::DataType;

use super::ast::{ColSpec, Ident, JoinKindAst, LeafSpans, Query, SelectItem, Span, Stage};
use super::lex::{lex, ParseError, ParseErrorKind, Token, TokenKind};
use crate::expr::{Agg, AggFunc, ArithKind, CmpKind, CmpRhs, Expr, NumType, Pred, SortKey, Value};
use crate::plan::{NamedExpr, NamedPred};

/// Parses a complete query, rejecting trailing input.
pub fn parse(text: &str) -> Result<Query, ParseError> {
    let toks = lex(text)?;
    let mut p = Parser {
        toks,
        pos: 0,
        leaves: Vec::new(),
    };
    let q = p.query()?;
    if !matches!(p.peek().kind, TokenKind::Eof) {
        return Err(ParseError {
            kind: ParseErrorKind::TrailingInput,
            span: p.peek().span,
        });
    }
    Ok(q)
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    /// Spans of the leaves (column references and literals) of the
    /// expression or predicate being parsed, in source order — which is
    /// the tree's leaf order.
    leaves: Vec<Span>,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.toks[self.pos]
    }

    fn bump(&mut self) -> Token {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, expected: &'static str) -> Result<T, ParseError> {
        let t = self.peek();
        Err(ParseError {
            kind: ParseErrorKind::UnexpectedToken {
                expected,
                found: t.kind.describe(),
            },
            span: t.span,
        })
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Keyword(k) if *k == kw)
    }

    fn eat_kw(&mut self, kw: &'static str) -> Result<Span, ParseError> {
        if self.at_kw(kw) {
            Ok(self.bump().span)
        } else {
            self.err(kw)
        }
    }

    fn at_sym(&self, sym: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Sym(s) if *s == sym)
    }

    fn eat_sym(&mut self, sym: &'static str) -> Result<Span, ParseError> {
        if self.at_sym(sym) {
            Ok(self.bump().span)
        } else {
            self.err(sym)
        }
    }

    /// A plain identifier; keywords are a typed error here.
    fn ident(&mut self) -> Result<Ident, ParseError> {
        match &self.peek().kind {
            TokenKind::Ident(_) => {
                let t = self.bump();
                let TokenKind::Ident(name) = t.kind else {
                    unreachable!("peeked Ident")
                };
                Ok(Ident { name, span: t.span })
            }
            TokenKind::Keyword(k) => Err(ParseError {
                kind: ParseErrorKind::ReservedWord((*k).to_string()),
                span: self.peek().span,
            }),
            _ => self.err("identifier"),
        }
    }

    fn colspec(&mut self) -> Result<ColSpec, ParseError> {
        let name = self.ident()?;
        let alias = if self.at_kw("as") {
            self.bump();
            Some(self.ident()?)
        } else {
            None
        };
        Ok(ColSpec { name, alias })
    }

    fn collist(&mut self) -> Result<Vec<ColSpec>, ParseError> {
        self.eat_sym("[")?;
        let mut out = vec![self.colspec()?];
        while self.at_sym(",") {
            self.bump();
            out.push(self.colspec()?);
        }
        self.eat_sym("]")?;
        Ok(out)
    }

    fn query(&mut self) -> Result<Query, ParseError> {
        self.eat_kw("from")?;
        let table = self.ident()?;
        let cols = self.collist()?;
        let mut stages = Vec::new();
        while self.at_sym("|") {
            self.bump();
            stages.push(self.stage()?);
        }
        Ok(Query {
            table,
            cols,
            stages,
        })
    }

    fn stage(&mut self) -> Result<Stage, ParseError> {
        match &self.peek().kind {
            TokenKind::Keyword("where") => {
                self.bump();
                let pred = self.pred()?;
                Ok(Stage::Where(pred, self.take_leaves()))
            }
            TokenKind::Keyword("select") => {
                self.bump();
                let mut items = vec![self.select_item()?];
                while self.at_sym(",") {
                    self.bump();
                    items.push(self.select_item()?);
                }
                Ok(Stage::Select(items))
            }
            TokenKind::Keyword("keep") => {
                self.bump();
                Ok(Stage::Keep(self.collist()?))
            }
            TokenKind::Keyword("agg") => {
                self.bump();
                let keys = if self.at_kw("by") {
                    self.bump();
                    self.collist()?
                } else {
                    Vec::new()
                };
                self.eat_sym("[")?;
                let mut aggs = vec![self.agg_item()?];
                while self.at_sym(",") {
                    self.bump();
                    aggs.push(self.agg_item()?);
                }
                self.eat_sym("]")?;
                let spans = self.take_leaves();
                Ok(Stage::Agg { keys, aggs, spans })
            }
            TokenKind::Keyword("join") => {
                self.bump();
                self.join_stage()
            }
            TokenKind::Keyword("merge") => {
                self.bump();
                self.eat_kw("join")?;
                self.eat_sym("(")?;
                let query = Box::new(self.query()?);
                self.eat_sym(")")?;
                self.eat_kw("on")?;
                let right = self.ident()?;
                self.eat_sym("=")?;
                let left = self.ident()?;
                let payload = if self.at_kw("payload") {
                    self.bump();
                    self.collist()?
                } else {
                    Vec::new()
                };
                Ok(Stage::MergeJoin {
                    query,
                    on: (right, left),
                    payload,
                })
            }
            TokenKind::Keyword("order") => {
                self.bump();
                self.sort_stage(None)
            }
            TokenKind::Keyword("top") => {
                self.bump();
                let n = match &self.peek().kind {
                    TokenKind::Int(v) if *v > 0 => {
                        let v = *v as u64;
                        self.bump();
                        v
                    }
                    _ => return self.err("positive row count"),
                };
                self.sort_stage(Some(n))
            }
            _ => self.err("a stage (where/select/keep/agg/join/merge/order/top)"),
        }
    }

    fn join_stage(&mut self) -> Result<Stage, ParseError> {
        let kind = match &self.peek().kind {
            TokenKind::Keyword("inner") => Some(JoinKindAst::Inner),
            TokenKind::Keyword("semi") => Some(JoinKindAst::Semi),
            TokenKind::Keyword("anti") => Some(JoinKindAst::Anti),
            TokenKind::Keyword("single") => None,
            _ => return self.err("a join kind (inner/semi/anti/single)"),
        };
        self.bump();
        self.eat_sym("(")?;
        let query = Box::new(self.query()?);
        self.eat_sym(")")?;
        self.eat_kw("on")?;
        let mut on = vec![self.on_pair()?];
        while self.at_sym(",") {
            self.bump();
            on.push(self.on_pair()?);
        }
        match kind {
            Some(kind) => {
                let payload = if self.at_kw("payload") {
                    self.bump();
                    self.collist()?
                } else {
                    Vec::new()
                };
                let bloom = if self.at_kw("bloom") {
                    self.bump();
                    true
                } else {
                    false
                };
                Ok(Stage::Join {
                    kind,
                    query,
                    on,
                    payload,
                    bloom,
                })
            }
            None => {
                self.eat_kw("payload")?;
                self.eat_sym("[")?;
                let mut payload = vec![self.default_item()?];
                while self.at_sym(",") {
                    self.bump();
                    payload.push(self.default_item()?);
                }
                self.eat_sym("]")?;
                Ok(Stage::JoinSingle { query, on, payload })
            }
        }
    }

    fn on_pair(&mut self) -> Result<(Ident, Ident), ParseError> {
        let probe = self.ident()?;
        self.eat_sym("=")?;
        let build = self.ident()?;
        Ok((probe, build))
    }

    fn default_item(&mut self) -> Result<(ColSpec, Value), ParseError> {
        let col = self.colspec()?;
        self.eat_kw("default")?;
        let (lit, _) = self.literal()?;
        Ok((col, lit))
    }

    fn select_item(&mut self) -> Result<SelectItem, ParseError> {
        let name = self.ident()?;
        self.eat_sym("=")?;
        let expr = self.expr()?;
        Ok(SelectItem {
            name,
            expr,
            spans: self.take_leaves(),
        })
    }

    fn agg_item(&mut self) -> Result<Agg<String>, ParseError> {
        let func = match &self.peek().kind {
            TokenKind::Keyword("count") => None,
            TokenKind::Keyword("sum") => Some(AggFunc::Sum),
            TokenKind::Keyword("min") => Some(AggFunc::Min),
            TokenKind::Keyword("max") => Some(AggFunc::Max),
            _ => return self.err("an aggregate (count/sum/min/max)"),
        };
        self.bump();
        let mut agg = Agg::count();
        if let Some(func) = func {
            self.eat_sym("(")?;
            // The element type is the compiler's to pick.
            agg.of = Some((func, NumType::I64, self.leaf_ident()?));
            self.eat_sym(")")?;
        }
        if self.at_kw("as") {
            self.bump();
            agg = agg.named(self.ident()?.name);
        }
        Ok(agg)
    }

    fn sort_stage(&mut self, limit: Option<u64>) -> Result<Stage, ParseError> {
        self.eat_kw("by")?;
        let mut keys = vec![self.sort_key()?];
        while self.at_sym(",") {
            self.bump();
            keys.push(self.sort_key()?);
        }
        let spans = self.take_leaves();
        Ok(Stage::Sort { limit, keys, spans })
    }

    fn sort_key(&mut self) -> Result<SortKey<String>, ParseError> {
        let col = self.leaf_ident()?;
        let desc = if self.at_kw("desc") {
            self.bump();
            true
        } else {
            if self.at_kw("asc") {
                self.bump();
            }
            false
        };
        Ok(SortKey { col, desc })
    }

    /// A literal, with optional leading `-` on numbers.
    fn literal(&mut self) -> Result<(Value, Span), ParseError> {
        let neg = if self.at_sym("-") {
            Some(self.bump().span)
        } else {
            None
        };
        let t = self.peek().clone();
        let lit = match (t.kind, neg) {
            (TokenKind::Int(v), None) => Value::I64(v),
            (TokenKind::Int(v), Some(_)) => Value::I64(-v),
            (TokenKind::Float(v), None) => Value::F64(v),
            (TokenKind::Float(v), Some(_)) => Value::F64(-v),
            (TokenKind::Str(s), None) => Value::Str(s),
            _ => return self.err("a literal"),
        };
        self.bump();
        let span = match neg {
            Some(s) => s.to(t.span),
            None => t.span,
        };
        Ok((lit, span))
    }

    /// A column reference or literal of the tree being parsed: its span
    /// joins the leaf table.
    fn leaf_ident(&mut self) -> Result<String, ParseError> {
        let id = self.ident()?;
        self.leaves.push(id.span);
        Ok(id.name)
    }

    fn leaf_literal(&mut self) -> Result<Value, ParseError> {
        let (lit, span) = self.literal()?;
        self.leaves.push(span);
        Ok(lit)
    }

    fn take_leaves(&mut self) -> LeafSpans {
        LeafSpans(std::mem::take(&mut self.leaves))
    }

    // -- predicates ---------------------------------------------------------

    fn pred(&mut self) -> Result<NamedPred, ParseError> {
        let first = self.and_pred()?;
        if !self.at_kw("or") {
            return Ok(first);
        }
        let mut branches = vec![first];
        while self.at_kw("or") {
            self.bump();
            branches.push(self.and_pred()?);
        }
        Ok(Pred::Or(branches))
    }

    fn and_pred(&mut self) -> Result<NamedPred, ParseError> {
        let first = self.pred_atom()?;
        if !self.at_kw("and") {
            return Ok(first);
        }
        let mut branches = vec![first];
        while self.at_kw("and") {
            self.bump();
            branches.push(self.pred_atom()?);
        }
        Ok(Pred::And(branches))
    }

    fn pred_atom(&mut self) -> Result<NamedPred, ParseError> {
        if self.at_sym("(") {
            self.bump();
            let p = self.pred()?;
            self.eat_sym(")")?;
            return Ok(p);
        }
        let col = self.leaf_ident()?;
        match &self.peek().kind {
            TokenKind::Keyword("like") => {
                self.bump();
                Ok(Pred::like(col, self.str_lit()?))
            }
            TokenKind::Keyword("not") => {
                self.bump();
                self.eat_kw("like")?;
                Ok(Pred::not_like(col, self.str_lit()?))
            }
            TokenKind::Keyword("in") => {
                self.bump();
                self.eat_sym("(")?;
                let mut values = vec![self.str_lit()?];
                while self.at_sym(",") {
                    self.bump();
                    values.push(self.str_lit()?);
                }
                self.eat_sym(")")?;
                Ok(Pred::InStr { col, values })
            }
            TokenKind::Sym(s) => {
                let op = match *s {
                    "<" => CmpKind::Lt,
                    "<=" => CmpKind::Le,
                    ">" => CmpKind::Gt,
                    ">=" => CmpKind::Ge,
                    "=" => CmpKind::Eq,
                    "!=" => CmpKind::Ne,
                    _ => return self.err("a comparison operator"),
                };
                self.bump();
                let rhs = match &self.peek().kind {
                    TokenKind::Ident(_) => CmpRhs::Col(self.leaf_ident()?),
                    _ => CmpRhs::Const(self.leaf_literal()?),
                };
                Ok(Pred::Cmp { col, op, rhs })
            }
            _ => self.err("a comparison, `like`, `not like`, or `in`"),
        }
    }

    fn str_lit(&mut self) -> Result<String, ParseError> {
        match &self.peek().kind {
            TokenKind::Str(_) => {
                let t = self.bump();
                let TokenKind::Str(s) = t.kind else {
                    unreachable!("peeked Str")
                };
                Ok(s)
            }
            _ => self.err("a string literal"),
        }
    }

    // -- expressions --------------------------------------------------------

    fn expr(&mut self) -> Result<NamedExpr, ParseError> {
        let mut lhs = self.term()?;
        loop {
            let op = if self.at_sym("+") {
                ArithKind::Add
            } else if self.at_sym("-") {
                ArithKind::Sub
            } else {
                return Ok(lhs);
            };
            self.bump();
            let rhs = self.term()?;
            lhs = Expr::Arith {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
    }

    fn term(&mut self) -> Result<NamedExpr, ParseError> {
        let mut lhs = self.factor()?;
        loop {
            let op = if self.at_sym("*") {
                ArithKind::Mul
            } else if self.at_sym("/") {
                ArithKind::Div
            } else {
                return Ok(lhs);
            };
            self.bump();
            let rhs = self.factor()?;
            lhs = Expr::Arith {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
    }

    fn factor(&mut self) -> Result<NamedExpr, ParseError> {
        match &self.peek().kind {
            TokenKind::Sym("(") => {
                self.bump();
                let e = self.expr()?;
                self.eat_sym(")")?;
                Ok(e)
            }
            TokenKind::Sym("-") | TokenKind::Int(_) | TokenKind::Float(_) | TokenKind::Str(_) => {
                Ok(Expr::Const(self.leaf_literal()?))
            }
            TokenKind::Keyword(k @ ("i32" | "i64" | "f64")) => {
                let to = match *k {
                    "i32" => DataType::I32,
                    "i64" => DataType::I64,
                    _ => DataType::F64,
                };
                self.bump();
                self.eat_sym("(")?;
                let inner = self.expr()?;
                self.eat_sym(")")?;
                Ok(inner.cast(to))
            }
            TokenKind::Keyword("substr") => {
                self.bump();
                self.eat_sym("(")?;
                let col = self.leaf_ident()?;
                self.eat_sym(",")?;
                let start = self.uint()?;
                self.eat_sym(",")?;
                let len = self.uint()?;
                self.eat_sym(")")?;
                Ok(Expr::Substr { col, start, len })
            }
            TokenKind::Ident(_) => Ok(Expr::Col(self.leaf_ident()?)),
            _ => self.err("an expression"),
        }
    }

    fn uint(&mut self) -> Result<usize, ParseError> {
        match &self.peek().kind {
            TokenKind::Int(v) if usize::try_from(*v).is_ok() => {
                let v = *v as usize;
                self.bump();
                Ok(v)
            }
            _ => self.err("a non-negative integer"),
        }
    }
}
