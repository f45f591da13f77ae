//! Compiled expressions and predicates: chains of primitive instances.
//!
//! Compilation resolves each AST node to a concrete primitive signature in
//! the dictionary and creates one [`PrimInstance`] per node — the unit the
//! bandit adapts (§1.1: instances, not functions, because every instance
//! sees its own data stream). Evaluation then walks the node list calling
//! [`PrimInstance::invoke`], which is where flavors get chosen and costs
//! observed.

use std::sync::Arc;

use ma_primitives::{
    LikePattern, MapCast, MapColCol, MapColVal, SelColCol, SelColVal, SelLike, SelStrColVal,
};
use ma_vector::{DataChunk, DataType, SelVec, Vector};

use crate::adaptive::{HeurKind, NodeScope, PrimInstance};
use crate::expr::{CmpRhs, Expr, Pred, Value};
use crate::ExecError;

// ---------------------------------------------------------------------------
// projections
// ---------------------------------------------------------------------------

enum CastInst {
    I16I32(PrimInstance<MapCast<i16, i32>>),
    I16I64(PrimInstance<MapCast<i16, i64>>),
    I16F64(PrimInstance<MapCast<i16, f64>>),
    I32I64(PrimInstance<MapCast<i32, i64>>),
    I32F64(PrimInstance<MapCast<i32, f64>>),
    I64F64(PrimInstance<MapCast<i64, f64>>),
}

enum Node {
    Col(usize),
    ArithCcI64 {
        inst: PrimInstance<MapColCol<i64>>,
        lhs: usize,
        rhs: usize,
    },
    ArithCcF64 {
        inst: PrimInstance<MapColCol<f64>>,
        lhs: usize,
        rhs: usize,
    },
    ArithCvI64 {
        inst: PrimInstance<MapColVal<i64>>,
        lhs: usize,
        v: i64,
    },
    ArithCvF64 {
        inst: PrimInstance<MapColVal<f64>>,
        lhs: usize,
        v: f64,
    },
    Cast {
        inst: CastInst,
        child: usize,
    },
    Substr {
        col: usize,
        start: usize,
        len: usize,
    },
}

/// A compiled projection expression: evaluates to one output vector per
/// chunk, computing only live positions (selective computation by default;
/// the *flavor* may choose to compute everything — Fig. 7).
pub struct CompiledExpr {
    nodes: Vec<Node>,
    root: usize,
    out_type: DataType,
}

impl CompiledExpr {
    /// Compiles `expr` against the input column types.
    pub fn compile(
        expr: &Expr,
        input_types: &[DataType],
        scope: &NodeScope,
    ) -> Result<Self, ExecError> {
        let mut nodes = Vec::new();
        let (root, out_type) = compile_node(expr, input_types, scope, &mut nodes)?;
        Ok(CompiledExpr {
            nodes,
            root,
            out_type,
        })
    }

    /// The output type of the expression.
    pub fn out_type(&self) -> DataType {
        self.out_type
    }

    /// Evaluates over a chunk, producing a vector of `chunk.len()` values
    /// defined at live positions.
    pub fn eval(&mut self, chunk: &DataChunk) -> Result<Arc<Vector>, ExecError> {
        let n = chunk.len();
        let sel = chunk.sel().map(SelVec::as_slice);
        let live = chunk.live_count() as u64;
        let density = if n == 0 { 1.0 } else { live as f64 / n as f64 };
        let mut cache: Vec<Option<Arc<Vector>>> = Vec::with_capacity(self.nodes.len());
        for idx in 0..self.nodes.len() {
            let out: Arc<Vector> = match &mut self.nodes[idx] {
                Node::Col(c) => Arc::clone(chunk.column(*c)),
                Node::ArithCcI64 { inst, lhs, rhs } => {
                    let a = cache[*lhs].as_ref().unwrap().as_i64();
                    let b = cache[*rhs].as_ref().unwrap().as_i64();
                    let mut out = vec![0i64; n];
                    inst.hint(density);
                    inst.invoke(live, |f| f(&mut out, a, b, sel));
                    Arc::new(Vector::I64(out))
                }
                Node::ArithCcF64 { inst, lhs, rhs } => {
                    let a = cache[*lhs].as_ref().unwrap().as_f64();
                    let b = cache[*rhs].as_ref().unwrap().as_f64();
                    let mut out = vec![0f64; n];
                    inst.hint(density);
                    inst.invoke(live, |f| f(&mut out, a, b, sel));
                    Arc::new(Vector::F64(out))
                }
                Node::ArithCvI64 { inst, lhs, v } => {
                    let a = cache[*lhs].as_ref().unwrap().as_i64();
                    let mut out = vec![0i64; n];
                    inst.hint(density);
                    let v = *v;
                    inst.invoke(live, |f| f(&mut out, a, v, sel));
                    Arc::new(Vector::I64(out))
                }
                Node::ArithCvF64 { inst, lhs, v } => {
                    let a = cache[*lhs].as_ref().unwrap().as_f64();
                    let mut out = vec![0f64; n];
                    inst.hint(density);
                    let v = *v;
                    inst.invoke(live, |f| f(&mut out, a, v, sel));
                    Arc::new(Vector::F64(out))
                }
                Node::Cast { inst, child } => {
                    let src = cache[*child].as_ref().unwrap();
                    cast_eval(inst, src, n, live, sel)
                }
                Node::Substr { col, start, len } => {
                    let src = chunk.column(*col).as_str_vec();
                    let mut out = src.writable_like(n);
                    let apply = |i: usize, out: &mut ma_vector::StrVec| {
                        let (off, slen) = src.views()[i];
                        let s = (*start).min(slen as usize);
                        let l = (*len).min(slen as usize - s);
                        out.views_mut()[i] = (off + s as u32, l as u32);
                    };
                    match sel {
                        Some(s) => {
                            for &i in s {
                                apply(i as usize, &mut out);
                            }
                        }
                        None => {
                            for i in 0..n {
                                apply(i, &mut out);
                            }
                        }
                    }
                    Arc::new(Vector::Str(out))
                }
            };
            cache.push(Some(out));
        }
        Ok(cache[self.root].take().expect("root evaluated"))
    }
}

fn cast_eval(
    inst: &mut CastInst,
    src: &Vector,
    n: usize,
    live: u64,
    sel: Option<&[u32]>,
) -> Arc<Vector> {
    match inst {
        CastInst::I16I32(i) => {
            let s = src.as_i16();
            let mut out = vec![0i32; n];
            i.invoke(live, |f| f(&mut out, s, sel));
            Arc::new(Vector::I32(out))
        }
        CastInst::I16I64(i) => {
            let s = src.as_i16();
            let mut out = vec![0i64; n];
            i.invoke(live, |f| f(&mut out, s, sel));
            Arc::new(Vector::I64(out))
        }
        CastInst::I16F64(i) => {
            let s = src.as_i16();
            let mut out = vec![0f64; n];
            i.invoke(live, |f| f(&mut out, s, sel));
            Arc::new(Vector::F64(out))
        }
        CastInst::I32I64(i) => {
            let s = src.as_i32();
            let mut out = vec![0i64; n];
            i.invoke(live, |f| f(&mut out, s, sel));
            Arc::new(Vector::I64(out))
        }
        CastInst::I32F64(i) => {
            let s = src.as_i32();
            let mut out = vec![0f64; n];
            i.invoke(live, |f| f(&mut out, s, sel));
            Arc::new(Vector::F64(out))
        }
        CastInst::I64F64(i) => {
            let s = src.as_i64();
            let mut out = vec![0f64; n];
            i.invoke(live, |f| f(&mut out, s, sel));
            Arc::new(Vector::F64(out))
        }
    }
}

fn compile_node(
    expr: &Expr,
    input_types: &[DataType],
    scope: &NodeScope,
    nodes: &mut Vec<Node>,
) -> Result<(usize, DataType), ExecError> {
    match expr {
        Expr::Col(c) => {
            let ty = *input_types
                .get(*c)
                .ok_or_else(|| ExecError::Plan(format!("column {c} out of range")))?;
            nodes.push(Node::Col(*c));
            Ok((nodes.len() - 1, ty))
        }
        Expr::Const(_) => Err(ExecError::Plan(
            "constants are only valid as the rhs of arithmetic".into(),
        )),
        Expr::Cast { to, inner } => {
            let (child, from) = compile_node(inner, input_types, scope, nodes)?;
            let sig = format!("map_cast_{}_{}", from.sig_name(), to.sig_name());
            let inst = match (from, to) {
                (DataType::I16, DataType::I32) => {
                    CastInst::I16I32(scope.instance(&sig, &sig, HeurKind::None)?)
                }
                (DataType::I16, DataType::I64) => {
                    CastInst::I16I64(scope.instance(&sig, &sig, HeurKind::None)?)
                }
                (DataType::I16, DataType::F64) => {
                    CastInst::I16F64(scope.instance(&sig, &sig, HeurKind::None)?)
                }
                (DataType::I32, DataType::I64) => {
                    CastInst::I32I64(scope.instance(&sig, &sig, HeurKind::None)?)
                }
                (DataType::I32, DataType::F64) => {
                    CastInst::I32F64(scope.instance(&sig, &sig, HeurKind::None)?)
                }
                (DataType::I64, DataType::F64) => {
                    CastInst::I64F64(scope.instance(&sig, &sig, HeurKind::None)?)
                }
                _ => return Err(ExecError::Plan(format!("unsupported cast {from} -> {to}"))),
            };
            nodes.push(Node::Cast { inst, child });
            Ok((nodes.len() - 1, *to))
        }
        Expr::Substr { col, start, len } => {
            let ty = *input_types
                .get(*col)
                .ok_or_else(|| ExecError::Plan(format!("column {col} out of range")))?;
            if ty != DataType::Str {
                return Err(ExecError::Plan("substr requires a string column".into()));
            }
            nodes.push(Node::Substr {
                col: *col,
                start: *start,
                len: *len,
            });
            Ok((nodes.len() - 1, DataType::Str))
        }
        Expr::Arith { op, lhs, rhs } => {
            let (l, lty) = compile_node(lhs, input_types, scope, nodes)?;
            if let Expr::Const(v) = rhs.as_ref() {
                if v.data_type() != lty {
                    return Err(ExecError::Plan(format!(
                        "arith const type {} does not match lhs {lty}",
                        v.data_type()
                    )));
                }
                let sig = format!("map_{}_{}_col_val", op.sig_name(), lty.sig_name());
                let node = match v {
                    Value::I64(c) => Node::ArithCvI64 {
                        inst: scope.instance(&sig, &sig, HeurKind::FullComp { elem_bytes: 8 })?,
                        lhs: l,
                        v: *c,
                    },
                    Value::F64(c) => Node::ArithCvF64 {
                        inst: scope.instance(&sig, &sig, HeurKind::FullComp { elem_bytes: 8 })?,
                        lhs: l,
                        v: *c,
                    },
                    _ => {
                        return Err(ExecError::Plan(
                            "arithmetic is supported on i64/f64; cast first".into(),
                        ))
                    }
                };
                nodes.push(node);
                Ok((nodes.len() - 1, lty))
            } else {
                let (r, rty) = compile_node(rhs, input_types, scope, nodes)?;
                if lty != rty {
                    return Err(ExecError::Plan(format!(
                        "arith operand types differ: {lty} vs {rty}"
                    )));
                }
                let sig = format!("map_{}_{}_col_col", op.sig_name(), lty.sig_name());
                let node = match lty {
                    DataType::I64 => Node::ArithCcI64 {
                        inst: scope.instance(&sig, &sig, HeurKind::FullComp { elem_bytes: 8 })?,
                        lhs: l,
                        rhs: r,
                    },
                    DataType::F64 => Node::ArithCcF64 {
                        inst: scope.instance(&sig, &sig, HeurKind::FullComp { elem_bytes: 8 })?,
                        lhs: l,
                        rhs: r,
                    },
                    other => {
                        return Err(ExecError::Plan(format!(
                            "arithmetic on {other} unsupported; cast to i64/f64"
                        )))
                    }
                };
                nodes.push(node);
                Ok((nodes.len() - 1, lty))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// predicates
// ---------------------------------------------------------------------------

enum PredNode {
    CvI16 {
        inst: PrimInstance<SelColVal<i16>>,
        col: usize,
        v: i16,
    },
    CvI32 {
        inst: PrimInstance<SelColVal<i32>>,
        col: usize,
        v: i32,
    },
    CvI64 {
        inst: PrimInstance<SelColVal<i64>>,
        col: usize,
        v: i64,
    },
    CvF64 {
        inst: PrimInstance<SelColVal<f64>>,
        col: usize,
        v: f64,
    },
    CcI16 {
        inst: PrimInstance<SelColCol<i16>>,
        a: usize,
        b: usize,
    },
    CcI32 {
        inst: PrimInstance<SelColCol<i32>>,
        a: usize,
        b: usize,
    },
    CcI64 {
        inst: PrimInstance<SelColCol<i64>>,
        a: usize,
        b: usize,
    },
    CcF64 {
        inst: PrimInstance<SelColCol<f64>>,
        a: usize,
        b: usize,
    },
    StrCmp {
        inst: PrimInstance<SelStrColVal>,
        /// Code-comparison rewrite used when the input vector arrives
        /// dictionary-coded: codes index the *sorted* dictionary, so
        /// `=`/`<>` against a literal becomes an i32 selection over the
        /// codes — the string bytes are never touched. Boxed to keep the
        /// rewrite from bloating every other `PredNode` variant.
        code_inst: Box<PrimInstance<SelColVal<i32>>>,
        eq: bool,
        col: usize,
        v: String,
    },
    Like {
        inst: PrimInstance<SelLike>,
        col: usize,
        pat: LikePattern,
    },
    And(Vec<CompiledPred>),
    Or(Vec<CompiledPred>),
}

/// A compiled predicate: produces the surviving positions of a chunk.
pub struct CompiledPred {
    node: PredNode,
}

impl CompiledPred {
    /// Compiles a predicate tree against the input column types.
    pub fn compile(
        pred: &Pred,
        input_types: &[DataType],
        scope: &NodeScope,
    ) -> Result<Self, ExecError> {
        let node = match pred {
            Pred::Cmp { col, op, rhs } => {
                let cty = *input_types
                    .get(*col)
                    .ok_or_else(|| ExecError::Plan(format!("column {col} out of range")))?;
                match rhs {
                    CmpRhs::Const(v) => {
                        if cty == DataType::Str {
                            let val = match v {
                                Value::Str(s) => s.clone(),
                                _ => {
                                    return Err(ExecError::Plan(
                                        "string column compared to non-string".into(),
                                    ))
                                }
                            };
                            let (sig, code_sig, eq) = match op {
                                crate::expr::CmpKind::Eq => {
                                    ("sel_eq_str_col_val", "sel_eq_i32_col_val", true)
                                }
                                crate::expr::CmpKind::Ne => {
                                    ("sel_ne_str_col_val", "sel_ne_i32_col_val", false)
                                }
                                other => {
                                    return Err(ExecError::Plan(format!(
                                        "string comparison {other:?} unsupported"
                                    )))
                                }
                            };
                            PredNode::StrCmp {
                                inst: scope.instance(sig, sig, HeurKind::Selection)?,
                                code_inst: Box::new(scope.instance(
                                    code_sig,
                                    &format!("{code_sig}/dict"),
                                    HeurKind::Selection,
                                )?),
                                eq,
                                col: *col,
                                v: val,
                            }
                        } else {
                            if v.data_type() != cty {
                                return Err(ExecError::Plan(format!(
                                    "comparison const type {} does not match column {cty}",
                                    v.data_type()
                                )));
                            }
                            let sig = format!("sel_{}_{}_col_val", op.sig_name(), cty.sig_name());
                            match v {
                                Value::I16(c) => PredNode::CvI16 {
                                    inst: scope.instance(&sig, &sig, HeurKind::Selection)?,
                                    col: *col,
                                    v: *c,
                                },
                                Value::I32(c) => PredNode::CvI32 {
                                    inst: scope.instance(&sig, &sig, HeurKind::Selection)?,
                                    col: *col,
                                    v: *c,
                                },
                                Value::I64(c) => PredNode::CvI64 {
                                    inst: scope.instance(&sig, &sig, HeurKind::Selection)?,
                                    col: *col,
                                    v: *c,
                                },
                                Value::F64(c) => PredNode::CvF64 {
                                    inst: scope.instance(&sig, &sig, HeurKind::Selection)?,
                                    col: *col,
                                    v: *c,
                                },
                                Value::Str(_) => unreachable!("handled above"),
                            }
                        }
                    }
                    CmpRhs::Col(other) => {
                        let oty = *input_types.get(*other).ok_or_else(|| {
                            ExecError::Plan(format!("column {other} out of range"))
                        })?;
                        if oty != cty {
                            return Err(ExecError::Plan(format!(
                                "col-col comparison types differ: {cty} vs {oty}"
                            )));
                        }
                        let sig = format!("sel_{}_{}_col_col", op.sig_name(), cty.sig_name());
                        match cty {
                            DataType::I16 => PredNode::CcI16 {
                                inst: scope.instance(&sig, &sig, HeurKind::Selection)?,
                                a: *col,
                                b: *other,
                            },
                            DataType::I32 => PredNode::CcI32 {
                                inst: scope.instance(&sig, &sig, HeurKind::Selection)?,
                                a: *col,
                                b: *other,
                            },
                            DataType::I64 => PredNode::CcI64 {
                                inst: scope.instance(&sig, &sig, HeurKind::Selection)?,
                                a: *col,
                                b: *other,
                            },
                            DataType::F64 => PredNode::CcF64 {
                                inst: scope.instance(&sig, &sig, HeurKind::Selection)?,
                                a: *col,
                                b: *other,
                            },
                            DataType::Str => {
                                return Err(ExecError::Plan(
                                    "string col-col comparison unsupported".into(),
                                ))
                            }
                        }
                    }
                }
            }
            Pred::Like {
                col,
                pattern,
                negated,
            } => {
                let (sig, name) = if *negated {
                    ("sel_notlike_str_col_val", "sel_notlike")
                } else {
                    ("sel_like_str_col_val", "sel_like")
                };
                PredNode::Like {
                    inst: scope.instance(sig, name, HeurKind::None)?,
                    col: *col,
                    pat: LikePattern::compile(pattern),
                }
            }
            Pred::InStr { col, values } => {
                let branches: Vec<Pred> = values
                    .iter()
                    .map(|v| Pred::str_eq(*col, v.clone()))
                    .collect();
                return CompiledPred::compile(&Pred::Or(branches), input_types, scope);
            }
            Pred::And(ps) => {
                if ps.is_empty() {
                    return Err(ExecError::Plan("empty AND".into()));
                }
                PredNode::And(
                    ps.iter()
                        .map(|p| CompiledPred::compile(p, input_types, scope))
                        .collect::<Result<_, _>>()?,
                )
            }
            Pred::Or(ps) => {
                if ps.is_empty() {
                    return Err(ExecError::Plan("empty OR".into()));
                }
                PredNode::Or(
                    ps.iter()
                        .map(|p| CompiledPred::compile(p, input_types, scope))
                        .collect::<Result<_, _>>()?,
                )
            }
        };
        Ok(CompiledPred { node })
    }

    /// Applies the predicate over a chunk, restricted to `sel_in` (or all
    /// positions if `None`). Returns the surviving positions, ascending.
    pub fn apply(&mut self, chunk: &DataChunk, sel_in: Option<&[u32]>) -> SelVec {
        let candidates = sel_in.map_or(chunk.len(), <[u32]>::len);
        // Leaf evaluation shared by all comparison nodes.
        macro_rules! leaf {
            ($inst:expr, $call:expr) => {{
                let mut buf = vec![0u32; candidates];
                #[allow(clippy::redundant_closure_call)]
                let k = $call(&mut buf);
                let out_sel = if candidates == 0 {
                    0.0
                } else {
                    k as f64 / candidates as f64
                };
                $inst.hint(out_sel); // heuristics: observed selectivity
                buf.truncate(k);
                SelVec::from_positions(buf)
            }};
        }
        match &mut self.node {
            PredNode::CvI16 { inst, col, v } => {
                let c = chunk.column(*col).as_i16();
                let v = *v;
                leaf!(inst, |buf: &mut Vec<u32>| inst
                    .invoke(candidates as u64, |f| f(buf, c, v, sel_in)))
            }
            PredNode::CvI32 { inst, col, v } => {
                let c = chunk.column(*col).as_i32();
                let v = *v;
                leaf!(inst, |buf: &mut Vec<u32>| inst
                    .invoke(candidates as u64, |f| f(buf, c, v, sel_in)))
            }
            PredNode::CvI64 { inst, col, v } => {
                let c = chunk.column(*col).as_i64();
                let v = *v;
                leaf!(inst, |buf: &mut Vec<u32>| inst
                    .invoke(candidates as u64, |f| f(buf, c, v, sel_in)))
            }
            PredNode::CvF64 { inst, col, v } => {
                let c = chunk.column(*col).as_f64();
                let v = *v;
                leaf!(inst, |buf: &mut Vec<u32>| inst
                    .invoke(candidates as u64, |f| f(buf, c, v, sel_in)))
            }
            PredNode::CcI16 { inst, a, b } => {
                let ca = chunk.column(*a).as_i16();
                let cb = chunk.column(*b).as_i16();
                leaf!(inst, |buf: &mut Vec<u32>| inst
                    .invoke(candidates as u64, |f| f(buf, ca, cb, sel_in)))
            }
            PredNode::CcI32 { inst, a, b } => {
                let ca = chunk.column(*a).as_i32();
                let cb = chunk.column(*b).as_i32();
                leaf!(inst, |buf: &mut Vec<u32>| inst
                    .invoke(candidates as u64, |f| f(buf, ca, cb, sel_in)))
            }
            PredNode::CcI64 { inst, a, b } => {
                let ca = chunk.column(*a).as_i64();
                let cb = chunk.column(*b).as_i64();
                leaf!(inst, |buf: &mut Vec<u32>| inst
                    .invoke(candidates as u64, |f| f(buf, ca, cb, sel_in)))
            }
            PredNode::CcF64 { inst, a, b } => {
                let ca = chunk.column(*a).as_f64();
                let cb = chunk.column(*b).as_f64();
                leaf!(inst, |buf: &mut Vec<u32>| inst
                    .invoke(candidates as u64, |f| f(buf, ca, cb, sel_in)))
            }
            PredNode::StrCmp {
                inst,
                code_inst,
                eq,
                col,
                v,
            } => {
                let c = chunk.column(*col).as_str_vec();
                if let Some((dict_views, codes)) = c.dict_codes() {
                    // Dictionary-coded vector: rewrite to a code
                    // comparison (codes index the sorted dictionary, so
                    // code equality is string equality). A literal absent
                    // from the dictionary decides the predicate outright.
                    let arena = c.arena();
                    let pos = dict_views.binary_search_by(|&(o, l)| {
                        arena[o as usize..o as usize + l as usize].cmp(v.as_bytes())
                    });
                    return match pos {
                        Ok(code) => {
                            let code = code as i32;
                            leaf!(code_inst, |buf: &mut Vec<u32>| code_inst
                                .invoke(candidates as u64, |f| f(buf, codes, code, sel_in)))
                        }
                        Err(_) if *eq => SelVec::from_positions(Vec::new()),
                        Err(_) => match sel_in {
                            Some(s) => SelVec::from_positions(s.to_vec()),
                            None => SelVec::from_positions((0..chunk.len() as u32).collect()),
                        },
                    };
                }
                let v = v.clone();
                leaf!(inst, |buf: &mut Vec<u32>| inst
                    .invoke(candidates as u64, |f| f(buf, c, &v, sel_in)))
            }
            PredNode::Like { inst, col, pat } => {
                let c = chunk.column(*col).as_str_vec();
                let pat = pat.clone();
                leaf!(inst, |buf: &mut Vec<u32>| inst
                    .invoke(candidates as u64, |f| f(buf, c, &pat, sel_in)))
            }
            PredNode::And(ps) => {
                let mut cur: Option<SelVec> = None;
                for p in ps {
                    let s = p.apply(chunk, cur.as_ref().map(SelVec::as_slice).or(sel_in));
                    if s.is_empty() {
                        return s;
                    }
                    cur = Some(s);
                }
                cur.expect("non-empty AND")
            }
            PredNode::Or(ps) => {
                let mut acc: Vec<u32> = Vec::new();
                for p in ps {
                    let s = p.apply(chunk, sel_in);
                    acc = union_sorted(&acc, s.as_slice());
                }
                SelVec::from_positions(acc)
            }
        }
    }
}

/// Merges two strictly-increasing position lists.
fn union_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecConfig;
    use crate::expr::{lit_i64, CmpKind};
    use crate::QueryContext;
    use ma_primitives::build_dictionary;

    fn ctx() -> QueryContext {
        QueryContext::new(Arc::new(build_dictionary()), ExecConfig::fixed_default())
    }

    fn chunk() -> DataChunk {
        DataChunk::new(vec![
            Arc::new(Vector::I64(vec![10, 20, 30, 40])),
            Arc::new(Vector::I64(vec![1, 2, 3, 4])),
            Arc::new(Vector::I32(vec![100, 200, 300, 400])),
            Arc::new(Vector::Str(ma_vector::StrVec::from_strings(&[
                "MAIL", "SHIP", "MAIL", "RAIL",
            ]))),
            Arc::new(Vector::F64(vec![0.5, 0.25, 0.75, 0.1])),
        ])
    }

    #[test]
    fn arith_col_col_and_col_val() {
        let c = ctx();
        let e = Expr::Col(0).mul(Expr::Col(1).add(lit_i64(10)));
        let mut ce =
            CompiledExpr::compile(&e, &[DataType::I64, DataType::I64], &c.scope("t")).unwrap();
        assert_eq!(ce.out_type(), DataType::I64);
        let ch = chunk();
        let v = ce.eval(&ch).unwrap();
        assert_eq!(v.as_i64(), &[110, 240, 390, 560]);
    }

    #[test]
    fn cast_then_arith() {
        let c = ctx();
        // (i32 col 2 as i64) - col 1
        let e = Expr::Col(2).cast(DataType::I64).sub(Expr::Col(1));
        let types = [DataType::I64, DataType::I64, DataType::I32];
        let mut ce = CompiledExpr::compile(&e, &types, &c.scope("t")).unwrap();
        let v = ce.eval(&chunk()).unwrap();
        assert_eq!(v.as_i64(), &[99, 198, 297, 396]);
    }

    #[test]
    fn eval_respects_selection_vector() {
        let c = ctx();
        let e = Expr::Col(1).add(lit_i64(100));
        let mut ce =
            CompiledExpr::compile(&e, &[DataType::I64, DataType::I64], &c.scope("t")).unwrap();
        let mut ch = chunk();
        ch.set_sel(Some(SelVec::from_positions(vec![1, 3])));
        let v = ce.eval(&ch).unwrap();
        assert_eq!(v.as_i64()[1], 102);
        assert_eq!(v.as_i64()[3], 104);
    }

    #[test]
    fn substr_expr() {
        let c = ctx();
        let e = Expr::Substr {
            col: 3,
            start: 0,
            len: 2,
        };
        let types = [DataType::I64, DataType::I64, DataType::I32, DataType::Str];
        let mut ce = CompiledExpr::compile(&e, &types, &c.scope("t")).unwrap();
        assert_eq!(ce.out_type(), DataType::Str);
        let v = ce.eval(&chunk()).unwrap();
        let sv = v.as_str_vec();
        assert_eq!(sv.get(0), "MA");
        assert_eq!(sv.get(1), "SH");
    }

    #[test]
    fn type_mismatch_rejected() {
        let c = ctx();
        let e = Expr::Col(0).add(Expr::Col(2)); // i64 + i32
        let types = [DataType::I64, DataType::I64, DataType::I32];
        assert!(matches!(
            CompiledExpr::compile(&e, &types, &c.scope("t")),
            Err(ExecError::Plan(_))
        ));
    }

    fn types5() -> Vec<DataType> {
        vec![
            DataType::I64,
            DataType::I64,
            DataType::I32,
            DataType::Str,
            DataType::F64,
        ]
    }

    #[test]
    fn cmp_const_predicate() {
        let c = ctx();
        let p = Pred::cmp_val(0, CmpKind::Gt, Value::I64(15));
        let mut cp = CompiledPred::compile(&p, &types5(), &c.scope("t")).unwrap();
        let s = cp.apply(&chunk(), None);
        assert_eq!(s.as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn cmp_col_col_predicate() {
        let c = ctx();
        let p = Pred::cmp_col(0, CmpKind::Gt, 1); // always true here
        let mut cp = CompiledPred::compile(&p, &types5(), &c.scope("t")).unwrap();
        let s = cp.apply(&chunk(), Some(&[0, 2]));
        assert_eq!(s.as_slice(), &[0, 2]);
    }

    #[test]
    fn and_composes_sequentially() {
        let c = ctx();
        let p = Pred::And(vec![
            Pred::cmp_val(0, CmpKind::Gt, Value::I64(15)), // 1,2,3
            Pred::cmp_val(1, CmpKind::Lt, Value::I64(4)),  // 0,1,2
        ]);
        let mut cp = CompiledPred::compile(&p, &types5(), &c.scope("t")).unwrap();
        let s = cp.apply(&chunk(), None);
        assert_eq!(s.as_slice(), &[1, 2]);
    }

    #[test]
    fn or_unions_branches() {
        let c = ctx();
        let p = Pred::Or(vec![
            Pred::cmp_val(0, CmpKind::Le, Value::I64(10)), // 0
            Pred::cmp_val(1, CmpKind::Ge, Value::I64(4)),  // 3
        ]);
        let mut cp = CompiledPred::compile(&p, &types5(), &c.scope("t")).unwrap();
        let s = cp.apply(&chunk(), None);
        assert_eq!(s.as_slice(), &[0, 3]);
    }

    #[test]
    fn str_eq_and_in() {
        let c = ctx();
        let p = Pred::str_eq(3, "MAIL");
        let mut cp = CompiledPred::compile(&p, &types5(), &c.scope("t")).unwrap();
        assert_eq!(cp.apply(&chunk(), None).as_slice(), &[0, 2]);

        let p = Pred::InStr {
            col: 3,
            values: vec!["MAIL".into(), "RAIL".into()],
        };
        let mut cp = CompiledPred::compile(&p, &types5(), &c.scope("t")).unwrap();
        assert_eq!(cp.apply(&chunk(), None).as_slice(), &[0, 2, 3]);
    }

    #[test]
    fn like_predicate() {
        let c = ctx();
        let p = Pred::like(3, "%AIL");
        let mut cp = CompiledPred::compile(&p, &types5(), &c.scope("t")).unwrap();
        assert_eq!(cp.apply(&chunk(), None).as_slice(), &[0, 2, 3]);
        let p = Pred::not_like(3, "%AIL");
        let mut cp = CompiledPred::compile(&p, &types5(), &c.scope("t")).unwrap();
        assert_eq!(cp.apply(&chunk(), None).as_slice(), &[1]);
    }

    #[test]
    fn f64_predicate() {
        let c = ctx();
        let p = Pred::cmp_val(4, CmpKind::Lt, Value::F64(0.3));
        let mut cp = CompiledPred::compile(&p, &types5(), &c.scope("t")).unwrap();
        assert_eq!(cp.apply(&chunk(), None).as_slice(), &[1, 3]);
    }

    #[test]
    fn union_sorted_merges() {
        assert_eq!(union_sorted(&[1, 3, 5], &[2, 3, 6]), vec![1, 2, 3, 5, 6]);
        assert_eq!(union_sorted(&[], &[1]), vec![1]);
        assert_eq!(union_sorted(&[1], &[]), vec![1]);
    }
}
