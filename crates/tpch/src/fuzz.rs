//! Differential plan fuzzer over the TPC-H schema.
//!
//! Property-based testing for the whole query stack: a seeded generator
//! emits random **well-typed** DSL queries ([`Fuzzer::generate`]), each of which
//! is
//!
//! 1. rendered and re-parsed (the parser round-trip property),
//! 2. compiled and checked with [`ma_executor::verify()`] under every
//!    configuration of the differential matrix, and
//! 3. executed under every configuration — 1/2/4 workers, partitioned vs
//!    single-partition aggregation, small vs large vectors —
//!    with all results compared as multisets under a float-tolerant
//!    oracle ([`compare_stores`]).
//!
//! Any disagreement is a bug by construction: the configurations differ
//! only in *how* work is scheduled, never in *what* is computed. Failing
//! queries are shrunk structurally ([`Fuzzer::shrink`]) — drop a stage, a
//! predicate branch, a projection item, a scan column — to the smallest
//! query that still disagrees, which is what lands in
//! `crates/tpch/tests/fuzz_regressions.rs` as a pinned test.
//!
//! Everything is deterministic in `(seed, case)`: generation uses
//! [`SplitMix64`] and the engine runs fixed-flavor, so every failure
//! reproduces from its seed line. See DESIGN.md §10 for the generator's
//! safety rules (why generated queries avoid NaN, ties, and
//! duplicate-key single joins) and the oracle argument.

use std::cmp::Ordering;
use std::fmt::Write as _;
use std::sync::Arc;

use ma_core::{PrimitiveDictionary, SplitMix64};
use ma_executor::frontend::ast::{
    ColSpec, Ident, JoinKindAst, LeafSpans, Query, SelectItem, Stage,
};
use ma_executor::frontend::{self, parse};
use ma_executor::ops::FrozenStore;
use ma_executor::plan::{col, lit_f64, lit_i64, substr, NamedExpr, NamedPred};
use ma_executor::{
    lower, verify, Agg, AggFunc, ArithKind, CmpKind, DecodeMode, ExecConfig, Expr, NumType, Pred,
    QueryContext, SortKey, Value,
};
use ma_primitives::build_dictionary;
use ma_vector::{DataType, Vector};

use crate::TpchData;

// ---------------------------------------------------------------------------
// configuration matrix
// ---------------------------------------------------------------------------

/// The differential configuration matrix: worker counts × aggregate
/// partitioning regimes × vector sizes, all fixed-flavor (deterministic).
/// The aggregate partition threshold is lowered so partitioned aggregation
/// actually engages at the small fuzzing scale factor. `single` forces one
/// aggregate instance; `auto` leaves the count to the planner (aggregates
/// follow the worker count). Joins have one parallel shape either way: at
/// one worker every join is a plain `HashJoin` with a private build, at
/// more they probe in the worker fragments over a shared build — so the
/// first entry, the reference everything else is compared against, is the
/// in-fragment probe's differential twin.
pub fn config_matrix() -> Vec<(String, ExecConfig)> {
    let mut out = Vec::new();
    for workers in [1usize, 2, 4] {
        for (pname, agg_parts) in [("single", 1usize), ("auto", 0)] {
            for vs in [1024usize, 64] {
                let mut cfg = ExecConfig::fixed_default()
                    .with_workers(workers)
                    .with_agg_partitions(agg_parts)
                    .with_agg_min_groups(256);
                cfg.vector_size = vs;
                out.push((format!("{workers}w/{pname}/v{vs}"), cfg));
            }
        }
    }
    out
}

/// Which storage a configuration runs against: the encoded database
/// (the default build, compressed columns decoded morsel-at-a-time) or
/// its raw twin (every column decoded up front at construction).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Storage {
    /// Compressed columns, scan-time decode.
    Encoded,
    /// Uncompressed columns ([`TpchData::decode_all`] twin).
    Raw,
}

/// The [`config_matrix`] extended with the storage dimension: every
/// base configuration runs on encoded storage, then targeted variants
/// cross-check the codecs end-to-end — the reference configuration and
/// the most parallel one each repeated on (a) encoded storage with the
/// scalar reference decoder (primitive decode kernels vs the spec
/// implementation) and (b) the raw uncompressed twin (encode → scan →
/// decode vs never-encoded data). A full cross product would triple the
/// matrix for no extra coverage: storage only affects the scan layer,
/// so one sequential and one maximally-exchanged plan per storage mode
/// already exercise every decode path.
pub fn storage_matrix() -> Vec<(String, ExecConfig, Storage)> {
    let base = config_matrix();
    let seq = base[0].1.clone();
    let par = base.last().expect("config matrix is never empty").1.clone();
    let mut out: Vec<(String, ExecConfig, Storage)> = base
        .into_iter()
        .map(|(name, cfg)| (name, cfg, Storage::Encoded))
        .collect();
    for (tag, cfg) in [("seq", seq), ("par", par)] {
        out.push((
            format!("{tag}/refdecode"),
            cfg.clone().with_decode(DecodeMode::Reference),
            Storage::Encoded,
        ));
        out.push((format!("{tag}/raw"), cfg, Storage::Raw));
    }
    out
}

// ---------------------------------------------------------------------------
// result oracle
// ---------------------------------------------------------------------------

/// Relative tolerance for float columns. Partitioned and vector-resized
/// plans sum floats in different orders; genuine divergences (wrong
/// rows, wrong groups) are orders of magnitude larger than
/// reassociation noise.
const FLOAT_RTOL: f64 = 1e-9;

/// Groups rows by their discrete (integer/string) column values; each
/// group holds the float-column tuples of its rows, sorted. Two stores
/// with equal buckets are equal as multisets up to float tolerance.
fn buckets(s: &FrozenStore) -> std::collections::BTreeMap<String, Vec<Vec<f64>>> {
    let mut map: std::collections::BTreeMap<String, Vec<Vec<f64>>> = Default::default();
    for r in 0..s.rows() {
        let mut key = String::new();
        let mut floats = Vec::new();
        for c in 0..s.types().len() {
            match s.col(c) {
                Vector::I16(v) => write!(key, "{}\u{1}", v[r]).unwrap(),
                Vector::I32(v) => write!(key, "{}\u{1}", v[r]).unwrap(),
                Vector::I64(v) => write!(key, "{}\u{1}", v[r]).unwrap(),
                Vector::Str(sv) => write!(key, "{}\u{1}", sv.get(r)).unwrap(),
                Vector::F64(v) => floats.push(v[r]),
            }
        }
        map.entry(key).or_default().push(floats);
    }
    for b in map.values_mut() {
        b.sort_by(|x, y| {
            for (a, b) in x.iter().zip(y.iter()) {
                match a.total_cmp(b) {
                    Ordering::Equal => {}
                    o => return o,
                }
            }
            Ordering::Equal
        });
    }
    map
}

fn floats_close(x: f64, y: f64) -> bool {
    // Bitwise equality first: `inf - inf` is NaN, which fails any
    // tolerance check, yet equal infinities are genuinely equal — a
    // global min/max over zero rows legally yields its ±inf fold
    // identity in every configuration (seed 0xF022 cases 3263/4718/8183,
    // pinned in tests/fuzz_regressions.rs).
    x.to_bits() == y.to_bits() || (x - y).abs() <= FLOAT_RTOL * x.abs().max(y.abs()).max(1.0)
}

/// Compares two materialized results as row multisets: discrete columns
/// exactly, float columns within a fixed relative tolerance
/// (bucketed by the discrete columns, sorted within each bucket).
/// Multiset — not ordered — comparison: the engine's sort is not stable
/// across exchange layouts, and the generator makes every ordering-
/// sensitive operator (`top`) a total order anyway.
pub fn compare_stores(
    name_a: &str,
    a: &FrozenStore,
    name_b: &str,
    b: &FrozenStore,
) -> Result<(), String> {
    if a.types() != b.types() {
        return Err(format!(
            "schema diverged: {name_a} {:?} vs {name_b} {:?}",
            a.types(),
            b.types()
        ));
    }
    if a.rows() != b.rows() {
        return Err(format!(
            "row count diverged: {name_a}={} vs {name_b}={}",
            a.rows(),
            b.rows()
        ));
    }
    let (ba, bb) = (buckets(a), buckets(b));
    for (ka, va) in &ba {
        let Some(vb) = bb.get(ka) else {
            return Err(format!(
                "group {:?} present under {name_a}, absent under {name_b}",
                ka.replace('\u{1}', "|")
            ));
        };
        if va.len() != vb.len() {
            return Err(format!(
                "group {:?} multiplicity diverged: {name_a}={} vs {name_b}={}",
                ka.replace('\u{1}', "|"),
                va.len(),
                vb.len()
            ));
        }
        for (ra, rb) in va.iter().zip(vb.iter()) {
            for (&x, &y) in ra.iter().zip(rb.iter()) {
                if !floats_close(x, y) {
                    return Err(format!(
                        "float value diverged in group {:?}: {name_a}={x} vs {name_b}={y}",
                        ka.replace('\u{1}', "|")
                    ));
                }
            }
        }
    }
    for kb in bb.keys() {
        if !ba.contains_key(kb) {
            return Err(format!(
                "group {:?} present under {name_b}, absent under {name_a}",
                kb.replace('\u{1}', "|")
            ));
        }
    }
    Ok(())
}

/// Checks a materialized result against the abstract interpreter's
/// derived facts: row count within the bound, every value inside its
/// column's interval, distinct counts within the NDV cap, and
/// all-distinct proofs honored. Runs on **every** fuzz execution, so the
/// 10k-case sweeps double as a soundness property test for
/// [`ma_executor::analyze()`]. (Executions that trap never reach this
/// check — trapped runs are exempt from the soundness contract.)
pub fn check_soundness(facts: &ma_executor::Facts, store: &FrozenStore) -> Result<(), String> {
    use ma_executor::AbsDomain;
    use std::collections::HashSet;
    if store.rows() > facts.rows {
        return Err(format!(
            "row bound violated: materialized {} rows, proved ≤ {}",
            store.rows(),
            facts.rows
        ));
    }
    if store.types().len() != facts.cols.len() {
        return Err(format!(
            "fact arity {} != result arity {}",
            facts.cols.len(),
            store.types().len()
        ));
    }
    for (i, fact) in facts.cols.iter().enumerate() {
        let (distinct, oob): (usize, Option<String>) = match store.col(i) {
            Vector::I16(v) => int_soundness(v.iter().map(|&x| i64::from(x)), &fact.domain),
            Vector::I32(v) => int_soundness(v.iter().map(|&x| i64::from(x)), &fact.domain),
            Vector::I64(v) => int_soundness(v.iter().copied(), &fact.domain),
            Vector::F64(v) => {
                let AbsDomain::Float { lo, hi, finite } = fact.domain else {
                    return Err(format!("col {i}: f64 result under {} fact", fact.domain));
                };
                let mut seen = HashSet::new();
                let mut bad = None;
                for &x in v.iter() {
                    seen.insert(x.to_bits());
                    if x.is_finite() {
                        if x < lo || x > hi {
                            bad = bad.or(Some(format!("{x} ∉ [{lo}, {hi}]")));
                        }
                    } else if finite {
                        bad = bad.or(Some(format!("{x} in a proven-finite column")));
                    }
                }
                (seen.len(), bad)
            }
            Vector::Str(v) => {
                let mut seen = HashSet::new();
                for j in 0..store.rows() {
                    seen.insert(v.get(j).as_bytes().to_vec());
                }
                (seen.len(), None)
            }
        };
        if let Some(detail) = oob {
            return Err(format!("col {i}: value escaped its interval: {detail}"));
        }
        if distinct > fact.ndv {
            return Err(format!(
                "col {i}: {} distinct values, proved ≤ {}",
                distinct, fact.ndv
            ));
        }
        if fact.distinct && distinct < store.rows() {
            return Err(format!(
                "col {i}: proven all-distinct but only {} distinct over {} rows",
                distinct,
                store.rows()
            ));
        }
    }
    Ok(())
}

/// Interval + NDV walk for an integer column (i16/i32 widened to i64).
fn int_soundness(
    values: impl Iterator<Item = i64>,
    domain: &ma_executor::AbsDomain,
) -> (usize, Option<String>) {
    use ma_executor::AbsDomain;
    use std::collections::HashSet;
    let AbsDomain::Int { lo, hi } = *domain else {
        return (0, Some(format!("integer result under {domain} fact")));
    };
    let mut seen = HashSet::new();
    let mut bad = None;
    for x in values {
        seen.insert(x);
        if x < lo || x > hi {
            bad = bad.or(Some(format!("{x} ∉ [{lo}, {hi}]")));
        }
    }
    (seen.len(), bad)
}

// ---------------------------------------------------------------------------
// failures and reports
// ---------------------------------------------------------------------------

/// Why a generated query failed its differential check. The distinction
/// matters to the shrinker: a candidate only counts as a smaller
/// reproduction if it fails the *same way*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckFailKind {
    /// `parse(display(ast)) != ast` — a front-end printing/parsing bug.
    RoundTrip,
    /// The generated query did not compile — a generator bug.
    Compile,
    /// [`ma_executor::verify()`] rejected a lowered configuration.
    Verify,
    /// A configuration failed at runtime.
    Exec,
    /// Two configurations disagreed on the result.
    Divergence,
    /// A materialized result escaped the abstract interpreter's derived
    /// facts — a value outside its interval, more rows than the bound,
    /// more distinct values than the NDV cap, or a duplicate in a
    /// proven-distinct column. Always an analyzer bug: bounds may widen,
    /// never lie.
    Unsound,
    /// An operator's recorded high-water resident bytes exceeded the
    /// planner's proven peak-byte bound for that instance — a cost-model
    /// bug (`ma_executor::cost`): byte bounds may overshoot, never
    /// undershoot.
    MemBound,
}

/// A failed differential check.
#[derive(Debug, Clone)]
pub struct CheckFail {
    /// Failure class.
    pub kind: CheckFailKind,
    /// Human-readable detail (config names, diverging values, ...).
    pub detail: String,
}

impl std::fmt::Display for CheckFail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.kind, self.detail)
    }
}

/// One failing case of a fuzzing run, with its shrunk reproduction.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Case index within the run.
    pub case: u64,
    /// Run seed (the query regenerates from `(seed, case)`).
    pub seed: u64,
    /// The generated query text.
    pub query: String,
    /// The smallest query that still fails the same way.
    pub minimized: String,
    /// What diverged.
    pub detail: String,
}

/// Summary of a fuzzing run.
#[derive(Debug)]
pub struct FuzzReport {
    /// Run seed.
    pub seed: u64,
    /// Cases executed.
    pub cases: u64,
    /// Failing cases (empty on a clean sweep).
    pub failures: Vec<Failure>,
}

impl FuzzReport {
    /// True when every case passed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

// ---------------------------------------------------------------------------
// the fuzzer
// ---------------------------------------------------------------------------

/// Differential fuzzer over a generated TPC-H database.
pub struct Fuzzer {
    db: Arc<TpchData>,
    raw_db: Arc<TpchData>,
    dict: Arc<PrimitiveDictionary>,
    configs: Vec<(String, ExecConfig, Storage)>,
}

impl Fuzzer {
    /// A fuzzer over `db` using the full [`storage_matrix`]. The raw
    /// storage twin is derived from `db` by decoding every column, so
    /// both storage modes hold identical values by construction.
    pub fn new(db: Arc<TpchData>) -> Self {
        let raw_db = Arc::new(db.decode_all());
        Fuzzer {
            db,
            raw_db,
            dict: Arc::new(build_dictionary()),
            configs: storage_matrix(),
        }
    }

    /// The generated query for `(seed, case)` — pure function of its
    /// arguments and the database schema.
    pub fn generate(&self, seed: u64, case: u64) -> Query {
        let mut g = Gen {
            db: &self.db,
            rng: SplitMix64::new(seed ^ case.wrapping_mul(0xA24B_AED4_963E_E407)),
            fresh: 0,
        };
        g.query()
    }

    /// Compiles and runs `ast` under one configuration against the
    /// chosen storage mode.
    fn run_one(
        &self,
        ast: &Query,
        cfg: &ExecConfig,
        storage: Storage,
    ) -> Result<FrozenStore, CheckFail> {
        let db = match storage {
            Storage::Encoded => &self.db,
            Storage::Raw => &self.raw_db,
        };
        let pb = frontend::compile(ast, db.as_ref()).map_err(|e| CheckFail {
            kind: CheckFailKind::Compile,
            detail: e.to_string(),
        })?;
        let plan = pb.build().map_err(|e| CheckFail {
            kind: CheckFailKind::Compile,
            detail: e.to_string(),
        })?;
        // Release builds skip the debug-assertion verifier inside
        // `lower`; the fuzzer checks every configuration explicitly.
        verify(&plan, cfg).map_err(|e| CheckFail {
            kind: CheckFailKind::Verify,
            detail: e.to_string(),
        })?;
        let ctx = QueryContext::new(Arc::clone(&self.dict), cfg.clone());
        let mut op = lower(&plan, &ctx).map_err(|e| CheckFail {
            kind: CheckFailKind::Exec,
            detail: e.to_string(),
        })?;
        let store = ma_executor::ops::materialize(op.as_mut()).map_err(|e| CheckFail {
            kind: CheckFailKind::Exec,
            detail: e.to_string(),
        })?;
        // Soundness property: the materialized result must sit inside the
        // abstract interpreter's derived facts for this plan.
        check_soundness(&ma_executor::analyze(&plan).facts, &store).map_err(|detail| {
            CheckFail {
                kind: CheckFailKind::Unsound,
                detail,
            }
        })?;
        // Byte-accounting oracle: every tracked operator instance must
        // stay within the peak-byte bound the planner proved for it.
        for r in ctx.mem_reports() {
            if r.high_water > r.bound {
                return Err(CheckFail {
                    kind: CheckFailKind::MemBound,
                    detail: format!(
                        "{}: recorded {} resident bytes, proved \u{2264} {}",
                        r.label, r.high_water, r.bound
                    ),
                });
            }
        }
        Ok(store)
    }

    /// The full differential check for one query: round-trip, compile,
    /// verify and execute under every configuration, compare everything
    /// against the first configuration's result.
    pub fn check_ast(&self, ast: &Query) -> Result<(), CheckFail> {
        let text = ast.to_string();
        match parse(&text) {
            Ok(reparsed) if &reparsed == ast => {}
            Ok(_) => {
                return Err(CheckFail {
                    kind: CheckFailKind::RoundTrip,
                    detail: format!("reparse produced a different AST for {text:?}"),
                })
            }
            Err(e) => {
                return Err(CheckFail {
                    kind: CheckFailKind::RoundTrip,
                    detail: format!("canonical text does not reparse: {e} in {text:?}"),
                })
            }
        }
        let (ref_name, ref_cfg, ref_storage) = &self.configs[0];
        let reference = self.run_one(ast, ref_cfg, *ref_storage)?;
        for (name, cfg, storage) in &self.configs[1..] {
            let got = self.run_one(ast, cfg, *storage)?;
            compare_stores(ref_name, &reference, name, &got).map_err(|detail| CheckFail {
                kind: CheckFailKind::Divergence,
                detail,
            })?;
        }
        Ok(())
    }

    /// Parses and differentially checks query text (the entry point for
    /// pinned regressions).
    pub fn check_text(&self, text: &str) -> Result<(), CheckFail> {
        let ast = parse(text).map_err(|e| CheckFail {
            kind: CheckFailKind::Compile,
            detail: e.to_string(),
        })?;
        // Skip the round-trip comparison against hand-written text (it
        // may use non-canonical spellings); everything else applies.
        let (ref_name, ref_cfg, ref_storage) = &self.configs[0];
        let reference = self.run_one(&ast, ref_cfg, *ref_storage)?;
        for (name, cfg, storage) in &self.configs[1..] {
            let got = self.run_one(&ast, cfg, *storage)?;
            compare_stores(ref_name, &reference, name, &got).map_err(|detail| CheckFail {
                kind: CheckFailKind::Divergence,
                detail,
            })?;
        }
        Ok(())
    }

    /// Structurally shrinks a failing query: repeatedly tries dropping a
    /// stage, a predicate branch, a projection/aggregate/payload item or
    /// a scan column, keeping any candidate that still fails with the
    /// same [`CheckFailKind`]. Fixpoint iteration; every accepted step
    /// strictly removes a node, so it terminates.
    pub fn shrink(&self, ast: &Query, kind: &CheckFailKind) -> Query {
        let mut cur = ast.clone();
        loop {
            let mut progressed = false;
            for cand in shrink_candidates(&cur) {
                if matches!(&self.check_ast(&cand), Err(f) if f.kind == *kind) {
                    cur = cand;
                    progressed = true;
                    break;
                }
            }
            if !progressed {
                return cur;
            }
        }
    }

    /// Runs `cases` differential checks from `seed`, shrinking every
    /// failure. `progress(done, failures)` is called after each case.
    pub fn run(&self, seed: u64, cases: u64, mut progress: impl FnMut(u64, usize)) -> FuzzReport {
        let mut failures = Vec::new();
        for case in 0..cases {
            let ast = self.generate(seed, case);
            if let Err(fail) = self.check_ast(&ast) {
                let minimized = self.shrink(&ast, &fail.kind);
                failures.push(Failure {
                    case,
                    seed,
                    query: ast.to_string(),
                    minimized: minimized.to_string(),
                    detail: fail.to_string(),
                });
            }
            progress(case + 1, failures.len());
        }
        FuzzReport {
            seed,
            cases,
            failures,
        }
    }
}

// ---------------------------------------------------------------------------
// shrinking
// ---------------------------------------------------------------------------

/// All single-step simplifications of `q`, most aggressive first.
/// Candidates may fail to compile (a dropped stage can orphan a column
/// reference); the shrinker filters by re-checking.
fn shrink_candidates(q: &Query) -> Vec<Query> {
    let mut out = Vec::new();
    // Drop whole stages, last first (later stages depend on earlier
    // names, so suffix-dropping compiles most often).
    for i in (0..q.stages.len()).rev() {
        let mut c = q.clone();
        c.stages.remove(i);
        out.push(c);
    }
    for (i, st) in q.stages.iter().enumerate() {
        let mut replace = |stage: Stage| {
            let mut c = q.clone();
            c.stages[i] = stage;
            out.push(c);
        };
        match st {
            Stage::Where(Pred::And(ps) | Pred::Or(ps), _) => {
                for p in ps {
                    replace(Stage::Where(p.clone(), LeafSpans::default()));
                }
            }
            Stage::Select(items) if items.len() > 1 => {
                for k in 0..items.len() {
                    let mut it = items.clone();
                    it.remove(k);
                    replace(Stage::Select(it));
                }
            }
            Stage::Agg { keys, aggs, .. } => {
                for k in 0..keys.len() {
                    let mut ks = keys.clone();
                    ks.remove(k);
                    replace(Stage::Agg {
                        keys: ks,
                        aggs: aggs.clone(),
                        spans: LeafSpans::default(),
                    });
                }
                if aggs.len() > 1 {
                    for k in 0..aggs.len() {
                        let mut ags = aggs.clone();
                        ags.remove(k);
                        replace(Stage::Agg {
                            keys: keys.clone(),
                            aggs: ags,
                            spans: LeafSpans::default(),
                        });
                    }
                }
            }
            Stage::Join {
                kind,
                query,
                on,
                payload,
                bloom,
            } => {
                for k in 0..payload.len() {
                    let mut ps = payload.clone();
                    ps.remove(k);
                    replace(Stage::Join {
                        kind: *kind,
                        query: query.clone(),
                        on: on.clone(),
                        payload: ps,
                        bloom: *bloom,
                    });
                }
                if *bloom {
                    replace(Stage::Join {
                        kind: *kind,
                        query: query.clone(),
                        on: on.clone(),
                        payload: payload.clone(),
                        bloom: false,
                    });
                }
                for sub in shrink_candidates(query) {
                    replace(Stage::Join {
                        kind: *kind,
                        query: Box::new(sub),
                        on: on.clone(),
                        payload: payload.clone(),
                        bloom: *bloom,
                    });
                }
            }
            Stage::JoinSingle { query, on, payload } => {
                if payload.len() > 1 {
                    for k in 0..payload.len() {
                        let mut ps = payload.clone();
                        ps.remove(k);
                        replace(Stage::JoinSingle {
                            query: query.clone(),
                            on: on.clone(),
                            payload: ps,
                        });
                    }
                }
                for sub in shrink_candidates(query) {
                    replace(Stage::JoinSingle {
                        query: Box::new(sub),
                        on: on.clone(),
                        payload: payload.clone(),
                    });
                }
            }
            Stage::MergeJoin { query, on, payload } => {
                for k in 0..payload.len() {
                    let mut ps = payload.clone();
                    ps.remove(k);
                    replace(Stage::MergeJoin {
                        query: query.clone(),
                        on: on.clone(),
                        payload: ps,
                    });
                }
                for sub in shrink_candidates(query) {
                    replace(Stage::MergeJoin {
                        query: Box::new(sub),
                        on: on.clone(),
                        payload: payload.clone(),
                    });
                }
            }
            Stage::Sort { limit, keys, .. } if keys.len() > 1 => {
                for k in 0..keys.len() {
                    let mut ks = keys.clone();
                    ks.remove(k);
                    replace(Stage::Sort {
                        limit: *limit,
                        keys: ks,
                        spans: LeafSpans::default(),
                    });
                }
            }
            _ => {}
        }
    }
    if q.cols.len() > 1 {
        for i in (0..q.cols.len()).rev() {
            let mut c = q.clone();
            c.cols.remove(i);
            out.push(c);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// query generation
// ---------------------------------------------------------------------------

/// Tables whose first column is a unique (primary) key — the only legal
/// build sides for `join single` and left sides for `merge join`, whose
/// semantics are arrival-order-dependent under duplicate keys.
const PK_TABLES: [&str; 6] = ["region", "nation", "supplier", "customer", "part", "orders"];

/// Small tables safe as build sides for *randomly*-keyed hash joins
/// (bounded duplicate fan-out keeps worst-case output ≈ 5 × probe).
const SMALL_TABLES: [&str; 3] = ["region", "nation", "supplier"];

/// Source-table choices, weighted toward mid-size tables so debug-mode
/// sweeps stay fast while big scans still appear.
const SOURCES: [(&str, usize); 8] = [
    ("region", 1),
    ("nation", 2),
    ("supplier", 3),
    ("customer", 3),
    ("part", 3),
    ("partsupp", 3),
    ("orders", 3),
    ("lineitem", 4),
];

fn is_int(ty: DataType) -> bool {
    matches!(ty, DataType::I16 | DataType::I32 | DataType::I64)
}

/// One column of the schema the generator is tracking through the
/// pipeline, mirroring exactly what the builder will compute.
#[derive(Clone)]
struct GenCol {
    name: String,
    ty: DataType,
    /// Still the base table's clustering (first) column, reached only
    /// through filters and pass-through projections — mirrors the
    /// builder's `clustered_key_chain`, which gates merge joins.
    clustered: bool,
    /// Untransformed base column `(table, column)` — its domain is the
    /// column's actual data, which is where comparison literals are
    /// sampled from so predicates have useful selectivity.
    base: Option<(&'static str, String)>,
}

struct Gen<'a> {
    db: &'a TpchData,
    rng: SplitMix64,
    /// Fresh-name counter (`e0`, `a1`, `j2`, ... one namespace).
    fresh: usize,
}

impl Gen<'_> {
    fn fresh(&mut self, prefix: &str) -> String {
        let n = format!("{prefix}{}", self.fresh);
        self.fresh += 1;
        n
    }

    fn chance(&mut self, p: f64) -> bool {
        self.rng.next_f64() < p
    }

    /// `min..=max` inclusive.
    fn range(&mut self, min: usize, max: usize) -> usize {
        min + self.rng.gen_range(max - min + 1)
    }

    /// A distinct index subset of `0..n`, in ascending order.
    fn subset(&mut self, n: usize, min: usize, max: usize) -> Vec<usize> {
        let k = self.range(min.min(n), max.min(n));
        let mut idx: Vec<usize> = (0..n).collect();
        for i in (1..idx.len()).rev() {
            idx.swap(i, self.rng.gen_range(i + 1));
        }
        idx.truncate(k.max(1));
        idx.sort_unstable();
        idx
    }

    /// A literal sampled from the column's actual data (a random row),
    /// so predicates hit real values.
    fn sample_lit(&mut self, table: &str, col: &str) -> Value {
        let t = self.db.table(table).expect("generator table");
        let c = t.column(col).expect("generator column");
        let r = self.rng.gen_range(t.rows());
        match c.slice_vector(r, 1) {
            Vector::I16(v) => Value::I64(v[0] as i64),
            Vector::I32(v) => Value::I64(v[0] as i64),
            Vector::I64(v) => Value::I64(v[0]),
            Vector::F64(v) => Value::F64(v[0]),
            Vector::Str(s) => Value::Str(s.get(0).to_string()),
        }
    }

    /// The tracked schema of a fresh scan of `table`'s columns `idx`.
    fn scan_cols(&self, table: &'static str, idx: &[usize]) -> Vec<GenCol> {
        let t = self.db.table(table).expect("generator table");
        idx.iter()
            .map(|&i| GenCol {
                name: t.column_names()[i].clone(),
                ty: t.column_at(i).data_type(),
                clustered: i == 0,
                base: Some((table, t.column_names()[i].clone())),
            })
            .collect()
    }

    /// Weighted source-table pick.
    fn source_table(&mut self) -> &'static str {
        let total: usize = SOURCES.iter().map(|(_, w)| w).sum();
        let mut roll = self.rng.gen_range(total);
        for (name, w) in SOURCES {
            if roll < w {
                return name;
            }
            roll -= w;
        }
        unreachable!("weights cover the roll")
    }

    // -- toplevel ----------------------------------------------------------

    fn query(&mut self) -> Query {
        let table = self.source_table();
        let t = self.db.table(table).expect("generator table");
        let idx = self.subset(t.column_names().len(), 2, 6);
        let mut cols = self.scan_cols(table, &idx);
        let mut q = Query {
            table: Ident::synth(table),
            cols: idx
                .iter()
                .map(|&i| ColSpec::synth(&t.column_names()[i]))
                .collect(),
            stages: Vec::new(),
        };
        let mut joins = 0usize;
        for _ in 0..self.range(1, 4) {
            if let Some(stage) = self.stage(&mut cols, &mut joins) {
                q.stages.push(stage);
            }
        }
        q
    }

    /// One random stage valid against the tracked schema, updating the
    /// schema to the stage's output. `None` when the roll found no
    /// applicable stage (e.g. a join after the join budget is spent).
    fn stage(&mut self, cols: &mut Vec<GenCol>, joins: &mut usize) -> Option<Stage> {
        // (weight, kind) pairs; kinds guard their own applicability.
        let has_pred = cols.iter().any(|c| c.base.is_some()) || self.col_pair(cols).is_some();
        let has_num = cols.iter().any(|c| c.ty != DataType::Str);
        let has_int = cols.iter().any(|c| is_int(c.ty));
        let has_clustered_int = cols.iter().any(|c| c.clustered && is_int(c.ty));
        let no_floats = cols.iter().all(|c| c.ty != DataType::F64);
        let mut picks: Vec<(usize, u8)> = Vec::new();
        if has_pred {
            picks.push((4, 0)); // where
        }
        if has_num {
            picks.push((3, 1)); // select
        }
        picks.push((1, 2)); // keep
        picks.push((3, 3)); // agg
        if has_int && *joins < 2 {
            picks.push((3, 4)); // hash join
            picks.push((1, 5)); // single join
        }
        if has_clustered_int && *joins < 2 {
            picks.push((2, 6)); // merge join
        }
        picks.push((1, 7)); // order
        if no_floats {
            picks.push((1, 8)); // top
        }
        let total: usize = picks.iter().map(|(w, _)| w).sum();
        let mut roll = self.rng.gen_range(total);
        let kind = picks
            .iter()
            .find(|(w, _)| {
                if roll < *w {
                    true
                } else {
                    roll -= w;
                    false
                }
            })
            .map(|(_, k)| *k)
            .expect("weights cover the roll");
        match kind {
            0 => Some(Stage::Where(self.pred(cols), LeafSpans::default())),
            1 => Some(self.select(cols)),
            2 => Some(self.keep(cols)),
            3 => Some(self.agg(cols)),
            4 => {
                *joins += 1;
                self.hash_join(cols)
            }
            5 => {
                *joins += 1;
                self.single_join(cols)
            }
            6 => {
                *joins += 1;
                self.merge_join(cols)
            }
            7 => Some(self.order(cols)),
            _ => Some(self.top(cols)),
        }
    }

    // -- predicates --------------------------------------------------------

    /// Two distinct same-type non-string columns, if any.
    fn col_pair(&self, cols: &[GenCol]) -> Option<(usize, usize)> {
        for i in 0..cols.len() {
            for j in 0..cols.len() {
                if i != j && cols[i].ty == cols[j].ty && cols[i].ty != DataType::Str {
                    return Some((i, j));
                }
            }
        }
        None
    }

    fn pred(&mut self, cols: &[GenCol]) -> NamedPred {
        match self.rng.gen_range(10) {
            0..=5 => self.atom(cols),
            6 | 7 => Pred::And(vec![self.atom(cols), self.atom(cols)]),
            8 => Pred::Or(vec![self.atom(cols), self.atom(cols)]),
            _ => Pred::And(vec![
                self.atom(cols),
                Pred::Or(vec![self.atom(cols), self.atom(cols)]),
            ]),
        }
    }

    fn atom(&mut self, cols: &[GenCol]) -> NamedPred {
        // Column-vs-column comparison ~20% of the time when possible.
        if self.chance(0.2) {
            if let Some((i, j)) = self.col_pair(cols) {
                return Pred::cmp_col(&cols[i].name, self.cmp_op(), &cols[j].name);
            }
        }
        let based: Vec<&GenCol> = cols.iter().filter(|c| c.base.is_some()).collect();
        if based.is_empty() {
            // No base column to sample from: compare a numeric column
            // against a small safe constant (selectivity is arbitrary
            // but the query stays well-typed).
            let nums: Vec<&GenCol> = cols.iter().filter(|c| c.ty != DataType::Str).collect();
            let c = nums[self.rng.gen_range(nums.len())];
            let lit = match c.ty {
                DataType::F64 => Value::F64([0.0, 1.0, 100.0][self.rng.gen_range(3)]),
                _ => Value::I64([0, 1, 7, 100][self.rng.gen_range(4)]),
            };
            return Pred::cmp_val(&c.name, self.cmp_op(), lit);
        }
        let c = based[self.rng.gen_range(based.len())].clone();
        let (table, src) = c.base.as_ref().expect("filtered to based");
        let lit = self.sample_lit(table, src);
        if c.ty == DataType::Str {
            let Value::Str(s) = &lit else {
                unreachable!("string column samples a string")
            };
            match self.rng.gen_range(4) {
                0 => Pred::Like {
                    col: c.name.clone(),
                    pattern: format!("{}%", s.chars().take(3).collect::<String>()),
                    negated: self.chance(0.3),
                },
                1 => {
                    let extra = self.sample_lit(table, src);
                    let Value::Str(s2) = extra else {
                        unreachable!("string column samples a string")
                    };
                    Pred::in_str(&c.name, [s.clone(), s2])
                }
                _ => {
                    let op = if self.chance(0.5) {
                        CmpKind::Eq
                    } else {
                        CmpKind::Ne
                    };
                    Pred::cmp_val(&c.name, op, lit)
                }
            }
        } else {
            Pred::cmp_val(&c.name, self.cmp_op(), lit)
        }
    }

    fn cmp_op(&mut self) -> CmpKind {
        [
            CmpKind::Lt,
            CmpKind::Le,
            CmpKind::Gt,
            CmpKind::Ge,
            CmpKind::Eq,
            CmpKind::Ne,
        ][self.rng.gen_range(6)]
    }

    // -- projections -------------------------------------------------------

    fn select(&mut self, cols: &mut Vec<GenCol>) -> Stage {
        let pass_idx = self.subset(cols.len(), 1, 3);
        let mut items: Vec<SelectItem> = pass_idx
            .iter()
            .map(|&i| SelectItem {
                name: Ident::synth(&cols[i].name),
                expr: col(&cols[i].name),
                spans: LeafSpans::default(),
            })
            .collect();
        let mut out: Vec<GenCol> = pass_idx.iter().map(|&i| cols[i].clone()).collect();
        let nums: Vec<GenCol> = cols
            .iter()
            .filter(|c| c.ty != DataType::Str)
            .cloned()
            .collect();
        let strs: Vec<GenCol> = cols
            .iter()
            .filter(|c| c.ty == DataType::Str)
            .cloned()
            .collect();
        for _ in 0..self.range(1, 2) {
            if !strs.is_empty() && self.chance(0.25) {
                let c = &strs[self.rng.gen_range(strs.len())];
                let name = self.fresh("e");
                items.push(SelectItem {
                    name: Ident::synth(&name),
                    expr: substr(&c.name, self.rng.gen_range(4), 1 + self.rng.gen_range(6)),
                    spans: LeafSpans::default(),
                });
                out.push(GenCol {
                    name,
                    ty: DataType::Str,
                    clustered: false,
                    base: None,
                });
            } else if !nums.is_empty() {
                let c = nums[self.rng.gen_range(nums.len())].clone();
                let name = self.fresh("e");
                let (expr, ty) = self.num_expr(&c, &nums);
                items.push(SelectItem {
                    name: Ident::synth(&name),
                    expr,
                    spans: LeafSpans::default(),
                });
                out.push(GenCol {
                    name,
                    ty,
                    clustered: false,
                    base: None,
                });
            }
        }
        *cols = out;
        Stage::Select(items)
    }

    /// A small arithmetic expression rooted at `c`. Integer inputs are
    /// widened to `i64` first (no narrow-width overflow), multipliers
    /// stay small, division is by a nonzero literal only (no NaN, no
    /// divide-by-zero trap) — divergences should come from the engine,
    /// not from undefined arithmetic.
    fn num_expr(&mut self, c: &GenCol, nums: &[GenCol]) -> (NamedExpr, DataType) {
        let base = col(&c.name);
        let (mut expr, ty) = match c.ty {
            DataType::I64 => (base, DataType::I64),
            DataType::I16 | DataType::I32 => (base.cast(DataType::I64), DataType::I64),
            _ => (base, DataType::F64),
        };
        for _ in 0..self.range(1, 2) {
            let (op, rhs) = self.arith_rhs(ty, nums);
            expr = Expr::Arith {
                op,
                lhs: Box::new(expr),
                rhs: Box::new(rhs),
            };
        }
        // Cast the finished integer expression to f64 sometimes, for
        // float pipeline coverage downstream.
        if ty == DataType::I64 && self.chance(0.25) {
            (expr.cast(DataType::F64), DataType::F64)
        } else {
            (expr, ty)
        }
    }

    fn arith_rhs(&mut self, ty: DataType, nums: &[GenCol]) -> (ArithKind, NamedExpr) {
        // Column rhs (same evaluated type) ~25% of the time; only for
        // add/sub so products cannot overflow i64.
        if self.chance(0.25) {
            let same: Vec<&GenCol> = nums
                .iter()
                .filter(|c| {
                    if ty == DataType::F64 {
                        c.ty == DataType::F64
                    } else {
                        is_int(c.ty)
                    }
                })
                .collect();
            if !same.is_empty() {
                let c = same[self.rng.gen_range(same.len())];
                let op = if self.chance(0.5) {
                    ArithKind::Add
                } else {
                    ArithKind::Sub
                };
                let rhs = if ty == DataType::I64 && c.ty != DataType::I64 {
                    col(&c.name).cast(DataType::I64)
                } else {
                    col(&c.name)
                };
                return (op, rhs);
            }
        }
        if ty == DataType::F64 {
            match self.rng.gen_range(4) {
                0 => (ArithKind::Add, lit_f64(1.5)),
                1 => (ArithKind::Sub, lit_f64(100.0)),
                2 => (ArithKind::Mul, lit_f64(0.01)),
                _ => (ArithKind::Div, lit_f64(4.0)),
            }
        } else {
            match self.rng.gen_range(4) {
                0 => (ArithKind::Add, lit_i64(1 + self.rng.gen_range(1000) as i64)),
                1 => (ArithKind::Sub, lit_i64(1 + self.rng.gen_range(1000) as i64)),
                2 => (ArithKind::Mul, lit_i64(self.rng.gen_range(9) as i64)),
                _ => (ArithKind::Div, lit_i64(1 + self.rng.gen_range(9) as i64)),
            }
        }
    }

    fn keep(&mut self, cols: &mut Vec<GenCol>) -> Stage {
        let idx = self.subset(cols.len(), 1, cols.len());
        let kept: Vec<GenCol> = idx.iter().map(|&i| cols[i].clone()).collect();
        let stage = Stage::Keep(kept.iter().map(|c| ColSpec::synth(&c.name)).collect());
        *cols = kept;
        stage
    }

    // -- aggregation -------------------------------------------------------

    fn agg(&mut self, cols: &mut Vec<GenCol>) -> Stage {
        let key_pool: Vec<usize> = (0..cols.len())
            .filter(|&i| cols[i].ty != DataType::F64)
            .collect();
        let n_keys = if key_pool.is_empty() {
            0
        } else {
            self.rng.gen_range(3).min(key_pool.len())
        };
        let keys_idx = if n_keys == 0 {
            Vec::new()
        } else {
            let mut pool = key_pool.clone();
            for i in (1..pool.len()).rev() {
                pool.swap(i, self.rng.gen_range(i + 1));
            }
            pool.truncate(n_keys);
            pool.sort_unstable();
            pool
        };
        // sum/min/max run on i64/f64 only (the DSL requires casting
        // anything narrower first).
        let agg_pool: Vec<usize> = (0..cols.len())
            .filter(|&i| matches!(cols[i].ty, DataType::I64 | DataType::F64))
            .collect();
        let mut aggs = Vec::new();
        let mut out: Vec<GenCol> = keys_idx
            .iter()
            .map(|&i| GenCol {
                clustered: false,
                ..cols[i].clone()
            })
            .collect();
        for _ in 0..self.range(1, 3) {
            if agg_pool.is_empty() || self.chance(0.3) {
                let name = self.fresh("a");
                aggs.push(Agg::count().named(&name));
                out.push(GenCol {
                    name,
                    ty: DataType::I64,
                    clustered: false,
                    base: None,
                });
            } else {
                let i = agg_pool[self.rng.gen_range(agg_pool.len())];
                let func = [AggFunc::Sum, AggFunc::Min, AggFunc::Max][self.rng.gen_range(3)];
                let name = self.fresh("a");
                // As the parser would: the compiler picks the element type.
                aggs.push(Agg {
                    of: Some((func, NumType::I64, cols[i].name.clone())),
                    name: Some(name.clone()),
                });
                out.push(GenCol {
                    name,
                    ty: cols[i].ty,
                    clustered: false,
                    base: None,
                });
            }
        }
        let stage = Stage::Agg {
            keys: keys_idx
                .iter()
                .map(|&i| ColSpec::synth(&cols[i].name))
                .collect(),
            aggs,
            spans: LeafSpans::default(),
        };
        *cols = out;
        stage
    }

    // -- joins -------------------------------------------------------------

    /// A simple build/left-side subquery: scan of `table` keeping `key`
    /// plus up to two payload candidates, with an optional sampled
    /// filter. No joins or aggregates inside — depth stays bounded and
    /// clustering/uniqueness of the first column is preserved.
    fn side_query(
        &mut self,
        table: &'static str,
        key: &str,
        with_filter: bool,
    ) -> (Query, Vec<GenCol>) {
        let t = self.db.table(table).expect("generator table");
        let names = t.column_names();
        let key_idx = names.iter().position(|n| n == key).expect("key exists");
        let mut idx = vec![key_idx];
        for &i in &self.subset(names.len(), 0, 2) {
            if !idx.contains(&i) {
                idx.push(i);
            }
        }
        idx.sort_unstable();
        let cols = self.scan_cols(table, &idx);
        let mut q = Query {
            table: Ident::synth(table),
            cols: idx.iter().map(|&i| ColSpec::synth(&names[i])).collect(),
            stages: Vec::new(),
        };
        if with_filter && self.chance(0.4) {
            q.stages
                .push(Stage::Where(self.atom(&cols), LeafSpans::default()));
        }
        (q, cols)
    }

    /// `(probe_col, build_table)` pairs where the probe column's name
    /// suffix matches a PK table's primary key (`..._partkey` → `part`):
    /// joins along real foreign keys, with unique build keys bounding
    /// the fan-out.
    fn semantic_pairs(&self, cols: &[GenCol]) -> Vec<(usize, &'static str)> {
        let mut out = Vec::new();
        for (i, c) in cols.iter().enumerate() {
            if !is_int(c.ty) {
                continue;
            }
            let Some(suffix) = c.name.split('_').nth(1) else {
                continue;
            };
            for table in PK_TABLES {
                let t = self.db.table(table).expect("generator table");
                let pk = &t.column_names()[0];
                if pk.split('_').nth(1) == Some(suffix) {
                    out.push((i, table));
                }
            }
        }
        out
    }

    fn hash_join(&mut self, cols: &mut Vec<GenCol>) -> Option<Stage> {
        let semantic = self.semantic_pairs(cols);
        let (probe_i, table, build_key) = if !semantic.is_empty() && self.chance(0.7) {
            let (i, table) = semantic[self.rng.gen_range(semantic.len())];
            let pk = self
                .db
                .table(table)
                .expect("generator table")
                .column_names()[0]
                .clone();
            (i, table, pk)
        } else {
            // Random pairing: small build tables only, so duplicate
            // build keys cannot blow up the output.
            let ints: Vec<usize> = (0..cols.len()).filter(|&i| is_int(cols[i].ty)).collect();
            if ints.is_empty() {
                return None;
            }
            let i = ints[self.rng.gen_range(ints.len())];
            let table = SMALL_TABLES[self.rng.gen_range(SMALL_TABLES.len())];
            let t = self.db.table(table).expect("generator table");
            let int_cols: Vec<String> = t
                .column_names()
                .iter()
                .enumerate()
                .filter(|(c, _)| is_int(t.column_at(*c).data_type()))
                .map(|(_, n)| n.clone())
                .collect();
            (
                i,
                table,
                int_cols[self.rng.gen_range(int_cols.len())].clone(),
            )
        };
        let (build_q, build_cols) = self.side_query(table, &build_key, true);
        let kind = match self.rng.gen_range(4) {
            0 | 1 => JoinKindAst::Inner,
            2 => JoinKindAst::Semi,
            _ => JoinKindAst::Anti,
        };
        let mut payload = Vec::new();
        if kind == JoinKindAst::Inner {
            for c in &build_cols {
                if c.name != build_key && payload.len() < 2 && self.chance(0.6) {
                    let alias = self.fresh("j");
                    payload.push(ColSpec::synth_as(&c.name, &alias));
                    cols.push(GenCol {
                        name: alias,
                        ty: c.ty,
                        clustered: false,
                        base: c.base.clone(),
                    });
                }
            }
        }
        for c in cols.iter_mut() {
            c.clustered = false;
        }
        Some(Stage::Join {
            kind,
            query: Box::new(build_q),
            on: vec![(Ident::synth(&cols[probe_i].name), Ident::synth(&build_key))],
            payload,
            bloom: self.chance(0.4),
        })
    }

    fn single_join(&mut self, cols: &mut Vec<GenCol>) -> Option<Stage> {
        // `join single` takes the first hash-chain match for duplicate
        // build keys — arrival-order dependent, so the contract demands
        // unique build keys: PK tables joined on their primary key.
        let ints: Vec<usize> = (0..cols.len()).filter(|&i| is_int(cols[i].ty)).collect();
        if ints.is_empty() {
            return None;
        }
        let semantic = self.semantic_pairs(cols);
        let (probe_i, table) = if !semantic.is_empty() && self.chance(0.7) {
            semantic[self.rng.gen_range(semantic.len())]
        } else {
            (
                ints[self.rng.gen_range(ints.len())],
                PK_TABLES[self.rng.gen_range(PK_TABLES.len())],
            )
        };
        let pk = self
            .db
            .table(table)
            .expect("generator table")
            .column_names()[0]
            .clone();
        let (build_q, build_cols) = self.side_query(table, &pk, true);
        let mut payload = Vec::new();
        for c in &build_cols {
            if c.name != pk && c.ty != DataType::Str && payload.len() < 2 {
                let alias = self.fresh("j");
                let default = match c.ty {
                    DataType::F64 => Value::F64(-1.0),
                    _ => Value::I64(-1),
                };
                payload.push((ColSpec::synth_as(&c.name, &alias), default));
                cols.push(GenCol {
                    name: alias,
                    ty: c.ty,
                    clustered: false,
                    // Unmatched probes get the default, which is not in
                    // the base column's domain: drop the base link.
                    base: None,
                });
            }
        }
        // Any hash join (even the payload-free semi fallback below)
        // breaks the builder's clustered-key chain: a later merge join
        // must not treat surviving columns as scan-ordered. Found by the
        // fuzzer itself (seed 0xF022 case 820, pinned in
        // tests/fuzz_regressions.rs).
        for c in cols.iter_mut() {
            c.clustered = false;
        }
        if payload.is_empty() {
            // Every non-key build column was a string; fall back to a
            // semi-join-shaped single join with no payload — legal but
            // uninteresting, so just retry as a plain existence filter.
            return Some(Stage::Join {
                kind: JoinKindAst::Semi,
                query: Box::new(build_q),
                on: vec![(Ident::synth(&cols[probe_i].name), Ident::synth(&pk))],
                payload: Vec::new(),
                bloom: false,
            });
        }
        Some(Stage::JoinSingle {
            query: Box::new(build_q),
            on: vec![(Ident::synth(&cols[probe_i].name), Ident::synth(&pk))],
            payload,
        })
    }

    fn merge_join(&mut self, cols: &mut Vec<GenCol>) -> Option<Stage> {
        // Right key: a clustered integer column (mirrors the builder's
        // `clustered_key_chain` gate). Left side: a PK table scanned on
        // its unique, sorted first column.
        let right_i = (0..cols.len()).find(|&i| cols[i].clustered && is_int(cols[i].ty))?;
        let semantic = self.semantic_pairs(cols);
        let table = match semantic.iter().find(|(i, _)| *i == right_i) {
            Some((_, t)) if self.chance(0.8) => *t,
            _ => PK_TABLES[self.rng.gen_range(PK_TABLES.len())],
        };
        let pk = self
            .db
            .table(table)
            .expect("generator table")
            .column_names()[0]
            .clone();
        // A filter on the left side keeps its sort order, so it stays a
        // legal merge input.
        let (left_q, left_cols) = self.side_query(table, &pk, true);
        let mut payload = Vec::new();
        for c in &left_cols {
            if c.name != pk && payload.len() < 2 && self.chance(0.6) {
                let alias = self.fresh("m");
                payload.push(ColSpec::synth_as(&c.name, &alias));
                cols.push(GenCol {
                    name: alias,
                    ty: c.ty,
                    clustered: false,
                    base: c.base.clone(),
                });
            }
        }
        let on = (Ident::synth(&cols[right_i].name), Ident::synth(&pk));
        for c in cols.iter_mut() {
            c.clustered = false;
        }
        Some(Stage::MergeJoin {
            query: Box::new(left_q),
            on,
            payload,
        })
    }

    // -- ordering ----------------------------------------------------------

    fn order(&mut self, cols: &mut [GenCol]) -> Stage {
        let idx = self.subset(cols.len(), 1, 2);
        self.sort_by(None, &idx, cols)
    }

    /// `top` is only generated over float-free schemas and always sorts
    /// by **every** column: a total order, so the cut line is unique and
    /// all configurations agree on which rows survive. (A partial sort
    /// key with ties at the limit is genuinely nondeterministic — a
    /// query bug, not an engine bug.)
    fn top(&mut self, cols: &mut [GenCol]) -> Stage {
        let mut idx: Vec<usize> = (0..cols.len()).collect();
        for i in (1..idx.len()).rev() {
            idx.swap(i, self.rng.gen_range(i + 1));
        }
        let n = 1 + self.rng.gen_range(100) as u64;
        self.sort_by(Some(n), &idx, cols)
    }

    /// A sort over the columns `idx`, each in a random direction.
    fn sort_by(&mut self, limit: Option<u64>, idx: &[usize], cols: &mut [GenCol]) -> Stage {
        for c in cols.iter_mut() {
            c.clustered = false;
        }
        let keys = idx.iter().map(|&i| SortKey {
            col: cols[i].name.clone(),
            desc: self.chance(0.5),
        });
        Stage::Sort {
            limit,
            keys: keys.collect(),
            spans: LeafSpans::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_db() -> Arc<TpchData> {
        Arc::new(TpchData::generate(0.002, 0xF022))
    }

    #[test]
    fn matrices_are_pinned() {
        // Twelve base configurations, the reference (one worker, single
        // aggregates: every join a plain `HashJoin`) first.
        let base = config_matrix();
        let names: Vec<&str> = base.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "1w/single/v1024",
                "1w/single/v64",
                "1w/auto/v1024",
                "1w/auto/v64",
                "2w/single/v1024",
                "2w/single/v64",
                "2w/auto/v1024",
                "2w/auto/v64",
                "4w/single/v1024",
                "4w/single/v64",
                "4w/auto/v1024",
                "4w/auto/v64",
            ]
        );
        // Plus four storage variants: the reference and the most parallel
        // planner-chosen configuration (`4w/auto/v64`), each on the
        // reference decoder and on raw storage.
        let storage = storage_matrix();
        assert_eq!(storage.len(), 16);
        let knobs = |c: &ExecConfig| (c.worker_threads, c.agg_partitions, c.vector_size);
        for (i, (name, cfg)) in base.iter().enumerate() {
            assert_eq!((&storage[i].0, storage[i].2), (name, Storage::Encoded));
            assert_eq!(knobs(&storage[i].1), knobs(cfg));
        }
        let variants: Vec<_> = storage[12..]
            .iter()
            .map(|(n, c, s)| (n.as_str(), knobs(c), c.decode, *s))
            .collect();
        let (seq, par) = ((1, 1, 1024), (4, 0, 64));
        assert_eq!(
            variants,
            [
                (
                    "seq/refdecode",
                    seq,
                    DecodeMode::Reference,
                    Storage::Encoded
                ),
                ("seq/raw", seq, DecodeMode::Primitive, Storage::Raw),
                (
                    "par/refdecode",
                    par,
                    DecodeMode::Reference,
                    Storage::Encoded
                ),
                ("par/raw", par, DecodeMode::Primitive, Storage::Raw),
            ]
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let fz = Fuzzer::new(small_db());
        for case in 0..20 {
            let a = fz.generate(7, case);
            let b = fz.generate(7, case);
            assert_eq!(a, b, "case {case} not deterministic");
            assert_eq!(a.to_string(), b.to_string());
        }
    }

    /// The generator emits the builder's own expression types; the text
    /// it produces is pinned across that swap (FNV-1a over the canonical
    /// text of seed 0xF022, cases 0..64, recorded at the last commit that
    /// generated a mirror AST).
    #[test]
    fn generated_text_is_pinned() {
        let fz = Fuzzer::new(small_db());
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut bytes = 0usize;
        for case in 0..64 {
            for b in fz.generate(0xF022, case).to_string().bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                bytes += 1;
            }
        }
        assert_eq!((h, bytes), (0x4faf_17ab_384c_c819, 15168));
    }

    #[test]
    fn generated_queries_compile_and_round_trip() {
        let fz = Fuzzer::new(small_db());
        for case in 0..60 {
            let ast = fz.generate(11, case);
            let text = ast.to_string();
            let reparsed = parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
            assert_eq!(reparsed, ast, "case {case} round-trip\n{text}");
            frontend::compile(&ast, fz.db.as_ref())
                .unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"))
                .build()
                .unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
        }
    }

    #[test]
    fn differential_smoke() {
        let fz = Fuzzer::new(small_db());
        let report = fz.run(0xD1FF, 12, |_, _| {});
        assert!(
            report.ok(),
            "divergences: {:#?}",
            report
                .failures
                .iter()
                .map(|f| format!("case {}: {} — {}", f.case, f.minimized, f.detail))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn oracle_detects_divergence() {
        // Two runs of the same query agree; a doctored store diverges.
        let fz = Fuzzer::new(small_db());
        let text = "from nation [n_nationkey, n_name] | where n_nationkey < 10";
        let ast = parse(text).unwrap();
        let a = fz.run_one(&ast, &fz.configs[0].1, fz.configs[0].2).unwrap();
        let b = fz.run_one(&ast, &fz.configs[5].1, fz.configs[5].2).unwrap();
        compare_stores("a", &a, "b", &b).unwrap();
        let ast2 = parse("from nation [n_nationkey, n_name] | where n_nationkey < 9").unwrap();
        let c = fz
            .run_one(&ast2, &fz.configs[0].1, fz.configs[0].2)
            .unwrap();
        assert!(compare_stores("a", &a, "c", &c).is_err());
    }

    #[test]
    fn shrinker_reaches_fixpoint_on_round_trip_failures() {
        // Inject a failure kind that every sub-query also exhibits
        // (Compile against a bogus column) and check shrinking floors
        // out at the scan.
        let fz = Fuzzer::new(small_db());
        let ast = parse(
            "from nation [n_nationkey, n_regionkey] \
             | where n_regionkey < 3 \
             | agg by [n_regionkey] [count as a0] \
             | order by a0",
        )
        .unwrap();
        let kind = CheckFailKind::Divergence;
        // Nothing diverges here, so shrink must return the input query.
        let min = fz.shrink(&ast, &kind);
        assert_eq!(min, ast);
    }
}
