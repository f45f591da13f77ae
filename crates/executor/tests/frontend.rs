//! Front-end suite: parser round-trips, typed error paths, and
//! end-to-end text-to-result execution over a toy catalog.
//!
//! The round-trip property proper (random queries, thousands of cases)
//! lives with the fuzzer in `ma-tpch`; this suite pins the canonical
//! rendering of every stage and expression form, and the *specific*
//! typed error each misuse produces.

use std::collections::HashMap;
use std::sync::Arc;

use ma_executor::frontend::{self, FrontendError, ParseErrorKind};
use ma_executor::plan::{lower, PlanError};
use ma_executor::{ExecConfig, QueryContext};
use ma_vector::{ColumnBuilder, DataType, Table};

fn catalog() -> HashMap<String, Arc<Table>> {
    let rows = 100;
    let mut id = ColumnBuilder::with_capacity(DataType::I64, rows);
    let mut k = ColumnBuilder::with_capacity(DataType::I32, rows);
    let mut v = ColumnBuilder::with_capacity(DataType::I64, rows);
    let mut f = ColumnBuilder::with_capacity(DataType::F64, rows);
    let mut s = ColumnBuilder::with_capacity(DataType::Str, rows);
    for i in 0..rows {
        id.push_i64(i as i64);
        k.push_i32((i % 5) as i32);
        v.push_i64((i * 10) as i64);
        f.push_f64(i as f64 * 0.5);
        s.push_str(["alpha", "beta", "gamma"][i % 3]);
    }
    let t = Arc::new(
        Table::new(
            "t",
            vec![
                ("id".into(), id.finish()),
                ("k".into(), k.finish()),
                ("v".into(), v.finish()),
                ("f".into(), f.finish()),
                ("s".into(), s.finish()),
            ],
        )
        .unwrap(),
    );
    let mut uk = ColumnBuilder::with_capacity(DataType::I64, 5);
    let mut uv = ColumnBuilder::with_capacity(DataType::I64, 5);
    for i in 0..5 {
        uk.push_i64(i as i64);
        uv.push_i64(i as i64 * 1000);
    }
    let u = Arc::new(
        Table::new(
            "u",
            vec![("uk".into(), uk.finish()), ("uv".into(), uv.finish())],
        )
        .unwrap(),
    );
    let mut c = HashMap::new();
    c.insert("t".to_string(), t);
    c.insert("u".to_string(), u);
    c
}

// ---------------------------------------------------------------------------
// round-trips
// ---------------------------------------------------------------------------

/// Canonical queries: `display(parse(q)) == q` exactly, and re-parsing
/// the rendering yields an identical AST.
#[test]
fn canonical_corpus_round_trips() {
    let corpus = [
        "from t [id, k, v]",
        "from t [id as row_id, k]",
        "from t [id, k] | where k < 3",
        "from t [id, k] | where k < 3 and id >= 10",
        "from t [id, k, s] | where s = \"alpha\" or k != 2 and id < 50",
        "from t [id, k, s] | where (s = \"alpha\" or k != 2) and id < 50",
        "from t [id, s] | where s like \"al%\"",
        "from t [id, s] | where s not like \"%mm%\"",
        "from t [id, s] | where s in (\"alpha\", \"beta\")",
        "from t [id, k] | where k = -1",
        "from t [id, v] | select id = id, double_v = v * 2",
        "from t [id, v, f] | select r = f * 0.5 + 1.0, neg = v * -1",
        "from t [id, k] | select wide = i64(k) * 3",
        "from t [f] | select scaled = f / 2.5",
        "from t [id, v] | select tail = v - (id + 1)",
        "from t [s] | select head = substr(s, 0, 2)",
        "from t [id, k] | keep [k as key, id]",
        "from t [k, v] | agg by [k] [count, sum(v) as total]",
        "from t [v, f] | agg [sum(v), min(v), max(v), sum(f), min(f), max(f)]",
        "from t [id, k] | join inner (from u [uk, uv]) on id = uk payload [uv as val] bloom",
        "from t [id, k] | join semi (from u [uk]) on id = uk",
        "from t [id, k] | join anti (from u [uk]) on id = uk bloom",
        "from t [id, k] | join single (from u [uk, uv]) on id = uk payload [uv default -1]",
        "from t [id, v] | merge join (from u [uk, uv]) on id = uk payload [uv]",
        "from t [id, k] | order by k desc, id",
        "from t [id, k, v] | top 7 by v desc, id",
        "from t [id, k, v] | where k < 4 | select id = id, vv = v * 2 | agg by [id] \
         [sum(vv) as sv, count as c] | order by sv desc, id",
    ];
    for q in corpus {
        let ast = frontend::parse(q).unwrap_or_else(|e| panic!("parse {q:?}: {e}"));
        let rendered = ast.to_string();
        assert_eq!(rendered, q, "canonical rendering changed");
        let again = frontend::parse(&rendered).unwrap();
        assert_eq!(again, ast, "round-trip AST mismatch for {q:?}");
    }
}

/// Redundant spellings normalize to the same AST: `==`/`<>`, explicit
/// `asc`, extra parentheses and whitespace.
#[test]
fn alternate_spellings_normalize() {
    let pairs = [
        ("from t [id] | where id == 3", "from t [id] | where id = 3"),
        ("from t [id] | where id <> 3", "from t [id] | where id != 3"),
        (
            "from t [id, k] | order by k asc",
            "from t [id, k] | order by k",
        ),
        (
            "from t [id] | where ((id < 3))",
            "from t [id] | where id < 3",
        ),
        (
            "from t [id, v] | select x = (v * 2)",
            "from t [id, v] | select x = v * 2",
        ),
        (
            "from   t\n [ id , k ]\n | where k < 3",
            "from t [id, k] | where k < 3",
        ),
    ];
    for (written, canonical) in pairs {
        let a = frontend::parse(written).unwrap();
        let b = frontend::parse(canonical).unwrap();
        assert_eq!(a, b, "{written:?} should normalize to {canonical:?}");
        assert_eq!(a.to_string(), canonical);
    }
}

/// Operator precedence and associativity survive the round trip: the
/// rendering of a parenthesized tree re-parses to the same tree.
#[test]
fn expression_parens_round_trip() {
    for q in [
        "from t [v, id] | select x = v * (id + 1)",
        "from t [v, id] | select x = v - (id - 1)",
        "from t [v, id] | select x = v + id * 2",
        "from t [v, id, f] | select x = i64(k) + 1",
        "from t [f, v] | select x = f64(v) * (f + 1.0) / 2.0",
    ] {
        let Ok(ast) = frontend::parse(q) else {
            continue; // `k` not in the list — only shape matters here
        };
        let again = frontend::parse(&ast.to_string()).unwrap();
        assert_eq!(again, ast, "{q:?}");
    }
}

// ---------------------------------------------------------------------------
// typed error paths
// ---------------------------------------------------------------------------

fn plan_err(text: &str) -> (PlanError, frontend::Span) {
    match frontend::plan_text(text, &catalog()) {
        Err(FrontendError::Plan { err, span }) => (err, span),
        other => panic!("expected plan error for {text:?}, got {other:?}"),
    }
}

#[test]
fn unknown_column_is_typed_and_spanned() {
    let text = "from t [id, k] | where missing < 3";
    let (err, span) = plan_err(text);
    match err {
        PlanError::UnknownColumn { name, .. } => assert_eq!(name, "missing"),
        other => panic!("expected UnknownColumn, got {other:?}"),
    }
    assert_eq!(&text[span.start..span.end], "missing");
}

#[test]
fn type_mismatch_is_typed_and_spanned() {
    // Ordering comparison on a string column.
    let text = "from t [id, s] | where s < 5";
    let (err, span) = plan_err(text);
    match &err {
        PlanError::TypeMismatch { found, .. } => assert_eq!(*found, DataType::Str),
        other => panic!("expected TypeMismatch, got {other:?}"),
    }
    assert_eq!(&text[span.start..span.end], "s < 5");

    // Float literal against an integer column.
    let text = "from t [id, k] | where k = 2.5";
    let (err, span) = plan_err(text);
    match &err {
        PlanError::TypeMismatch { found, .. } => assert_eq!(*found, DataType::F64),
        other => panic!("expected TypeMismatch, got {other:?}"),
    }
    assert_eq!(&text[span.start..span.end], "k = 2.5");

    // Summing a string column.
    let text = "from t [s] | agg [sum(s)]";
    let (err, span) = plan_err(text);
    assert!(matches!(err, PlanError::TypeMismatch { .. }), "{err:?}");
    assert_eq!(&text[span.start..span.end], "s");
}

/// A column inside `like` / `not like` / `in` is spanned at its own
/// identifier, wherever in a compound predicate it sits.
#[test]
fn like_and_in_columns_are_spanned_inside_compound_predicates() {
    let text = "from t [id, k] | where k < 5 and missing like \"x%\"";
    let (err, span) = plan_err(text);
    assert!(matches!(err, PlanError::UnknownColumn { .. }), "{err:?}");
    assert_eq!(&text[span.start..span.end], "missing");

    let text = "from t [id, k] | where k < 5 and k like \"x%\"";
    let (err, span) = plan_err(text);
    match &err {
        PlanError::TypeMismatch { found, .. } => assert_eq!(*found, DataType::I32),
        other => panic!("expected TypeMismatch, got {other:?}"),
    }
    assert_eq!((span.start, &text[span.start..span.end]), (33, "k"));

    let text = "from t [id, k] | where k < 5 and id in (\"a\")";
    let (err, span) = plan_err(text);
    match &err {
        PlanError::TypeMismatch { found, .. } => assert_eq!(*found, DataType::I64),
        other => panic!("expected TypeMismatch, got {other:?}"),
    }
    assert_eq!(&text[span.start..span.end], "id");
}

/// Every sort key, group key and aggregate column is resolved and typed
/// at its own span — not at the stage's first identifier.
#[test]
fn sort_keys_group_keys_and_aggregates_are_spanned_individually() {
    let unknown = |stage: &str| {
        let text = format!("from t [id, k, v] | {stage}");
        let (err, span) = plan_err(&text);
        assert!(matches!(err, PlanError::UnknownColumn { .. }), "{err:?}");
        assert_eq!(&text[span.start..span.end], "missing", "{text}");
    };
    unknown("order by k, missing");
    unknown("top 3 by k desc, missing");
    unknown("agg by [k, missing] [count]");
    unknown("agg by [k] [count, sum(missing)]");

    let text = "from t [id, k, v] | agg by [k] [count, sum(k)]";
    let (err, span) = plan_err(text);
    match &err {
        PlanError::TypeMismatch { found, .. } => assert_eq!(*found, DataType::I32),
        other => panic!("expected TypeMismatch, got {other:?}"),
    }
    assert_eq!((span.start, span.end), (43, 44));

    // An `f64` group key is rejected at its own span, also behind a valid
    // key.
    for (text, at) in [
        ("from t [id, k, f] | agg by [f] [count]", 28),
        ("from t [id, k, f] | agg by [k, f] [count]", 31),
    ] {
        let (err, span) = plan_err(text);
        match &err {
            PlanError::TypeMismatch { found, .. } => assert_eq!(*found, DataType::F64),
            other => panic!("expected TypeMismatch, got {other:?}"),
        }
        assert_eq!(
            (span.start, &text[span.start..span.end]),
            (at, "f"),
            "{text}"
        );
    }
}

#[test]
fn out_of_range_literal_is_rejected() {
    // k is i32; this literal does not fit.
    let text = "from t [id, k] | where k < 99999999999";
    let (err, span) = plan_err(text);
    assert!(matches!(err, PlanError::Invalid(_)), "{err:?}");
    assert_eq!(&text[span.start..span.end], "k < 99999999999");
}

#[test]
fn reserved_word_as_alias_is_a_parse_error() {
    for text in [
        "from t [id as order]",
        "from t [id] | select count = id",
        "from t [id, k] | keep [k as select]",
    ] {
        match frontend::parse(text) {
            Err(e) => assert!(
                matches!(e.kind, ParseErrorKind::ReservedWord(_)),
                "{text:?}: {e:?}"
            ),
            Ok(_) => panic!("{text:?} should not parse"),
        }
    }
}

#[test]
fn parse_error_kinds_are_specific() {
    use ParseErrorKind as K;
    type Check = fn(&K) -> bool;
    let cases: &[(&str, Check)] = &[
        ("from t [id] | where id < ", |k| {
            matches!(k, K::UnexpectedToken { .. })
        }),
        ("from t [id] extra", |k| matches!(k, K::TrailingInput)),
        ("from t [id] | where s = \"unterminated", |k| {
            matches!(k, K::UnterminatedString)
        }),
        ("from t [id] | where id ? 3", |k| {
            matches!(k, K::UnexpectedChar('?'))
        }),
        ("from t [id] | where id < 99999999999999999999", |k| {
            matches!(k, K::BadNumber(_))
        }),
        ("from t [id] | top 0 by id", |k| {
            matches!(k, K::UnexpectedToken { .. })
        }),
    ];
    for (text, check) in cases {
        match frontend::parse(text) {
            Err(e) => assert!(check(&e.kind), "{text:?}: {:?}", e.kind),
            Ok(_) => panic!("{text:?} should not parse"),
        }
    }
}

#[test]
fn unknown_table_is_typed() {
    let (err, _) = plan_err("from nope [x]");
    assert!(matches!(err, PlanError::UnknownTable(_)), "{err:?}");
}

// ---------------------------------------------------------------------------
// end to end
// ---------------------------------------------------------------------------

fn run(text: &str) -> Vec<Vec<String>> {
    let c = catalog();
    let plan = frontend::plan_text(text, &c).unwrap_or_else(|e| panic!("{text:?}: {e}"));
    let dict = Arc::new(ma_primitives::build_dictionary());
    let ctx = QueryContext::new(dict, ExecConfig::fixed_default());
    let mut op = lower(&plan, &ctx).unwrap();
    let store = ma_executor::ops::materialize(op.as_mut()).unwrap();
    let mut rows = Vec::new();
    for r in 0..store.rows() {
        let mut row = Vec::new();
        for c in 0..store.types().len() {
            row.push(match store.col(c) {
                ma_vector::Vector::I16(v) => v[r].to_string(),
                ma_vector::Vector::I32(v) => v[r].to_string(),
                ma_vector::Vector::I64(v) => v[r].to_string(),
                ma_vector::Vector::F64(v) => format!("{:?}", v[r]),
                ma_vector::Vector::Str(s) => s.get(r).to_string(),
            });
        }
        rows.push(row);
    }
    rows
}

#[test]
fn text_query_filters_and_aggregates() {
    // k cycles 0..5 over 100 rows; k < 2 keeps 40 rows, 20 per group.
    let rows = run(
        "from t [k, v] | where k < 2 | agg by [k] [count as c, sum(v) as sv] \
                    | order by k",
    );
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0][0], "0");
    assert_eq!(rows[0][1], "20");
    // k=0 rows are ids 0,5,10,...,95; v = 10*id → sum = 10 * 950.
    assert_eq!(rows[0][2], "9500");
    assert_eq!(rows[1][0], "1");
}

#[test]
fn text_query_joins_and_sorts() {
    // Join t's 100 rows against u's 5 unique keys 0..5 (ids 0..5 match).
    let rows = run(
        "from t [id, v] | join inner (from u [uk, uv]) on id = uk payload [uv] \
         | order by uv desc, id",
    );
    assert_eq!(rows.len(), 5);
    assert_eq!(rows[0][2], "4000");
    assert_eq!(rows[4][2], "0");

    let rows = run(
        "from t [id, v] | join single (from u [uk, uv]) on id = uk payload [uv default -5] \
         | where uv = -5 | agg [count as misses]",
    );
    assert_eq!(rows[0][0], "95");
}

#[test]
fn text_merge_join_runs() {
    let rows = run(
        "from t [id, v] | merge join (from u [uk, uv]) on id = uk payload [uv] \
         | agg [count as matches, sum(uv) as total]",
    );
    assert_eq!(rows[0][0], "5");
    assert_eq!(rows[0][1], "10000");
}

/// DSL plans carry their stage kinds as labels, repeated freely (two
/// `where` stages below), and verify and run.
#[test]
fn generated_plans_verify() {
    let c = catalog();
    let text = "from t [id, k, v] | where k < 3 | select id = id, vv = v * 2 \
                | join inner (from u [uk, uv] | where uk < 4) on id = uk payload [uv] \
                | agg by [id] [sum(vv) as s] | top 3 by s desc, id";
    let plan = frontend::plan_text(text, &c).unwrap();
    ma_executor::verify(&plan, &ExecConfig::fixed_default()).unwrap();
    assert_eq!(run(text).len(), 3);
}
