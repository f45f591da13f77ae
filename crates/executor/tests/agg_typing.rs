//! Typing rules are one function each: [`Agg::type_of`] for aggregates,
//! one rule per plan node kind for nodes. The plan builder, the verifier
//! and — for aggregates — both aggregate operators, for nodes the
//! physical planner, must give the same verdict on every function ×
//! element type × input column, and on every node shape in the node
//! table.

use std::collections::HashMap;
use std::sync::Arc;

use ma_executor::ops::{HashAggregate, JoinKind, Scan, StreamAggregate};
use ma_executor::plan::{asc, count, desc, PlanBuilder};
use ma_executor::{
    plan_physical, verify, Agg, AggFunc, BoxOp, ExecConfig, LogicalPlan, NumType, PlanError,
    QueryContext, Value,
};
use ma_primitives::build_dictionary;
use ma_vector::{ColumnBuilder, DataType, Field, Schema, Table};

/// `g` (the group key) then one column of every type.
const COLS: [(&str, DataType); 6] = [
    ("g", DataType::I32),
    ("a", DataType::I16),
    ("b", DataType::I32),
    ("c", DataType::I64),
    ("d", DataType::F64),
    ("e", DataType::Str),
];

fn table() -> Arc<Table> {
    let cols = COLS.iter().map(|&(name, ty)| {
        let mut b = ColumnBuilder::with_capacity(ty, 4);
        for i in 0..4i16 {
            match ty {
                DataType::I16 => b.push_i16(i),
                DataType::I32 => b.push_i32(i.into()),
                DataType::I64 => b.push_i64(i.into()),
                DataType::F64 => b.push_f64(i.into()),
                DataType::Str => b.push_str("x"),
            }
        }
        (name.to_string(), b.finish())
    });
    Arc::new(Table::new("t", cols.collect()).unwrap())
}

#[test]
fn builder_verifier_and_operators_agree_on_every_aggregate() {
    let t = table();
    let names: Vec<&str> = COLS.iter().map(|c| c.0).collect();
    let catalog = HashMap::from([("t".to_string(), Arc::clone(&t))]);
    let cfg = ExecConfig::fixed_default();
    let ctx = QueryContext::new(Arc::new(build_dictionary()), cfg.clone());
    let scan = || -> BoxOp { Box::new(Scan::new(Arc::clone(&t), &names, 1024).unwrap()) };
    let plan_scan = || PlanBuilder::scan(&catalog, "t", &names);

    let mut aggs = vec![None];
    for func in [AggFunc::Sum, AggFunc::Min, AggFunc::Max] {
        aggs.extend([NumType::I64, NumType::F64].map(|ty| Some((func, ty))));
    }
    let mut accepted = 0;
    // Column 9 is out of range (the builder's twin: an unknown name).
    for (of, col) in aggs
        .iter()
        .flat_map(|&of| [1, 2, 3, 4, 5, 9].map(|c| (of, c)))
    {
        let agg = Agg {
            of: of.map(|(func, ty)| (func, ty, col)),
            name: Some("out".into()),
        };
        let named = agg
            .try_map_col(&mut |&c| Ok::<_, ()>(names.get(c).unwrap_or(&"nope").to_string()))
            .unwrap();
        let out = of.map_or(DataType::I64, |(_, ty)| ty.data_type());
        let expect = match of {
            None => true,
            Some(_) => COLS.get(col).is_some_and(|c| c.1 == out),
        };
        accepted += usize::from(expect);
        let what = format!("{agg:?}");

        // The builder, and what it built.
        let built = plan_scan()
            .hash_agg(&["g"], vec![named.clone()], "a")
            .build();
        assert_eq!(built.is_ok(), expect, "hash_agg {what}: {built:?}");
        if let Ok(LogicalPlan::HashAgg { aggs, schema, .. }) = &built {
            assert_eq!((&aggs[..], schema.field(1).ty), (&[agg.clone()][..], out));
        }
        let built = plan_scan().stream_agg(vec![named], "a").build();
        assert_eq!(built.is_ok(), expect, "stream_agg {what}: {built:?}");

        // The verifier on the hand-built nodes.
        let input = || Box::new(plan_scan().build().unwrap());
        let grouped = LogicalPlan::HashAgg {
            input: input(),
            keys: vec![0],
            aggs: vec![agg.clone()],
            label: "a".into(),
            schema: Schema::new(vec![Field::new("g", DataType::I32), Field::new("out", out)]),
        };
        let v = verify(&grouped, &cfg);
        assert_eq!(v.is_ok(), expect, "verify HashAgg {what}: {v:?}");
        let stream = LogicalPlan::StreamAgg {
            input: input(),
            aggs: vec![agg.clone()],
            label: "a".into(),
            schema: Schema::new(vec![Field::new("out", out)]),
        };
        let v = verify(&stream, &cfg);
        assert_eq!(v.is_ok(), expect, "verify StreamAgg {what}: {v:?}");

        // The operators, at construction.
        let op = HashAggregate::new(scan(), vec![0], vec![agg.clone()], &ctx.scope("a"));
        assert_eq!(op.is_ok(), expect, "HashAggregate::new {what}");
        let op = StreamAggregate::new(scan(), vec![agg], &ctx.scope("a"));
        assert_eq!(op.is_ok(), expect, "StreamAggregate::new {what}");
    }
    // count on all six columns, each of the six typed aggregates on one.
    assert_eq!(accepted, 6 + 6);
}

/// One node shape: what the builder makes of it, its hand-built twin
/// (declaring the schema the builder would), and the verdict.
struct Row {
    what: String,
    built: Result<LogicalPlan, PlanError>,
    twin: LogicalPlan,
    accept: bool,
}

#[test]
fn builder_verifier_and_planner_agree_on_every_node_rule() {
    let t = table();
    let catalog = HashMap::from([("t".to_string(), Arc::clone(&t))]);
    let cfg = ExecConfig::fixed_default();
    let names: Vec<&str> = COLS.iter().map(|c| c.0).collect();
    // The probe / right side is `t`; the build / left side is `t` with
    // every column renamed `l<name>`.
    let lnames: Vec<String> = names.iter().map(|n| format!("l{n}")).collect();
    let aliased: Vec<String> = names.iter().map(|n| format!("{n} as l{n}")).collect();
    let aliased: Vec<&str> = aliased.iter().map(String::as_str).collect();
    let probe = || PlanBuilder::scan(&catalog, "t", &names);
    let build = || PlanBuilder::scan(&catalog, "t", &aliased);
    let plan = |pb: PlanBuilder| Box::new(pb.build().unwrap());
    let field = |c: usize| Field::new(COLS[c].0, COLS[c].1);
    let probe_fields = || (0..COLS.len()).map(field).collect::<Vec<_>>();
    let hash_join =
        |kind, keys: &[usize], payload: &[usize], defaults, out| LogicalPlan::HashJoin {
            build: plan(build()),
            probe: plan(probe()),
            build_keys: keys.to_vec(),
            probe_keys: keys.to_vec(),
            payload: payload.to_vec(),
            kind,
            bloom: false,
            defaults,
            label: "j".into(),
            schema: Schema::new(out),
        };
    let mut rows = Vec::new();

    // Join keys: integers only.
    for c in 1..COLS.len() {
        let built = probe().hash_join(
            build(),
            &[(names[c], &lnames[c])],
            &[],
            JoinKind::Inner,
            false,
            "j",
        );
        rows.push(Row {
            what: format!("join key {}", COLS[c].1),
            built: built.build(),
            twin: hash_join(JoinKind::Inner, &[c], &[], vec![], probe_fields()),
            accept: c <= 3,
        });
    }
    // Group keys: anything but f64.
    for (c, accept) in [(2, true), (5, true), (4, false)] {
        rows.push(Row {
            what: format!("group key {}", COLS[c].1),
            built: probe().hash_agg(&[names[c]], vec![count()], "a").build(),
            twin: LogicalPlan::HashAgg {
                input: plan(probe()),
                keys: vec![c],
                aggs: vec![Agg::count()],
                label: "a".into(),
                schema: Schema::new(vec![field(c), Field::new("count", DataType::I64)]),
            },
            accept,
        });
    }
    // Left-single payloads: numeric, with a default of exactly their type.
    for (c, default, accept) in [
        (3, Value::I64(0), true),
        (4, Value::F64(0.0), true),
        (3, Value::I32(0), false),
        (5, Value::Str("".into()), false),
    ] {
        let built = probe().left_single_join(
            build(),
            &[("g", "lg")],
            &[(&lnames[c], default.clone())],
            "j",
        );
        let mut out = probe_fields();
        out.push(Field::new(&lnames[c], COLS[c].1));
        rows.push(Row {
            what: format!("left-single payload {} default {default:?}", COLS[c].1),
            built: built.build(),
            twin: hash_join(JoinKind::LeftSingle, &[0], &[c], vec![default], out),
            accept,
        });
    }
    // Semi and anti joins keep probe columns only.
    for kind in [JoinKind::Semi, JoinKind::Anti] {
        for (payload, accept) in [(vec![], true), (vec![3], false)] {
            let specs: Vec<&str> = payload.iter().map(|&c| lnames[c].as_str()).collect();
            let built = probe().hash_join(build(), &[("g", "lg")], &specs, kind, false, "j");
            rows.push(Row {
                what: format!("{kind:?} join with payload {payload:?}"),
                built: built.build(),
                twin: hash_join(kind, &[0], &payload, vec![], probe_fields()),
                accept,
            });
        }
    }
    // Empty key lists.
    rows.push(Row {
        what: "join without keys".into(),
        built: (probe().hash_join(build(), &[], &[], JoinKind::Inner, false, "j")).build(),
        twin: hash_join(JoinKind::Inner, &[], &[], vec![], probe_fields()),
        accept: false,
    });
    rows.push(Row {
        what: "hash aggregation without keys".into(),
        built: probe().hash_agg(&[], vec![count()], "a").build(),
        twin: LogicalPlan::HashAgg {
            input: plan(probe()),
            keys: vec![],
            aggs: vec![Agg::count()],
            label: "a".into(),
            schema: Schema::new(vec![Field::new("count", DataType::I64)]),
        },
        accept: false,
    });
    // Merge inputs, on the left side of `g = <key>` (`g` is `t`'s first,
    // clustering column, so the right side is always a clustered chain).
    let merge_left = |i: usize| match i {
        0 => build(),
        1 => build().sort(&[asc("lb")]),
        2 => build().sort(&[desc("lb")]),
        3 => build().sort(&[asc("lc")]),
        _ => build().hash_agg(&["lb"], vec![count()], "a"),
    };
    for (i, what, key, accept) in [
        (0, "a clustered chain", "lg", true),
        (1, "an ascending sort on the key", "lb", true),
        (2, "a descending sort on the key", "lb", false),
        (3, "a sort on another column", "lb", false),
        (4, "a hash aggregate", "lb", false),
    ] {
        let left = plan(merge_left(i));
        let left_key = left.schema().index_of(key).unwrap();
        rows.push(Row {
            what: format!("merge input {what}"),
            built: probe()
                .merge_join(merge_left(i), ("g", key), &[], "mj")
                .build(),
            twin: LogicalPlan::MergeJoin {
                left,
                right: plan(probe()),
                left_key,
                right_key: 0,
                payload: vec![],
                label: "mj".into(),
                schema: Schema::new(probe_fields()),
            },
            accept,
        });
    }

    let mut accepted = 0;
    for row in &rows {
        let what = &row.what;
        assert_eq!(row.built.is_ok(), row.accept, "PlanBuilder, {what}");
        if let Ok(built) = &row.built {
            assert_eq!(built.schema().types(), row.twin.schema().types(), "{what}");
        }
        let v = verify(&row.twin, &cfg);
        assert_eq!(v.is_ok(), row.accept, "verify, {what}: {v:?}");
        let p = plan_physical(&row.twin, &cfg).map(|_| ());
        assert_eq!(p.is_ok(), row.accept, "plan_physical, {what}: {p:?}");
        accepted += usize::from(row.accept);
    }
    // Of 23 rows: integer join keys (3), i32 and str group keys (2),
    // i64 and f64 left-single payloads (2), payload-free semi and anti
    // joins (2), a clustered chain and an ascending sort (2).
    assert_eq!((rows.len(), accepted), (23, 11));
}
