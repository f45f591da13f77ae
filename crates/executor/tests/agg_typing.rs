//! The aggregate typing rule is one function ([`Agg::type_of`]): the plan
//! builder, the verifier and both aggregate operators must give the same
//! verdict on every function × element type × input column.

use std::collections::HashMap;
use std::sync::Arc;

use ma_executor::ops::{HashAggregate, Scan, StreamAggregate};
use ma_executor::plan::PlanBuilder;
use ma_executor::{verify, Agg, AggFunc, BoxOp, ExecConfig, LogicalPlan, NumType, QueryContext};
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
