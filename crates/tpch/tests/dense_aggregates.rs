//! Which TPC-H hash aggregates the physical planner sends to a dense key
//! table, pinned at the golden scale factor (0.01) and at the benchmark's
//! (0.05). A dense table needs every group key to have a small proven
//! domain: an integer interval, or the codes of a dictionary-coded scan
//! column that reaches the aggregate with its vectors intact. The pins are
//! the first phase of each query (what `query_plan` exposes).

use ma_executor::plan::{plan_physical, LogicalPlan};
use ma_executor::ExecConfig;
use ma_tpch::dbgen::TpchData;
use ma_tpch::params::Params;
use ma_tpch::queries::query_plan;

/// `(query, label)` of every hash aggregate that goes dense, and every one
/// that does not, over the 22 first-phase plans, each list sorted.
fn verdicts(sf: f64) -> (Vec<String>, Vec<String>) {
    let db = TpchData::generate(sf, 0xDBD1);
    let cfg = ExecConfig::fixed_default();
    let (mut dense, mut hashed) = (Vec::new(), Vec::new());
    for q in 1..=22 {
        let plan = query_plan(q, &db, &Params::default())
            .unwrap()
            .build()
            .unwrap();
        let phys = plan_physical(&plan, &cfg).unwrap();
        for node in phys.nodes() {
            if let LogicalPlan::HashAgg { label, .. } = node.logical {
                let name = format!("Q{q:02} {label}");
                if node.dense_keys.is_empty() {
                    hashed.push(name);
                } else {
                    dense.push(name);
                }
            }
        }
    }
    dense.sort();
    hashed.sort();
    (dense, hashed)
}

/// The aggregates every scale factor sends dense. Q1 groups by two
/// dictionary-coded flags; Q4 by a dictionary-coded priority that reaches
/// it through a semi join's probe side; Q18 and Q21 group lineitem by
/// `l_orderkey`, whose interval is about 4× its group bound; the others
/// group by integer keys with intervals as tight.
const DENSE_ALWAYS: [&str; 9] = [
    "Q01 Q1/agg",
    "Q04 Q4/agg",
    "Q10 Q10/agg",
    "Q13 Q13/agg_orders",
    "Q15 Q15/agg",
    "Q17 Q17/agg_totals",
    "Q18 Q18/agg_qty",
    "Q21 Q21/agg_all",
    "Q21 Q21/agg_late",
];

/// The aggregates that hash at every scale factor: their string keys come
/// through an inner join's fetch or a merge join's row store, which drop
/// the codes (Q5, Q7, Q8, Q9, Q12, Q14, Q16, Q21/agg), or their key
/// intervals span more than 8 slots per group (Q3's composite key, Q13's
/// per-customer order count).
const HASHED_ALWAYS: [&str; 11] = [
    "Q03 Q3/agg",
    "Q05 Q5/agg",
    "Q07 Q7/agg",
    "Q08 Q8/agg",
    "Q09 Q9/agg",
    "Q12 Q12/agg",
    "Q13 Q13/agg_dist",
    "Q14 Q14/agg",
    "Q16 Q16/agg",
    "Q16 Q16/distinct",
    "Q21 Q21/agg",
];

/// `expected` with `extra` merged in, sorted.
fn with(expected: &[&str], extra: &str) -> Vec<String> {
    let mut v: Vec<String> = expected.iter().map(|s| s.to_string()).collect();
    v.push(extra.to_string());
    v.sort();
    v
}

#[test]
fn dense_aggregates_at_the_golden_scale() {
    // Q20's shipped quantities group by (partkey, suppkey): 2000 × 100
    // slots, within 8 per group of the lineitem row bound at this scale.
    let (dense, hashed) = verdicts(0.01);
    assert_eq!(dense, with(&DENSE_ALWAYS, "Q20 Q20/agg_shipped"));
    assert_eq!(hashed, HASHED_ALWAYS);
}

#[test]
fn dense_aggregates_at_the_benchmark_scale() {
    // At 5× the rows, Q20's 10 000 × 500 slots outgrow the 2^20 cap.
    let (dense, hashed) = verdicts(0.05);
    assert_eq!(dense, DENSE_ALWAYS);
    assert_eq!(hashed, with(&HASHED_ALWAYS, "Q20 Q20/agg_shipped"));
}
