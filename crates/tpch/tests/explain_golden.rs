//! Golden tests for the EXPLAIN rendering of the TPC-H logical plans.
//!
//! These pin two properties of the plan layer:
//!
//! * the tree/schema rendering is stable (Q1, the widest single-phase
//!   pipeline), and
//! * **the planner, not the query, decides how ordered pipelines and
//!   joins parallelize**: Q12's physical plan must show sharded
//!   `(morsel)` scans feeding `Merge ×N` exchanges — the retired PR-3
//!   golden pinned both scans `(ordered)` (fully sequential), and this
//!   golden is the regression canary replacing it — and Q3's joins must
//!   carry the `HashJoin (partitioned ×P)` verdict.

use ma_executor::ExecConfig;
use ma_tpch::dbgen::TpchData;
use ma_tpch::params::Params;
use ma_tpch::queries::{explain_query, explain_query_with};

/// Plan shapes are data-independent; the smallest database keeps the test
/// fast.
fn db() -> TpchData {
    TpchData::generate(0.001, 0xDBD1)
}

#[test]
fn q01_explain_golden() {
    let text = explain_query(1, &db(), &Params::default()).unwrap();
    let expected = "\
Sort [l_returnflag asc, l_linestatus asc] -> (l_returnflag:str, l_linestatus:str, sum_qty:i64, sum_base:i64, sum_disc_price:f64, sum_charge:f64, avg_qty:f64, avg_price:f64, avg_disc:f64, count:i64)
  Project [l_returnflag, l_linestatus, sum_qty, sum_base, sum_disc_price, sum_charge, avg_qty=(f64(sum_qty) / f64(count)), avg_price=(f64(sum_base) / f64(count)), avg_disc=(sum_disc / f64(count)), count] -> (l_returnflag:str, l_linestatus:str, sum_qty:i64, sum_base:i64, sum_disc_price:f64, sum_charge:f64, avg_qty:f64, avg_price:f64, avg_disc:f64, count:i64)
    HashAgg keys=[l_returnflag, l_linestatus] aggs=[sum_qty=sum_i64(qty), sum_base=sum_i64(base), sum_disc_price=sum_f64(disc_price), sum_charge=sum_f64(charge), sum_disc=sum_f64(disc), count=count(*)] -> (l_returnflag:str, l_linestatus:str, sum_qty:i64, sum_base:i64, sum_disc_price:f64, sum_charge:f64, sum_disc:f64, count:i64)
      Project [l_returnflag, l_linestatus, qty=i64(l_quantity), base=l_extendedprice, disc_price=(f64(l_extendedprice) * (((f64(l_discount) * 0.01) * -1) + 1)), charge=((f64(l_extendedprice) * (((f64(l_discount) * 0.01) * -1) + 1)) * ((f64(l_tax) * 0.01) + 1)), disc=(f64(l_discount) * 0.01)] -> (l_returnflag:str, l_linestatus:str, qty:i64, base:i64, disc_price:f64, charge:f64, disc:f64)
        Filter l_shipdate <= 2436 -> (l_shipdate:i32, l_returnflag:str, l_linestatus:str, l_quantity:i32, l_extendedprice:i64, l_discount:i64, l_tax:i64)
          Scan lineitem (shardable) enc=[l_shipdate:for, l_returnflag:dict, l_linestatus:dict, l_quantity:for, l_extendedprice:for, l_discount:for, l_tax:for] -> (l_shipdate:i32, l_returnflag:str, l_linestatus:str, l_quantity:i32, l_extendedprice:i64, l_discount:i64, l_tax:i64)
";
    assert_eq!(text, expected);
}

#[test]
fn q01_physical_explain_shows_partitioned_aggregate() {
    // The physical rendering must carry the planner's partitioning verdict
    // (computed by the same decision function `lower` uses). Q1 groups by
    // (l_returnflag, l_linestatus) with exactly 3 × 2 distinct values, so
    // the analysis-derived group bound is 6 — the trigger must be lowered
    // to 6 to engage partitioning. The cost model then sizes P to the
    // demand/threshold ratio (6/6 = 1, clamped to the 2-partition
    // minimum), not the 4-worker cap.
    let cfg = ExecConfig::fixed_default()
        .with_workers(4)
        .with_agg_min_groups(6);
    let text = explain_query_with(1, &db(), &Params::default(), &cfg).unwrap();
    let expected = "\
Sort [l_returnflag asc, l_linestatus asc] -> (l_returnflag:str, l_linestatus:str, sum_qty:i64, sum_base:i64, sum_disc_price:f64, sum_charge:f64, avg_qty:f64, avg_price:f64, avg_disc:f64, count:i64)
  Project [l_returnflag, l_linestatus, sum_qty, sum_base, sum_disc_price, sum_charge, avg_qty=(f64(sum_qty) / f64(count)), avg_price=(f64(sum_base) / f64(count)), avg_disc=(sum_disc / f64(count)), count] -> (l_returnflag:str, l_linestatus:str, sum_qty:i64, sum_base:i64, sum_disc_price:f64, sum_charge:f64, avg_qty:f64, avg_price:f64, avg_disc:f64, count:i64)
    HashAgg (partitioned \u{d7}2) keys=[l_returnflag, l_linestatus] aggs=[sum_qty=sum_i64(qty), sum_base=sum_i64(base), sum_disc_price=sum_f64(disc_price), sum_charge=sum_f64(charge), sum_disc=sum_f64(disc), count=count(*)] -> (l_returnflag:str, l_linestatus:str, sum_qty:i64, sum_base:i64, sum_disc_price:f64, sum_charge:f64, sum_disc:f64, count:i64)
      Project [l_returnflag, l_linestatus, qty=i64(l_quantity), base=l_extendedprice, disc_price=(f64(l_extendedprice) * (((f64(l_discount) * 0.01) * -1) + 1)), charge=((f64(l_extendedprice) * (((f64(l_discount) * 0.01) * -1) + 1)) * ((f64(l_tax) * 0.01) + 1)), disc=(f64(l_discount) * 0.01)] -> (l_returnflag:str, l_linestatus:str, qty:i64, base:i64, disc_price:f64, charge:f64, disc:f64)
        Filter l_shipdate <= 2436 -> (l_shipdate:i32, l_returnflag:str, l_linestatus:str, l_quantity:i32, l_extendedprice:i64, l_discount:i64, l_tax:i64)
          Scan lineitem (shardable) enc=[l_shipdate:for, l_returnflag:dict, l_linestatus:dict, l_quantity:for, l_extendedprice:for, l_discount:for, l_tax:for] -> (l_shipdate:i32, l_returnflag:str, l_linestatus:str, l_quantity:i32, l_extendedprice:i64, l_discount:i64, l_tax:i64)
";
    assert_eq!(text, expected);
    // The stats-tightened verdict flip, pinned on a real TPC-H plan: a
    // threshold of 1024 used to partition (the lineitem scan feeds ~6k
    // rows into the aggregate at this scale), but the abstract
    // interpreter proves at most 6 groups can exist, so the same config
    // now stays single.
    let flipped = ExecConfig::fixed_default()
        .with_workers(4)
        .with_agg_min_groups(1024);
    let text = explain_query_with(1, &db(), &Params::default(), &flipped).unwrap();
    assert!(!text.contains("partitioned"), "NDV bound must veto: {text}");
    // One past the proven bound must not partition either.
    let past = ExecConfig::fixed_default()
        .with_workers(4)
        .with_agg_min_groups(7);
    let text = explain_query_with(1, &db(), &Params::default(), &past).unwrap();
    assert!(!text.contains("partitioned"));
    // A single-worker config renders structurally (no partition verdict).
    let plain = explain_query_with(1, &db(), &Params::default(), &ExecConfig::fixed_default());
    assert_eq!(
        plain.unwrap(),
        explain_query(1, &db(), &Params::default()).unwrap()
    );
}

#[test]
fn q12_physical_explain_shows_merging_exchanges() {
    // Both merge-join inputs are clustering-key chains, so the physical
    // planner shards them into `(morsel)` scans re-merged by a `Merge ×N`
    // exchange — Q12 parallelizes for the first time. The tiny golden
    // database is below the default 2-morsel sharding cutoff, so the
    // vector size is shrunk (morsels follow it) to let the verdict
    // engage, the same trick the Q1 golden plays with its group
    // threshold.
    let mut cfg = ExecConfig::fixed_default().with_workers(4);
    cfg.vector_size = 32;
    let text = explain_query_with(12, &db(), &Params::default(), &cfg).unwrap();
    let expected = "\
HashAgg keys=[l_shipmode, o_orderpriority] aggs=[count=count(*)] -> (l_shipmode:str, o_orderpriority:str, count:i64)
  MergeJoin on (l_orderkey = o_orderkey) payload=[o_orderpriority] -> (l_orderkey:i32, l_shipmode:str, l_shipdate:i32, l_commitdate:i32, l_receiptdate:i32, o_orderpriority:str)
    left: Merge \u{d7}4 on o_orderkey -> (o_orderkey:i32, o_orderpriority:str)
      Scan orders (morsel) enc=[o_orderkey:delta, o_orderpriority:dict] -> (o_orderkey:i32, o_orderpriority:str)
    right: Merge \u{d7}4 on l_orderkey -> (l_orderkey:i32, l_shipmode:str, l_shipdate:i32, l_commitdate:i32, l_receiptdate:i32)
      Filter l_shipmode IN ('MAIL', 'SHIP') AND l_receiptdate >= 731 AND l_receiptdate < 1096 AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate -> (l_orderkey:i32, l_shipmode:str, l_shipdate:i32, l_commitdate:i32, l_receiptdate:i32)
        Scan lineitem (morsel) enc=[l_orderkey:delta, l_shipmode:dict, l_shipdate:for, l_commitdate:for, l_receiptdate:for] -> (l_orderkey:i32, l_shipmode:str, l_shipdate:i32, l_commitdate:i32, l_receiptdate:i32)
";
    assert_eq!(text, expected);
    // The properties the golden string encodes, asserted directly too:
    // both scans shard, each under its own merging exchange, and nothing
    // is left fully sequential.
    assert_eq!(text.matches("(morsel)").count(), 2);
    assert_eq!(text.matches("Merge \u{d7}4").count(), 2);
    assert!(!text.contains("(ordered)"));
}

#[test]
fn q12_structural_explain_keeps_order_constraint_visible() {
    // Without a physical config the rendering stays structural: the merge
    // join's order constraint marks both scans `(ordered)`, and a
    // single-worker config (nothing to shard) renders identically.
    let text = explain_query(12, &db(), &Params::default()).unwrap();
    assert_eq!(text.matches("(ordered)").count(), 2);
    assert!(!text.contains("(shardable)"));
    assert!(!text.contains("Merge \u{d7}"));
    let plain = explain_query_with(12, &db(), &Params::default(), &ExecConfig::fixed_default());
    assert_eq!(plain.unwrap(), text);
}

#[test]
fn q03_physical_explain_shows_in_fragment_joins() {
    // Left to the planner, a join whose probe side shards probes inside
    // the worker fragments over one shared build. The golden database is
    // below the default sharding cutoff, so the vector size is shrunk
    // (morsels follow it) as in the Q12 golden. Both of Q3's joins
    // qualify: the outer one is a stage of the lineitem chain, whose 4
    // fragments route into the aggregate's exchange directly; the semi
    // join tops the orders chain that is the outer join's build side.
    let mut cfg = ExecConfig::fixed_default().with_workers(4);
    cfg.vector_size = 32;
    let text = explain_query_with(3, &db(), &Params::default(), &cfg).unwrap();
    let expected = "\
Sort [sum_rev desc, o_orderdate asc] limit=10 -> (l_orderkey:i32, sum_rev:f64, o_orderdate:i32, o_shippriority:i32)
  Project [l_orderkey, sum_rev, o_orderdate, o_shippriority] -> (l_orderkey:i32, sum_rev:f64, o_orderdate:i32, o_shippriority:i32)
    HashAgg (partitioned \u{d7}4) keys=[l_orderkey, o_orderdate, o_shippriority] aggs=[sum_rev=sum_f64(rev)] -> (l_orderkey:i32, o_orderdate:i32, o_shippriority:i32, sum_rev:f64)
      Project [l_orderkey, o_orderdate, o_shippriority, rev=(f64(l_extendedprice) * (((f64(l_discount) * 0.01) * -1) + 1))] -> (l_orderkey:i32, o_orderdate:i32, o_shippriority:i32, rev:f64)
        HashJoin (in fragment \u{d7}4, shared build) inner on (l_orderkey = o_orderkey) payload=[o_orderdate, o_shippriority] bloom -> (l_orderkey:i32, l_shipdate:i32, l_extendedprice:i64, l_discount:i64, o_orderdate:i32, o_shippriority:i32)
          build: HashJoin (in fragment \u{d7}4, shared build) semi on (o_custkey = c_custkey) bloom -> (o_orderkey:i32, o_custkey:i32, o_orderdate:i32, o_shippriority:i32)
            build: Filter c_mktsegment = 'BUILDING' -> (c_custkey:i32, c_mktsegment:str)
              Scan customer (shardable) enc=[c_custkey:delta, c_mktsegment:dict] -> (c_custkey:i32, c_mktsegment:str)
            probe: Filter o_orderdate < 1169 -> (o_orderkey:i32, o_custkey:i32, o_orderdate:i32, o_shippriority:i32)
              Scan orders (shardable) enc=[o_orderkey:delta, o_custkey:for, o_orderdate:for, o_shippriority:for] -> (o_orderkey:i32, o_custkey:i32, o_orderdate:i32, o_shippriority:i32)
          probe: Filter l_shipdate > 1169 -> (l_orderkey:i32, l_shipdate:i32, l_extendedprice:i64, l_discount:i64)
            Scan lineitem (shardable) enc=[l_orderkey:delta, l_shipdate:for, l_extendedprice:for, l_discount:for] -> (l_orderkey:i32, l_shipdate:i32, l_extendedprice:i64, l_discount:i64)
";
    assert_eq!(text, expected);
    assert_eq!(text.matches("shared build").count(), 2);
    assert!(!text.contains("HashJoin (partitioned"));
    // A single-worker config renders structurally (no parallel verdict).
    let plain = explain_query_with(3, &db(), &Params::default(), &ExecConfig::fixed_default());
    assert_eq!(
        plain.unwrap(),
        explain_query(3, &db(), &Params::default()).unwrap()
    );
}

#[test]
fn all_22_queries_explain_without_error() {
    let db = db();
    let p = Params::default();
    for q in 1..=22 {
        let text = explain_query(q, &db, &p).unwrap_or_else(|e| panic!("EXPLAIN Q{q} failed: {e}"));
        assert!(text.contains("Scan"), "Q{q} explain has no scan:\n{text}");
        assert!(
            text.contains(" -> ("),
            "Q{q} explain has no schema:\n{text}"
        );
    }
}
