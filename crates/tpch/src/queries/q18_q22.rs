//! TPC-H Q18–Q22.

use ma_executor::ops::JoinKind;
use ma_executor::plan::{
    asc, col, count, desc, max_i64, min_i64, substr, sum_f64, sum_i64, NamedPred, PlanBuilder,
};
use ma_executor::{CmpKind, ExecError, QueryContext, Value};
use ma_vector::DataType;

use super::{materialize_plan, revenue, run_plan, store_to_table, QueryOutput};
use crate::dates::add_years;
use crate::dbgen::TpchData;
use crate::params::Params;

/// Q18's logical plan: large-volume customers.
pub(crate) fn q18_plan(db: &TpchData, p: &Params) -> PlanBuilder {
    let big = PlanBuilder::scan(db, "lineitem", &["l_orderkey", "l_quantity"])
        .project(
            vec![
                ("l_orderkey", col("l_orderkey")),
                ("qty", col("l_quantity").cast(DataType::I64)),
            ],
            "Q18/qty64",
        )
        .hash_agg(
            &["l_orderkey"],
            vec![sum_i64("qty").named("sumqty")],
            "Q18/agg_qty",
        )
        .filter(
            NamedPred::cmp_val("sumqty", CmpKind::Gt, Value::I64(p.q18_quantity)),
            "Q18/sel_big",
        );
    PlanBuilder::scan(
        db,
        "orders",
        &["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    )
    .hash_join(
        big,
        &[("o_orderkey", "l_orderkey")],
        &["sumqty"],
        JoinKind::Inner,
        true,
        "Q18/join_orders",
    )
    .hash_join(
        PlanBuilder::scan(db, "customer", &["c_custkey", "c_name"]),
        &[("o_custkey", "c_custkey")],
        &["c_name"],
        JoinKind::Inner,
        false,
        "Q18/join_cust",
    )
    .keep(&[
        "c_name",
        "o_custkey",
        "o_orderkey",
        "o_orderdate",
        "o_totalprice",
        "sumqty",
    ])
    .top_n(&[desc("o_totalprice"), asc("o_orderdate")], 100)
}

/// Q18: large-volume customers.
pub(crate) fn q18(db: &TpchData, ctx: &QueryContext, p: &Params) -> Result<QueryOutput, ExecError> {
    run_plan(q18_plan(db, p), ctx)
}

/// Q19's logical plan: discounted revenue (the three-branch OR of ANDs).
pub(crate) fn q19_plan(db: &TpchData, p: &Params) -> PlanBuilder {
    let branch = |brand: &str, containers: &[&str], qlo: i32, smax: i32| -> NamedPred {
        NamedPred::And(vec![
            NamedPred::str_eq("p_brand", brand),
            NamedPred::in_str("p_container", containers.iter().copied()),
            NamedPred::cmp_val("l_quantity", CmpKind::Ge, Value::I32(qlo)),
            NamedPred::cmp_val("l_quantity", CmpKind::Le, Value::I32(qlo + 10)),
            NamedPred::cmp_val("p_size", CmpKind::Ge, Value::I32(1)),
            NamedPred::cmp_val("p_size", CmpKind::Le, Value::I32(smax)),
        ])
    };
    PlanBuilder::scan(
        db,
        "lineitem",
        &[
            "l_partkey",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_shipinstruct",
            "l_shipmode",
        ],
    )
    .filter(
        NamedPred::And(vec![
            NamedPred::str_eq("l_shipinstruct", "DELIVER IN PERSON"),
            NamedPred::in_str("l_shipmode", ["AIR", "REG AIR"]),
        ]),
        "Q19/sel_common",
    )
    .hash_join(
        PlanBuilder::scan(
            db,
            "part",
            &["p_partkey", "p_brand", "p_container", "p_size"],
        ),
        &[("l_partkey", "p_partkey")],
        &["p_brand", "p_container", "p_size"],
        JoinKind::Inner,
        false,
        "Q19/join_part",
    )
    .filter(
        NamedPred::Or(vec![
            branch(
                p.q19_brand1,
                &["SM CASE", "SM BOX", "SM PACK", "SM PKG"],
                p.q19_qty1,
                5,
            ),
            branch(
                p.q19_brand2,
                &["MED BAG", "MED BOX", "MED PKG", "MED PACK"],
                p.q19_qty2,
                10,
            ),
            branch(
                p.q19_brand3,
                &["LG CASE", "LG BOX", "LG PACK", "LG PKG"],
                p.q19_qty3,
                15,
            ),
        ]),
        "Q19/sel_branches",
    )
    .project(
        vec![("rev", revenue("l_extendedprice", "l_discount"))],
        "Q19/rev",
    )
    .stream_agg(vec![sum_f64("rev")], "Q19/agg")
}

/// Q19: discounted revenue.
pub(crate) fn q19(db: &TpchData, ctx: &QueryContext, p: &Params) -> Result<QueryOutput, ExecError> {
    run_plan(q19_plan(db, p), ctx)
}

/// Q20 phase A: quantity shipped per (partkey, suppkey) in the year.
pub(crate) fn q20_shipped_plan(db: &TpchData, p: &Params) -> PlanBuilder {
    PlanBuilder::scan(
        db,
        "lineitem",
        &["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"],
    )
    .filter(
        NamedPred::And(vec![
            NamedPred::cmp_val("l_shipdate", CmpKind::Ge, Value::I32(p.q20_date)),
            NamedPred::cmp_val(
                "l_shipdate",
                CmpKind::Lt,
                Value::I32(add_years(p.q20_date, 1)),
            ),
        ]),
        "Q20/sel_shipdate",
    )
    .project(
        vec![
            ("l_partkey", col("l_partkey")),
            ("l_suppkey", col("l_suppkey")),
            ("qty", col("l_quantity").cast(DataType::I64)),
        ],
        "Q20/qty64",
    )
    .hash_agg(
        &["l_partkey", "l_suppkey"],
        vec![sum_i64("qty").named("sumqty")],
        "Q20/agg_shipped",
    )
}

/// Q20: potential part promotion.
pub(crate) fn q20(db: &TpchData, ctx: &QueryContext, p: &Params) -> Result<QueryOutput, ExecError> {
    let shipped_store = materialize_plan(q20_shipped_plan(db, p), ctx)?;
    let shipped_t = store_to_table("q20shipped", &["pk", "sk", "sumqty"], &shipped_store)?;
    let part_sel = PlanBuilder::scan(db, "part", &["p_partkey", "p_name"]).filter(
        NamedPred::like("p_name", format!("{}%", p.q20_color)),
        "Q20/sel_part",
    );
    let excess = PlanBuilder::scan(db, "partsupp", &["ps_partkey", "ps_suppkey", "ps_availqty"])
        .hash_join(
            part_sel,
            &[("ps_partkey", "p_partkey")],
            &[],
            JoinKind::Semi,
            true,
            "Q20/semi_part",
        )
        .hash_join(
            PlanBuilder::from_table(shipped_t, &["pk", "sk", "sumqty"]),
            &[("ps_partkey", "pk"), ("ps_suppkey", "sk")],
            &["sumqty"],
            JoinKind::Inner,
            false,
            "Q20/join_shipped",
        )
        // availqty > 0.5 * sumqty  ⟺  2*avail > sumqty
        .project(
            vec![
                ("ps_suppkey", col("ps_suppkey")),
                (
                    "lhs",
                    col("ps_availqty")
                        .cast(DataType::I64)
                        .mul(ma_executor::plan::lit_i64(2)),
                ),
                ("sumqty", col("sumqty")),
            ],
            "Q20/cmp",
        )
        .filter(
            NamedPred::cmp_col("lhs", CmpKind::Gt, "sumqty"),
            "Q20/sel_excess",
        );
    let nat = PlanBuilder::scan(db, "nation", &["n_nationkey", "n_name"])
        .filter(NamedPred::str_eq("n_name", p.q20_nation), "Q20/sel_nation");
    let out = PlanBuilder::scan(
        db,
        "supplier",
        &["s_suppkey", "s_name", "s_address", "s_nationkey"],
    )
    .hash_join(
        excess,
        &[("s_suppkey", "ps_suppkey")],
        &[],
        JoinKind::Semi,
        false,
        "Q20/semi_supp",
    )
    .hash_join(
        nat,
        &[("s_nationkey", "n_nationkey")],
        &[],
        JoinKind::Semi,
        false,
        "Q20/semi_nation",
    )
    .keep(&["s_name", "s_address"])
    .sort(&[asc("s_name")]);
    run_plan(out, ctx)
}

/// Q21's logical plan: suppliers who kept orders waiting. The EXISTS/NOT
/// EXISTS pair is rewritten over per-order min/max supplier aggregates
/// (see DESIGN.md): another supplier exists ⟺ min ≠ max among all lines;
/// no *other* late supplier ⟺ min = max among late lines.
pub(crate) fn q21_plan(db: &TpchData, p: &Params) -> PlanBuilder {
    let li_minmax = |late_only: bool, label: &str, min_name: &str, max_name: &str| -> PlanBuilder {
        // Only the late-lines filter reads the dates.
        let base = if late_only {
            let cols = ["l_orderkey", "l_suppkey", "l_commitdate", "l_receiptdate"];
            PlanBuilder::scan(db, "lineitem", &cols).filter(
                NamedPred::cmp_col("l_receiptdate", CmpKind::Gt, "l_commitdate"),
                &format!("{label}/late"),
            )
        } else {
            PlanBuilder::scan(db, "lineitem", &["l_orderkey", "l_suppkey"])
        };
        base.project(
            vec![
                ("l_orderkey", col("l_orderkey")),
                ("sk", col("l_suppkey").cast(DataType::I64)),
            ],
            &format!("{label}/sk64"),
        )
        .hash_agg(
            &["l_orderkey"],
            vec![min_i64("sk").named(min_name), max_i64("sk").named(max_name)],
            label,
        )
    };
    let nat = PlanBuilder::scan(db, "nation", &["n_nationkey", "n_name"])
        .filter(NamedPred::str_eq("n_name", p.q21_nation), "Q21/sel_nation");
    let sup = PlanBuilder::scan(db, "supplier", &["s_suppkey", "s_name", "s_nationkey"]).hash_join(
        nat,
        &[("s_nationkey", "n_nationkey")],
        &[],
        JoinKind::Semi,
        false,
        "Q21/semi_nation",
    );
    let ord_f = PlanBuilder::scan(db, "orders", &["o_orderkey", "o_orderstatus"])
        .filter(NamedPred::str_eq("o_orderstatus", "F"), "Q21/sel_status");
    PlanBuilder::scan(
        db,
        "lineitem",
        &["l_orderkey", "l_suppkey", "l_commitdate", "l_receiptdate"],
    )
    .filter(
        NamedPred::cmp_col("l_receiptdate", CmpKind::Gt, "l_commitdate"),
        "Q21/sel_late",
    )
    .hash_join(
        sup,
        &[("l_suppkey", "s_suppkey")],
        &["s_name"],
        JoinKind::Inner,
        true,
        "Q21/join_supp",
    )
    .hash_join(
        ord_f,
        &[("l_orderkey", "o_orderkey")],
        &[],
        JoinKind::Semi,
        true,
        "Q21/semi_orders",
    )
    .hash_join(
        li_minmax(false, "Q21/agg_all", "min_all", "max_all"),
        &[("l_orderkey", "l_orderkey")],
        &["min_all", "max_all"],
        JoinKind::Inner,
        false,
        "Q21/join_all",
    )
    .hash_join(
        li_minmax(true, "Q21/agg_late", "min_late", "max_late"),
        &[("l_orderkey", "l_orderkey")],
        &["min_late", "max_late"],
        JoinKind::Inner,
        false,
        "Q21/join_late",
    )
    // exists other supplier ∧ no other late supplier
    .filter(
        NamedPred::And(vec![
            NamedPred::cmp_col("min_all", CmpKind::Ne, "max_all"),
            NamedPred::cmp_col("min_late", CmpKind::Eq, "max_late"),
        ]),
        "Q21/sel_exists",
    )
    .hash_agg(&["s_name"], vec![count()], "Q21/agg")
    .top_n(&[desc("count"), asc("s_name")], 100)
}

/// Q21: suppliers who kept orders waiting.
pub(crate) fn q21(db: &TpchData, ctx: &QueryContext, p: &Params) -> Result<QueryOutput, ExecError> {
    run_plan(q21_plan(db, p), ctx)
}

/// The country-coded customer stream both Q22 phases read.
fn q22_customers_plan(db: &TpchData, p: &Params, label: &str) -> PlanBuilder {
    let codes: Vec<String> = p.q22_codes.iter().map(|s| s.to_string()).collect();
    PlanBuilder::scan(db, "customer", &["c_custkey", "c_phone", "c_acctbal"])
        .project(
            vec![
                ("c_custkey", col("c_custkey")),
                ("cc", substr("c_phone", 0, 2)),
                ("acct", col("c_acctbal").cast(DataType::F64)),
            ],
            &format!("{label}/proj"),
        )
        .filter(NamedPred::in_str("cc", codes), label)
}

/// Q22 phase A: sum/count of positive balances among coded customers.
pub(crate) fn q22_avg_plan(db: &TpchData, p: &Params) -> PlanBuilder {
    q22_customers_plan(db, p, "Q22/codes_a")
        .filter(
            NamedPred::cmp_val("acct", CmpKind::Gt, Value::F64(0.0)),
            "Q22/sel_positive",
        )
        .stream_agg(vec![sum_f64("acct"), count()], "Q22/avg")
}

/// Q22: global sales opportunity (two-phase: average balance, then the
/// anti-join against orders).
pub(crate) fn q22(db: &TpchData, ctx: &QueryContext, p: &Params) -> Result<QueryOutput, ExecError> {
    let avg_store = materialize_plan(q22_avg_plan(db, p), ctx)?;
    let sum = avg_store.col(0).as_f64()[0];
    let cnt = avg_store.col(1).as_i64()[0].max(1);
    let avgbal = sum / cnt as f64;
    let out = q22_customers_plan(db, p, "Q22/codes_b")
        .filter(
            NamedPred::cmp_val("acct", CmpKind::Gt, Value::F64(avgbal)),
            "Q22/sel_rich",
        )
        .hash_join(
            PlanBuilder::scan(db, "orders", &["o_custkey"]),
            &[("c_custkey", "o_custkey")],
            &[],
            JoinKind::Anti,
            true,
            "Q22/anti_orders",
        )
        .hash_agg(
            &["cc"],
            vec![
                count().named("numcust"),
                sum_f64("acct").named("totacctbal"),
            ],
            "Q22/agg",
        )
        .sort(&[asc("cc")]);
    run_plan(out, ctx)
}

#[cfg(test)]
mod tests {
    use super::super::test_support::run;

    #[test]
    fn q18_rows_sorted_by_totalprice() {
        let out = run(18);
        // Threshold 300 is strict; at tiny SF there may be few/no hits —
        // orders have up to 7 lines × 50 qty = 350 max.
        let tp = out.store.col(4).as_i64();
        for w in tp.windows(2) {
            assert!(w[0] >= w[1]);
        }
        let sq = out.store.col(5).as_i64();
        assert!(sq.iter().all(|&q| q > 300));
    }

    #[test]
    fn q19_revenue_nonnegative() {
        let out = run(19);
        assert_eq!(out.rows, 1);
        assert!(out.store.col(0).as_f64()[0] >= 0.0);
    }

    #[test]
    fn q20_supplier_names_sorted() {
        let out = run(20);
        let names: Vec<String> = (0..out.rows)
            .map(|g| out.store.col(0).as_str_vec().get(g).to_string())
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn q21_counts_positive() {
        let out = run(21);
        let cnt = out.store.col(1).as_i64();
        assert!(cnt.iter().all(|&c| c > 0));
        for w in cnt.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn q22_codes_sorted_with_positive_balances() {
        let out = run(22);
        assert!(
            out.rows >= 1,
            "some codes should have rich no-order customers"
        );
        let codes: Vec<String> = (0..out.rows)
            .map(|g| out.store.col(0).as_str_vec().get(g).to_string())
            .collect();
        let mut sorted = codes.clone();
        sorted.sort();
        assert_eq!(codes, sorted);
        // total balances positive (all selected were above a positive avg)
        assert!(out.store.col(2).as_f64().iter().all(|&b| b > 0.0));
    }
}
