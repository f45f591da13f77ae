//! TPC-H Q1, Q3, Q6 and Q12 in the text DSL: the four queries of
//! `crates/tpch/tests/dsl_queries.rs`, copied here so that the front end
//! can be timed without depending on a test file.

use ma_tpch::dates::add_years;
use ma_tpch::Params;

pub fn dsl_texts(p: &Params) -> [String; 4] {
    let q1 = format!(
        "from lineitem [l_shipdate, l_returnflag, l_linestatus, l_quantity, \
                        l_extendedprice, l_discount, l_tax] \
         | where l_shipdate <= {cutoff} \
         | select l_returnflag = l_returnflag, l_linestatus = l_linestatus, \
                  qty = i64(l_quantity), base = l_extendedprice, \
                  disc_price = f64(l_extendedprice) * (f64(l_discount) * 0.01 * -1.0 + 1.0), \
                  charge = f64(l_extendedprice) * (f64(l_discount) * 0.01 * -1.0 + 1.0) \
                           * (f64(l_tax) * 0.01 + 1.0), \
                  disc = f64(l_discount) * 0.01 \
         | agg by [l_returnflag, l_linestatus] \
               [sum(qty) as sum_qty, sum(base) as sum_base, \
                sum(disc_price) as sum_disc_price, sum(charge) as sum_charge, \
                sum(disc) as sum_disc, count as cnt] \
         | select l_returnflag = l_returnflag, l_linestatus = l_linestatus, \
                  sum_qty = sum_qty, sum_base = sum_base, \
                  sum_disc_price = sum_disc_price, sum_charge = sum_charge, \
                  avg_qty = f64(sum_qty) / f64(cnt), \
                  avg_price = f64(sum_base) / f64(cnt), \
                  avg_disc = sum_disc / f64(cnt), \
                  cnt = cnt \
         | order by l_returnflag, l_linestatus",
        cutoff = p.q1_cutoff()
    );
    let q3 = format!(
        "from lineitem [l_orderkey, l_shipdate, l_extendedprice, l_discount] \
         | where l_shipdate > {d} \
         | join inner (from orders [o_orderkey, o_custkey, o_orderdate, o_shippriority] \
                       | where o_orderdate < {d} \
                       | join semi (from customer [c_custkey, c_mktsegment] \
                                    | where c_mktsegment = \"{seg}\") \
                              on o_custkey = c_custkey bloom) \
                on l_orderkey = o_orderkey payload [o_orderdate, o_shippriority] bloom \
         | select l_orderkey = l_orderkey, o_orderdate = o_orderdate, \
                  o_shippriority = o_shippriority, \
                  rev = f64(l_extendedprice) * (f64(l_discount) * 0.01 * -1.0 + 1.0) \
         | agg by [l_orderkey, o_orderdate, o_shippriority] [sum(rev) as sum_rev] \
         | keep [l_orderkey, sum_rev, o_orderdate, o_shippriority] \
         | top 10 by sum_rev desc, o_orderdate",
        d = p.q3_date,
        seg = p.q3_segment
    );
    let q6 = format!(
        "from lineitem [l_shipdate, l_discount, l_quantity, l_extendedprice] \
         | where l_shipdate >= {d} and l_shipdate < {d1} \
               and l_discount >= {lo} and l_discount <= {hi} and l_quantity < {q} \
         | select rev = f64(l_extendedprice) * (f64(l_discount) * 0.01) \
         | agg [sum(rev) as revenue]",
        d = p.q6_date,
        d1 = add_years(p.q6_date, 1),
        lo = p.q6_discount_pct - 1,
        hi = p.q6_discount_pct + 1,
        q = p.q6_quantity
    );
    let q12 = format!(
        "from lineitem [l_orderkey, l_shipmode, l_shipdate, l_commitdate, l_receiptdate] \
         | where l_shipmode in (\"{m1}\", \"{m2}\") \
               and l_receiptdate >= {d} and l_receiptdate < {d1} \
               and l_commitdate < l_receiptdate and l_shipdate < l_commitdate \
         | merge join (from orders [o_orderkey, o_orderpriority]) \
                on l_orderkey = o_orderkey payload [o_orderpriority] \
         | agg by [l_shipmode, o_orderpriority] [count as cnt]",
        m1 = p.q12_shipmode1,
        m2 = p.q12_shipmode2,
        d = p.q12_date,
        d1 = add_years(p.q12_date, 1)
    );
    [q1, q3, q6, q12]
}
