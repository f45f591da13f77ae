//! Thirteen primitives timed in isolation, on the workload's own columns
//! and the queries' own literals, one vector at a time as the executor
//! calls them. `default_ns` is flavor 0 (what the stock engine runs),
//! `best_ns` the fastest flavor the bandit may choose; both in ns/tuple.
//! A gain here that does not move the matching in-situ `prim.*_ms` is a
//! kernel win the pipeline swallowed.

use std::hint::black_box;
use std::time::Instant;

use ma_core::{FlavorSet, PrimitiveDictionary};
use ma_primitives::hashing::hash_u64;
use ma_primitives::{
    AggrSumF64Grouped, BloomFilter, DecodeDeltaCol, DecodeDictCol, DecodeForCol, GroupInsertCheck,
    GroupTable, LikePattern, MapColCol, MapFetchStr, MapHash, SelBloom, SelColCol, SelColVal,
    SelLike, SelStrColVal,
};
use ma_tpch::TpchData;
use ma_vector::encode::{part_ranges, DeltaInts, DictStr, ForInts, ENC_PART_ROWS, SYNC_ROWS};
use ma_vector::{Column, DataType, Table, Vector, VECTOR_SIZE};

use crate::report::Metric;

/// Rows each kernel runs over (fewer when the column is shorter).
const KERNEL_ROWS: usize = 64 * VECTOR_SIZE;
/// Runs per flavor; the fastest counts.
const REPEATS: usize = 7;

/// The kernels measured, in metric order.
pub const KERNELS: [&str; 13] = [
    "sel_lt_i32_col_val",
    "sel_ge_i64_col_col",
    "sel_eq_str_col_val",
    "sel_like_str_col_val",
    "sel_bloomfilter",
    "map_mul_i64_col_col",
    "map_hash_i64_col",
    "hash_insertcheck_u64_col",
    "aggr_sum_f64_col",
    "map_fetch_str_col",
    "decode_for_i32",
    "decode_delta_i32",
    "decode_dict_str",
];

fn flavors<F>(dict: &PrimitiveDictionary, sig: &str) -> Result<FlavorSet<F>, String>
where
    F: Copy + Send + Sync + 'static,
{
    dict.lookup::<F>(sig)
        .map(|set| set.canonical_subset())
        .ok_or_else(|| format!("no primitive {sig} in the dictionary"))
}

/// Times `run` with every flavor of `set` over `tuples` tuples and appends
/// the two metrics of the kernel.
fn measure<F: Copy>(
    out: &mut Vec<Metric>,
    set: &FlavorSet<F>,
    tuples: usize,
    mut run: impl FnMut(F),
) {
    let per_flavor: Vec<f64> = (0..set.len())
        .map(|i| {
            let f = set.flavor(i);
            let fastest = (0..REPEATS)
                .map(|_| {
                    let t = Instant::now();
                    run(f);
                    t.elapsed().as_nanos() as f64
                })
                .fold(f64::INFINITY, f64::min);
            fastest / tuples.max(1) as f64
        })
        .collect();
    let best = per_flavor.iter().copied().fold(f64::INFINITY, f64::min);
    let sig = set.signature();
    out.push(Metric::new(
        &format!("kern.{sig}.default_ns"),
        per_flavor[0],
        "ns",
    ));
    out.push(Metric::new(&format!("kern.{sig}.best_ns"), best, "ns"));
}

fn column<'a>(table: &'a Table, name: &str) -> Result<&'a Column, String> {
    table.column(name).map_err(|e| e.to_string())
}

/// The first `KERNEL_ROWS` rows of a column, as the vectors a scan would
/// hand out.
fn vectors(table: &Table, name: &str) -> Result<Vec<Vector>, String> {
    let col = column(table, name)?;
    let n = col.len().min(KERNEL_ROWS);
    Ok((0..n)
        .step_by(VECTOR_SIZE)
        .map(|start| col.slice_vector(start, VECTOR_SIZE.min(n - start)))
        .collect())
}

/// Walks `n` rows one vector at a time, as a scan does, and calls
/// `decode(offset in the vector, partition, first row in it, rows)` for
/// each encoded partition a vector touches.
fn each_vector_part(n: usize, mut decode: impl FnMut(usize, usize, usize, usize)) {
    for start in (0..n).step_by(VECTOR_SIZE) {
        let mut o = 0;
        for (p, first, m) in part_ranges(start, VECTOR_SIZE.min(n - start)) {
            decode(o, p, first, m);
            o += m;
        }
    }
}

fn rows(vs: &[Vector]) -> usize {
    vs.iter().map(Vector::len).sum()
}

/// All kernel metrics. `lineitem` is the raw (decoded) table.
pub fn kernel_metrics(
    dict: &PrimitiveDictionary,
    db: &TpchData,
    lineitem: &Table,
    params: &ma_tpch::Params,
) -> Result<Vec<Metric>, String> {
    let mut out = Vec::with_capacity(2 * KERNELS.len());
    let mut res = vec![0u32; VECTOR_SIZE];

    let quantity = vectors(lineitem, "l_quantity")?;
    let extprice = vectors(lineitem, "l_extendedprice")?;
    let discount = vectors(lineitem, "l_discount")?;
    let tax = vectors(lineitem, "l_tax")?;
    let shipmode = vectors(lineitem, "l_shipmode")?;
    let orderkey = vectors(lineitem, "l_orderkey")?;
    let partkey = vectors(lineitem, "l_partkey")?;
    let linenumber = vectors(lineitem, "l_linenumber")?;
    let n = rows(&quantity);

    // Q6: l_quantity < 24.
    let set = flavors::<SelColVal<i32>>(dict, KERNELS[0])?;
    measure(&mut out, &set, n, |f| {
        for v in &quantity {
            black_box(f(&mut res, v.as_i32(), params.q6_quantity, None));
        }
    });

    // No query compares two i64 columns; discount ≥ tax is the closest the
    // schema offers and passes about half the rows, the hard case for a
    // branching selection.
    let set = flavors::<SelColCol<i64>>(dict, KERNELS[1])?;
    measure(&mut out, &set, n, |f| {
        for (a, b) in discount.iter().zip(&tax) {
            black_box(f(&mut res, a.as_i64(), b.as_i64(), None));
        }
    });

    // Q12: l_shipmode = 'MAIL'.
    let set = flavors::<SelStrColVal>(dict, KERNELS[2])?;
    measure(&mut out, &set, n, |f| {
        for v in &shipmode {
            black_box(f(&mut res, v.as_str_vec(), params.q12_shipmode1, None));
        }
    });

    // Q9: p_name like '%green%'.
    let names = vectors(&db.part, "p_name")?;
    let pattern = LikePattern::compile(&format!("%{}%", params.q9_color));
    let set = flavors::<SelLike>(dict, KERNELS[3])?;
    measure(&mut out, &set, rows(&names), |f| {
        for v in &names {
            black_box(f(&mut res, v.as_str_vec(), &pattern, None));
        }
    });

    // Q3: lineitem probes a bloom filter over the orders before the date.
    let o_key = column(&db.orders, "o_orderkey")?.slice_vector(0, db.orders.rows());
    let o_date = column(&db.orders, "o_orderdate")?.slice_vector(0, db.orders.rows());
    let build_keys: Vec<u64> = o_key
        .as_i32()
        .iter()
        .zip(o_date.as_i32())
        .filter(|(_, &d)| d < params.q3_date)
        .map(|(&k, _)| k as u64)
        .collect();
    let mut bloom = BloomFilter::for_keys(build_keys.len());
    for &k in &build_keys {
        bloom.insert_key(k);
    }
    let key_hashes: Vec<Vec<u64>> = orderkey
        .iter()
        .map(|v| v.as_i32().iter().map(|&k| hash_u64(k as u64)).collect())
        .collect();
    let set = flavors::<SelBloom>(dict, KERNELS[4])?;
    measure(&mut out, &set, n, |f| {
        for h in &key_hashes {
            black_box(f(&mut res, &bloom, h, None));
        }
    });

    // Q1/Q6 revenue arithmetic: extendedprice × discount.
    let mut product = vec![0i64; VECTOR_SIZE];
    let set = flavors::<MapColCol<i64>>(dict, KERNELS[5])?;
    measure(&mut out, &set, n, |f| {
        for (a, b) in extprice.iter().zip(&discount) {
            f(&mut product[..a.len()], a.as_i64(), b.as_i64(), None);
            black_box(&product);
        }
    });

    // Join and group keys are hashed as i64.
    let wide_keys: Vec<Vec<i64>> = orderkey
        .iter()
        .map(|v| v.as_i32().iter().map(|&k| i64::from(k)).collect())
        .collect();
    let mut hashes = vec![0u64; VECTOR_SIZE];
    let set = flavors::<MapHash<i64>>(dict, KERNELS[6])?;
    measure(&mut out, &set, n, |f| {
        for k in &wide_keys {
            f(&mut hashes[..k.len()], k, None);
            black_box(&hashes);
        }
    });

    // Group-id assignment by l_partkey into a fresh table per run, with
    // the per-chunk reserve the aggregate operator makes.
    let group_keys: Vec<(Vec<u64>, Vec<u64>)> = partkey
        .iter()
        .map(|v| {
            let keys: Vec<u64> = v.as_i32().iter().map(|&k| k as u64).collect();
            let hashes = keys.iter().map(|&k| hash_u64(k)).collect();
            (keys, hashes)
        })
        .collect();
    let mut gids = vec![0u32; VECTOR_SIZE];
    let set = flavors::<GroupInsertCheck>(dict, KERNELS[7])?;
    measure(&mut out, &set, n, |f| {
        let mut table = GroupTable::new();
        for (keys, hashes) in &group_keys {
            table.reserve(keys.len());
            black_box(f(&mut table, hashes, keys, &mut gids[..keys.len()], None));
        }
    });

    // Grouped f64 sum into a handful of groups, as Q1's aggregates.
    let grouped: Vec<(Vec<u32>, Vec<f64>)> = linenumber
        .iter()
        .zip(&extprice)
        .map(|(g, p)| {
            (
                g.as_i32().iter().map(|&l| (l - 1) as u32).collect(),
                p.as_i64().iter().map(|&c| c as f64).collect(),
            )
        })
        .collect();
    let mut accs = vec![0f64; 8];
    let set = flavors::<AggrSumF64Grouped>(dict, KERNELS[8])?;
    measure(&mut out, &set, n, |f| {
        for (g, p) in &grouped {
            f(&mut accs, g, p, None);
        }
        black_box(&accs);
    });

    // Join payload fetch: p_name gathered by l_partkey.
    let all_names = column(&db.part, "p_name")?.slice_vector(0, db.part.rows());
    let src = all_names.as_str_vec();
    let fetch_idx: Vec<Vec<u32>> = partkey
        .iter()
        .map(|v| v.as_i32().iter().map(|&k| (k - 1) as u32).collect())
        .collect();
    let mut fetched = src.writable_like(VECTOR_SIZE);
    let set = flavors::<MapFetchStr>(dict, KERNELS[9])?;
    measure(&mut out, &set, n, |f| {
        for idx in &fetch_idx {
            f(&mut fetched, src, idx, None);
            black_box(&fetched);
        }
    });

    // The three decode kernels, over codecs built from the same rows with
    // the public constructors, so that they do not depend on which codec
    // `encode_table` happens to choose per column.
    let qty_rows: Vec<i64> = quantity
        .iter()
        .flat_map(|v| v.as_i32().iter().map(|&x| i64::from(x)))
        .collect();
    let enc = ForInts::encode(DataType::I32, &qty_rows);
    let mut ints = vec![0i32; VECTOR_SIZE];
    let set = flavors::<DecodeForCol<i32>>(dict, KERNELS[10])?;
    measure(&mut out, &set, n, |f| {
        each_vector_part(n, |o, p, first, m| {
            let part = &enc.parts[p];
            let pbit0 = (part.word0 as u64) * 64;
            f(
                &mut ints[o..],
                &enc.words,
                pbit0,
                part.width,
                part.base,
                first,
                m,
            );
        });
        black_box(&ints);
    });

    // l_orderkey is the clustering key: nondecreasing, delta-coded.
    let key_rows: Vec<i32> = orderkey.iter().flat_map(|v| v.as_i32().to_vec()).collect();
    let enc = DeltaInts::encode(&key_rows);
    let set = flavors::<DecodeDeltaCol>(dict, KERNELS[11])?;
    measure(&mut out, &set, n, |f| {
        each_vector_part(n, |o, p, first, m| {
            let part = &enc.parts[p];
            let pbit0 = (part.word0 as u64) * 64;
            let bases = &enc.sync[p * (ENC_PART_ROWS / SYNC_ROWS)..];
            f(
                &mut ints[o..],
                &enc.words,
                pbit0,
                part.width,
                bases,
                first,
                m,
            );
        });
        black_box(&ints);
    });

    let Column::Str { arena, views } = column(lineitem, "l_shipmode")? else {
        return Err("l_shipmode of the decoded lineitem is not a raw string column".into());
    };
    let enc = DictStr::encode(arena, &views[..n]);
    let mut views_out = vec![(0u32, 0u32); VECTOR_SIZE];
    let mut codes_out = vec![0i32; VECTOR_SIZE];
    let set = flavors::<DecodeDictCol>(dict, KERNELS[12])?;
    measure(&mut out, &set, n, |f| {
        each_vector_part(n, |o, p, first, m| {
            let pbit0 = (enc.parts[p].word0 as u64) * 64;
            f(
                &mut views_out[o..],
                &mut codes_out[o..],
                &enc.words,
                pbit0,
                enc.width,
                &enc.views,
                first,
                m,
            );
        });
        black_box((&views_out, &codes_out));
    });

    Ok(out)
}
