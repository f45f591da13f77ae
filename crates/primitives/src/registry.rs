//! Builds the Primitive Dictionary: every signature → its full flavor set.
//!
//! Mirrors §3.1: Vectorwise's build extracts a *flavor library* from each
//! build environment and loads them all at kernel initialization. Here,
//! [`build_dictionary`] registers every concrete primitive instantiation
//! under its signature string with all its flavors and their provenance
//! metadata.
//!
//! Flavor naming conventions (used by the executor's flavor-set axes):
//! * algorithmic: `branching`/`no_branching`, `selective`/`full`,
//!   `fused`/`fission`, `unroll8`/`no_unroll`
//! * compiler styles: `gcc`, `icc`, `clang` (aliases may map to the same
//!   function as an algorithmic flavor — e.g. `gcc` is the plain-loop code
//!   style that is also the `branching`/`selective` default)
//!
//! Flavor index 0 is always the engine default.

use ma_core::{FlavorInfo, FlavorSet, FlavorSource, PrimitiveDictionary};

use crate::aggregate::*;
use crate::bloom::{
    sel_bloomfilter_fission, sel_bloomfilter_fused, sel_bloomfilter_prefetch, SelBloom,
};
use crate::decode::*;
use crate::group_table::*;
use crate::hashing::*;
use crate::like::{sel_like, sel_not_like, SelLike};
use crate::map_arith::*;
use crate::map_fetch::*;
use crate::merge::*;
use crate::ops::*;
use crate::selection::*;

const A: FlavorSource = FlavorSource::Algorithmic;
const C: FlavorSource = FlavorSource::CompilerStyle;
const D: FlavorSource = FlavorSource::Default;

fn fi(name: &'static str, source: FlavorSource) -> FlavorInfo {
    FlavorInfo::new(name, source)
}

/// An alias entry: a second name for a function already in the set.
fn fa(name: &'static str, source: FlavorSource) -> FlavorInfo {
    FlavorInfo::alias(name, source)
}

macro_rules! reg_sel {
    ($d:expr, $ty:ty, $tyname:literal, $( ($op:ty, $opname:literal) ),+ $(,)?) => {
        $(
            $d.register(FlavorSet::from_parts(
                format!("sel_{}_{}_col_val", $opname, $tyname),
                vec![
                    fi("branching", D),
                    fi("no_branching", A),
                    fi("icc", C),
                    fi("clang", C),
                    fi("unroll8", A),
                    fa("gcc", C),
                    fa("no_unroll", A),
                ],
                vec![
                    sel_col_val_branching::<$ty, $op> as SelColVal<$ty>,
                    sel_col_val_no_branching::<$ty, $op>,
                    sel_col_val_icc::<$ty, $op>,
                    sel_col_val_clang::<$ty, $op>,
                    sel_col_val_unroll8::<$ty, $op>,
                    sel_col_val_branching::<$ty, $op>, // gcc = plain branching loop
                    sel_col_val_no_branching::<$ty, $op>, // no_unroll counterpart of unroll8
                ],
            ));
            $d.register(FlavorSet::from_parts(
                format!("sel_{}_{}_col_col", $opname, $tyname),
                vec![
                    fi("branching", D),
                    fi("no_branching", A),
                    fi("clang", C),
                    fa("gcc", C),
                    fa("icc", C),
                ],
                vec![
                    sel_col_col_branching::<$ty, $op> as SelColCol<$ty>,
                    sel_col_col_no_branching::<$ty, $op>,
                    sel_col_col_clang::<$ty, $op>,
                    sel_col_col_branching::<$ty, $op>,
                    sel_col_col_no_branching::<$ty, $op>,
                ],
            ));
        )+
    };
}

macro_rules! reg_map {
    ($d:expr, $ty:ty, $tyname:literal, $( ($op:ty, $opname:literal) ),+ $(,)?) => {
        $(
            {
                let mut infos = vec![fi("selective", D)];
                let mut funcs: Vec<MapColCol<$ty>> =
                    vec![map_col_col_selective::<$ty, $op>];
                if <$op as ArithOp<$ty>>::FULL_SAFE {
                    infos.push(fi("full", A));
                    funcs.push(map_col_col_full::<$ty, $op>);
                }
                infos.extend([
                    fi("unroll8", A),
                    fi("icc", C),
                    fi("clang", C),
                    fa("gcc", C),
                    fa("no_unroll", A),
                ]);
                funcs.extend([
                    map_col_col_unroll8::<$ty, $op> as MapColCol<$ty>,
                    map_col_col_icc::<$ty, $op>,
                    map_col_col_clang::<$ty, $op>,
                    map_col_col_selective::<$ty, $op>, // gcc = plain loop
                    map_col_col_selective::<$ty, $op>, // no_unroll
                ]);
                $d.register(FlavorSet::from_parts(
                    format!("map_{}_{}_col_col", $opname, $tyname),
                    infos,
                    funcs,
                ));
            }
            {
                let mut infos = vec![fi("selective", D)];
                let mut funcs: Vec<MapColVal<$ty>> =
                    vec![map_col_val_selective::<$ty, $op>];
                if <$op as ArithOp<$ty>>::FULL_SAFE {
                    infos.push(fi("full", A));
                    funcs.push(map_col_val_full::<$ty, $op>);
                }
                infos.extend([
                    fi("unroll8", A),
                    fi("clang", C),
                    fa("gcc", C),
                    fa("no_unroll", A),
                ]);
                funcs.extend([
                    map_col_val_unroll8::<$ty, $op> as MapColVal<$ty>,
                    map_col_val_clang::<$ty, $op>,
                    map_col_val_selective::<$ty, $op>,
                    map_col_val_selective::<$ty, $op>,
                ]);
                $d.register(FlavorSet::from_parts(
                    format!("map_{}_{}_col_val", $opname, $tyname),
                    infos,
                    funcs,
                ));
            }
        )+
    };
}

/// Builds the complete Primitive Dictionary used by the executor.
pub fn build_dictionary() -> PrimitiveDictionary {
    let mut d = PrimitiveDictionary::new();

    // --- selection: 6 comparison ops × {i16,i32,i64,f64} × {val,col} -------
    reg_sel!(
        d,
        i16,
        "i16",
        (Lt, "lt"),
        (Le, "le"),
        (Gt, "gt"),
        (Ge, "ge"),
        (EqOp, "eq"),
        (NeOp, "ne")
    );
    reg_sel!(
        d,
        i32,
        "i32",
        (Lt, "lt"),
        (Le, "le"),
        (Gt, "gt"),
        (Ge, "ge"),
        (EqOp, "eq"),
        (NeOp, "ne")
    );
    reg_sel!(
        d,
        i64,
        "i64",
        (Lt, "lt"),
        (Le, "le"),
        (Gt, "gt"),
        (Ge, "ge"),
        (EqOp, "eq"),
        (NeOp, "ne")
    );
    reg_sel!(
        d,
        f64,
        "f64",
        (Lt, "lt"),
        (Le, "le"),
        (Gt, "gt"),
        (Ge, "ge"),
        (EqOp, "eq"),
        (NeOp, "ne")
    );

    // --- string selections --------------------------------------------------
    d.register(FlavorSet::from_parts(
        "sel_eq_str_col_val",
        vec![fi("branching", D), fi("no_branching", A)],
        vec![
            sel_str_eq_branching as SelStrColVal,
            sel_str_eq_no_branching,
        ],
    ));
    d.register(FlavorSet::from_parts(
        "sel_ne_str_col_val",
        vec![fi("branching", D), fi("no_branching", A)],
        vec![
            sel_str_ne_branching as SelStrColVal,
            sel_str_ne_no_branching,
        ],
    ));
    d.register(FlavorSet::new(
        "sel_like_str_col_val",
        fi("default", D),
        sel_like as SelLike,
    ));
    d.register(FlavorSet::new(
        "sel_notlike_str_col_val",
        fi("default", D),
        sel_not_like as SelLike,
    ));

    // --- map arithmetic: 4 ops × {i64,f64} × {col,val} ----------------------
    reg_map!(
        d,
        i64,
        "i64",
        (Add, "add"),
        (Sub, "sub"),
        (Mul, "mul"),
        (Div, "div")
    );
    reg_map!(
        d,
        f64,
        "f64",
        (Add, "add"),
        (Sub, "sub"),
        (Mul, "mul"),
        (Div, "div")
    );
    // i16/i32 multiplication exist for the Table 4 / Fig. 8 micro-benchmarks
    // (data-type axis of the full-computation experiment).
    reg_map!(d, i16, "i16", (Mul, "mul"), (Add, "add"));
    reg_map!(d, i32, "i32", (Mul, "mul"), (Add, "add"));

    // --- casts ---------------------------------------------------------------
    d.register(FlavorSet::new(
        "map_cast_i16_i32",
        fi("default", D),
        map_cast_i16_i32 as MapCast<i16, i32>,
    ));
    d.register(FlavorSet::new(
        "map_cast_i16_i64",
        fi("default", D),
        map_cast_i16_i64 as MapCast<i16, i64>,
    ));
    d.register(FlavorSet::new(
        "map_cast_i16_f64",
        fi("default", D),
        map_cast_i16_f64 as MapCast<i16, f64>,
    ));
    d.register(FlavorSet::new(
        "map_cast_i32_i64",
        fi("default", D),
        map_cast_i32_i64 as MapCast<i32, i64>,
    ));
    d.register(FlavorSet::new(
        "map_cast_i32_f64",
        fi("default", D),
        map_cast_i32_f64 as MapCast<i32, f64>,
    ));
    d.register(FlavorSet::new(
        "map_cast_i64_f64",
        fi("default", D),
        map_cast_i64_f64 as MapCast<i64, f64>,
    ));

    // --- fetch (gather) ------------------------------------------------------
    macro_rules! reg_fetch {
        ($ty:ty, $tyname:literal) => {
            d.register(FlavorSet::from_parts(
                format!("map_fetch_{}_col", $tyname),
                vec![fi("gcc", C), fi("icc", C), fi("clang", C)],
                vec![
                    map_fetch_gcc::<$ty> as MapFetch<$ty>,
                    map_fetch_icc::<$ty>,
                    map_fetch_clang::<$ty>,
                ],
            ));
        };
    }
    reg_fetch!(i16, "i16");
    reg_fetch!(i32, "i32");
    reg_fetch!(i64, "i64");
    reg_fetch!(f64, "f64");
    d.register(FlavorSet::from_parts(
        "map_fetch_str_col",
        vec![fi("gcc", C), fi("icc", C), fi("clang", C)],
        vec![
            map_fetch_str_gcc as MapFetchStr,
            map_fetch_str_icc,
            map_fetch_str_clang,
        ],
    ));

    // --- hashing -------------------------------------------------------------
    d.register(FlavorSet::from_parts(
        "map_hash_i32_col",
        vec![fi("gcc", C), fi("icc", C), fi("clang", C)],
        vec![
            map_hash_i32_gcc as MapHash<i32>,
            map_hash_i32_icc,
            map_hash_i32_clang,
        ],
    ));
    d.register(FlavorSet::from_parts(
        "map_hash_i64_col",
        vec![fi("gcc", C), fi("icc", C), fi("clang", C)],
        vec![
            map_hash_i64_gcc as MapHash<i64>,
            map_hash_i64_icc,
            map_hash_i64_clang,
        ],
    ));
    d.register(FlavorSet::from_parts(
        "map_hash_str_col",
        vec![fi("gcc", C), fi("clang", C)],
        vec![map_hash_str_gcc as MapHashStr, map_hash_str_clang],
    ));
    d.register(FlavorSet::new(
        "map_rehash_i32_col",
        fi("gcc", C),
        map_rehash_i32_gcc as MapRehash<i32>,
    ));
    d.register(FlavorSet::new(
        "map_rehash_i64_col",
        fi("gcc", C),
        map_rehash_i64_gcc as MapRehash<i64>,
    ));
    d.register(FlavorSet::new(
        "map_rehash_str_col",
        fi("gcc", C),
        map_rehash_str_gcc as MapRehashStr,
    ));

    // --- merge join kernel (Fig. 4c / Fig. 5) --------------------------------
    d.register(FlavorSet::from_parts(
        "mergejoin_i64_col_i64_col",
        vec![fi("gcc", C), fi("icc", C), fi("clang", C)],
        vec![
            mergejoin_i64_gcc as MergeJoinFn,
            mergejoin_i64_icc,
            mergejoin_i64_clang,
        ],
    ));

    // --- compressed-column decode kernels ------------------------------------
    // Every decode signature carries >= 3 flavors so the per-morsel bandit
    // has real arms to pick between (xtask lint rule 6 enforces coverage).
    d.register(FlavorSet::from_parts(
        "decode_for_i32",
        vec![
            fi("branching", D),
            fi("no_branching", A),
            fi("unroll8", A),
            fi("by_width", A),
        ],
        vec![
            decode_for_i32_branching as DecodeForCol<i32>,
            decode_for_i32_no_branching,
            decode_for_i32_unroll8,
            decode_for_i32_by_width,
        ],
    ));
    d.register(FlavorSet::from_parts(
        "decode_for_i64",
        vec![
            fi("branching", D),
            fi("no_branching", A),
            fi("unroll8", A),
            fi("by_width", A),
        ],
        vec![
            decode_for_i64_branching as DecodeForCol<i64>,
            decode_for_i64_no_branching,
            decode_for_i64_unroll8,
            decode_for_i64_by_width,
        ],
    ));
    d.register(FlavorSet::from_parts(
        "decode_delta_i32",
        vec![
            fi("branching", D),
            fi("no_branching", A),
            fi("unroll8", A),
            fi("by_width", A),
        ],
        vec![
            decode_delta_i32_branching as DecodeDeltaCol,
            decode_delta_i32_no_branching,
            decode_delta_i32_unroll8,
            decode_delta_i32_by_width,
        ],
    ));
    d.register(FlavorSet::from_parts(
        "decode_dict_str",
        vec![
            fi("fused", D),
            fi("fission", A),
            fi("unroll8", A),
            fi("by_width", A),
        ],
        vec![
            decode_dict_str_fused as DecodeDictCol,
            decode_dict_str_fission,
            decode_dict_str_unroll8,
            decode_dict_str_by_width,
        ],
    ));

    // --- bloom filter (loop fission flavor set, §2 Listings 5/6) -------------
    d.register(FlavorSet::from_parts(
        "sel_bloomfilter",
        vec![fi("fused", D), fi("fission", A), fi("prefetch", A)],
        vec![
            sel_bloomfilter_fused as SelBloom,
            sel_bloomfilter_fission,
            sel_bloomfilter_prefetch,
        ],
    ));

    // --- group tables ---------------------------------------------------------
    d.register(FlavorSet::from_parts(
        "hash_insertcheck_u64_col",
        vec![fi("gcc", C), fi("icc", C), fi("clang", C)],
        vec![
            hash_insertcheck_u64_gcc as GroupInsertCheck,
            hash_insertcheck_u64_icc,
            hash_insertcheck_u64_clang,
        ],
    ));
    d.register(FlavorSet::from_parts(
        "hash_insertcheck_str_col",
        vec![fi("gcc", C), fi("icc", C), fi("clang", C)],
        vec![
            hash_insertcheck_str_gcc as StrGroupInsertCheck,
            hash_insertcheck_str_icc,
            hash_insertcheck_str_clang,
        ],
    ));
    // Direct indexing has no code shape worth a second flavor.
    d.register(FlavorSet::new(
        "hash_insertcheck_dense_col",
        fi("default", D),
        hash_insertcheck_dense as DenseInsertCheck,
    ));

    // --- grouped aggregation ----------------------------------------------------
    d.register(FlavorSet::from_parts(
        "aggr_sum128_i64_col",
        vec![fi("gcc", C), fi("icc", C), fi("clang", C)],
        vec![
            aggr_sum128_i64_gcc as AggrSumI64Grouped,
            aggr_sum128_i64_icc,
            aggr_sum128_i64_clang,
        ],
    ));
    d.register(FlavorSet::from_parts(
        "aggr_sum_f64_col",
        vec![fi("gcc", C), fi("icc", C), fi("clang", C)],
        vec![
            aggr_sum_f64_gcc as AggrSumF64Grouped,
            aggr_sum_f64_icc,
            aggr_sum_f64_clang,
        ],
    ));
    d.register(FlavorSet::from_parts(
        "aggr_count",
        vec![fi("gcc", C), fi("clang", C)],
        vec![aggr_count_gcc as AggrCountGrouped, aggr_count_clang],
    ));
    d.register(FlavorSet::new(
        "aggr_min_i64_col",
        fi("default", D),
        aggr_min_i64_grouped as AggrMinMaxI64Grouped,
    ));
    d.register(FlavorSet::new(
        "aggr_max_i64_col",
        fi("default", D),
        aggr_max_i64_grouped as AggrMinMaxI64Grouped,
    ));
    d.register(FlavorSet::new(
        "aggr_min_f64_col",
        fi("default", D),
        aggr_min_f64_grouped as AggrMinMaxF64Grouped,
    ));
    d.register(FlavorSet::new(
        "aggr_max_f64_col",
        fi("default", D),
        aggr_max_f64_grouped as AggrMinMaxF64Grouped,
    ));

    // --- ungrouped aggregation ----------------------------------------------------
    d.register(FlavorSet::from_parts(
        "aggr0_sum128_i64_col",
        vec![fi("gcc", C), fi("icc", C), fi("clang", C)],
        vec![
            aggr0_sum128_i64_gcc as AggrSumI64,
            aggr0_sum128_i64_icc,
            aggr0_sum128_i64_clang,
        ],
    ));
    d.register(FlavorSet::from_parts(
        "aggr0_sum_f64_col",
        vec![fi("gcc", C), fi("clang", C)],
        vec![aggr0_sum_f64_gcc as AggrSumF64, aggr0_sum_f64_clang],
    ));
    d.register(FlavorSet::new(
        "aggr0_min_i64_col",
        fi("default", D),
        aggr0_min_i64 as AggrMinMaxI64,
    ));
    d.register(FlavorSet::new(
        "aggr0_max_i64_col",
        fi("default", D),
        aggr0_max_i64 as AggrMinMaxI64,
    ));
    d.register(FlavorSet::new(
        "aggr0_min_f64_col",
        fi("default", D),
        aggr0_min_f64 as AggrMinMaxF64,
    ));
    d.register(FlavorSet::new(
        "aggr0_max_f64_col",
        fi("default", D),
        aggr0_max_f64 as AggrMinMaxF64,
    ));

    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dictionary_is_well_populated() {
        let d = build_dictionary();
        // 6 ops × 4 types × 2 shapes = 48 numeric selections alone.
        assert!(d.len() > 90, "got only {} signatures", d.len());
    }

    #[test]
    fn key_signatures_present() {
        let d = build_dictionary();
        for sig in [
            "sel_lt_i32_col_val",
            "sel_ge_i64_col_col",
            "sel_eq_str_col_val",
            "sel_like_str_col_val",
            "decode_for_i32",
            "decode_for_i64",
            "decode_delta_i32",
            "decode_dict_str",
            "map_mul_i64_col_col",
            "map_mul_i16_col_col",
            "map_add_f64_col_val",
            "map_cast_i32_i64",
            "map_fetch_str_col",
            "map_hash_i64_col",
            "sel_bloomfilter",
            "mergejoin_i64_col_i64_col",
            "hash_insertcheck_str_col",
            "hash_insertcheck_dense_col",
            "aggr_sum128_i64_col",
            "aggr0_sum_f64_col",
        ] {
            assert!(d.contains(sig), "missing {sig}");
        }
    }

    #[test]
    fn selection_flavor_sets_have_all_axes() {
        let d = build_dictionary();
        let s = d.lookup::<SelColVal<i32>>("sel_lt_i32_col_val").unwrap();
        for name in [
            "branching",
            "no_branching",
            "gcc",
            "icc",
            "clang",
            "unroll8",
            "no_unroll",
        ] {
            assert!(s.index_of(name).is_some(), "missing flavor {name}");
        }
        assert_eq!(s.info(0).name, "branching", "default must be branching");
    }

    #[test]
    fn div_has_no_full_flavor_for_ints_but_does_for_floats() {
        let d = build_dictionary();
        let di = d.lookup::<MapColCol<i64>>("map_div_i64_col_col").unwrap();
        assert!(di.index_of("full").is_none());
        let df = d.lookup::<MapColCol<f64>>("map_div_f64_col_col").unwrap();
        assert!(df.index_of("full").is_some());
        let mi = d.lookup::<MapColCol<i64>>("map_mul_i64_col_col").unwrap();
        assert!(mi.index_of("full").is_some());
    }

    #[test]
    fn registered_functions_are_callable() {
        let d = build_dictionary();
        let s = d.lookup::<SelColVal<i32>>("sel_lt_i32_col_val").unwrap();
        let col = [5i32, 1, 9];
        let mut res = [0u32; 3];
        for i in 0..s.len() {
            let k = (s.flavor(i))(&mut res, &col, 6, None);
            assert_eq!(k, 2, "flavor {}", s.info(i).name);
        }
    }

    #[test]
    fn canonical_subsets_have_no_duplicate_functions() {
        let d = build_dictionary();
        let s = d.lookup::<SelColVal<i32>>("sel_lt_i32_col_val").unwrap();
        let c = s.canonical_subset();
        assert_eq!(c.len(), 5); // branching, no_branching, icc, clang, unroll8
        let m = d.lookup::<MapColCol<i64>>("map_mul_i64_col_col").unwrap();
        let c = m.canonical_subset();
        assert_eq!(c.len(), 5); // selective, full, unroll8, icc, clang
    }

    #[test]
    fn compiler_subset_extracts_three_styles() {
        let d = build_dictionary();
        let s = d.lookup::<MapColCol<i64>>("map_mul_i64_col_col").unwrap();
        let sub = s.subset(&["gcc", "icc", "clang"]).unwrap();
        assert_eq!(sub.len(), 3);
        let sub = s.subset(&["selective", "full"]).unwrap();
        assert_eq!(sub.len(), 2);
        let sub = s.subset(&["unroll8", "no_unroll"]).unwrap();
        assert_eq!(sub.len(), 2);
    }
}
