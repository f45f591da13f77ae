#![warn(missing_docs)]
//! # ma-primitives — the vectorized primitive flavor library
//!
//! Vectorwise implements all data processing in *primitive functions*: tight
//! loops over input vectors producing output vectors (§1). Micro Adaptivity
//! ships several interchangeable implementations ("flavors") of each and
//! picks between them at runtime. This crate is that library:
//!
//! | Module | Primitives | Flavor sets |
//! |---|---|---|
//! | [`selection`] | `sel_{lt,le,gt,ge,eq,ne}_{i16,i32,i64,f64,str}` | branching / no-branching (§1 Listings 1–2), compiler styles, hand-unroll |
//! | [`map_arith`] | `map_{add,sub,mul,div}`, casts | selective / full computation (§2 Fig. 7), hand-unroll (Listing 7), compiler styles |
//! | [`map_fetch`] | gathers (`map_fetch_*`) | compiler styles (Fig. 4d) |
//! | [`like`] | SQL LIKE selections | — |
//! | [`hashing`] | vectorized hash / rehash | compiler styles |
//! | [`bloom`] | bloom filter + `sel_bloomfilter` | fused / loop-fission (§2 Listings 5–6, Fig. 6) |
//! | [`decode`] | compressed-column decode (`decode_for_*`, `decode_delta_i32`, `decode_dict_str`) | branching / no-branching, fused / fission, hand-unroll |
//! | [`group_table`] | `hash_insertcheck_{u64,str}` (Fig. 4e), `hash_insertcheck_dense` | compiler styles (dense: one) |
//! | [`aggregate`] | grouped & ungrouped sums/counts/min/max (incl. `sum128`) | compiler styles |
//! | [`registry`] | [`registry::build_dictionary`] wires everything into a [`ma_core::PrimitiveDictionary`] | |
//!
//! "Compiler style" flavors (`gcc` / `icc` / `clang`) are code-shape stand-ins
//! for the paper's multi-compiler builds — see DESIGN.md §3 for the
//! substitution argument.

pub mod aggregate;
pub mod bloom;
pub mod decode;
pub mod group_table;
pub mod hashing;
pub mod like;
pub mod map_arith;
pub mod map_fetch;
pub mod merge;
pub mod ops;
pub mod registry;
pub mod selection;

pub use bloom::BloomFilter;
pub use group_table::{DenseGroupTable, GroupTable, StrGroupTable};
pub use like::LikePattern;
pub use registry::build_dictionary;

// Re-export the family type aliases the executor dispatches through.
pub use aggregate::{
    AggrCountGrouped, AggrMinMaxF64, AggrMinMaxF64Grouped, AggrMinMaxI64, AggrMinMaxI64Grouped,
    AggrSumF64, AggrSumF64Grouped, AggrSumI64, AggrSumI64Grouped,
};
pub use bloom::SelBloom;
pub use decode::{DecodeDeltaCol, DecodeDictCol, DecodeForCol};
pub use group_table::{DenseInsertCheck, GroupInsertCheck, StrGroupInsertCheck};
pub use hashing::{MapHash, MapHashStr, MapRehash, MapRehashStr};
pub use like::SelLike;
pub use map_arith::{MapCast, MapColCol, MapColVal};
pub use map_fetch::{MapFetch, MapFetchStr};
pub use merge::MergeJoinFn;
pub use selection::{SelColCol, SelColVal, SelStrColVal};
