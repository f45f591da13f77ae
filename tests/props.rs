//! Property-based tests (proptest) over the public API: flavor
//! extensional equivalence, APH invariants, selection-vector algebra, LIKE
//! semantics, and bandit sanity.

use micro_adaptivity::core::policy::{Policy, VwGreedy, VwGreedyParams};
use micro_adaptivity::core::{Aph, SplitMix64};
use micro_adaptivity::primitives::map_arith::{
    map_col_col_clang, map_col_col_full, map_col_col_icc, map_col_col_selective,
    map_col_col_unroll8,
};
use micro_adaptivity::primitives::merge::{
    mergejoin_i64_clang, mergejoin_i64_gcc, mergejoin_i64_icc,
};
use micro_adaptivity::primitives::ops::{Add, Mul, Sub};
use micro_adaptivity::primitives::ops::{EqOp, Ge, Gt, Le, Lt, NeOp};
use micro_adaptivity::primitives::selection::{
    sel_col_val_branching, sel_col_val_clang, sel_col_val_icc, sel_col_val_no_branching,
    sel_col_val_unroll8,
};
use micro_adaptivity::primitives::LikePattern;
use micro_adaptivity::vector::SelVec;
use proptest::prelude::*;

/// Naive LIKE semantics to check the compiled matcher against.
fn like_naive(s: &str, pat: &str) -> bool {
    // Translate into a regex-free recursive matcher over chars.
    fn rec(s: &[u8], p: &[u8]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some(b'%') => (0..=s.len()).any(|i| rec(&s[i..], &p[1..])),
            Some(b'_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(&c) => !s.is_empty() && s[0] == c && rec(&s[1..], &p[1..]),
        }
    }
    rec(s.as_bytes(), pat.as_bytes())
}

proptest! {
    #[test]
    fn selection_flavors_are_extensionally_equal(
        col in prop::collection::vec(-1000i32..1000, 0..300),
        val in -1000i32..1000,
        sel_mask in prop::collection::vec(any::<bool>(), 0..300),
    ) {
        let sel: Vec<u32> = sel_mask
            .iter()
            .take(col.len())
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i as u32))
            .collect();
        macro_rules! check_op {
            ($op:ty) => {{
                for sv in [None, Some(sel.as_slice())] {
                    let cap = sv.map_or(col.len(), <[u32]>::len);
                    let mut r0 = vec![0u32; cap];
                    let k0 = sel_col_val_branching::<i32, $op>(&mut r0, &col, val, sv);
                    for f in [
                        sel_col_val_no_branching::<i32, $op>
                            as micro_adaptivity::primitives::SelColVal<i32>,
                        sel_col_val_icc::<i32, $op>,
                        sel_col_val_clang::<i32, $op>,
                        sel_col_val_unroll8::<i32, $op>,
                    ] {
                        let mut r = vec![0u32; cap];
                        let k = f(&mut r, &col, val, sv);
                        prop_assert_eq!(k, k0);
                        prop_assert_eq!(&r[..k], &r0[..k0]);
                    }
                }
            }};
        }
        check_op!(Lt);
        check_op!(Le);
        check_op!(Gt);
        check_op!(Ge);
        check_op!(EqOp);
        check_op!(NeOp);
    }

    #[test]
    fn map_flavors_agree_on_live_positions(
        a in prop::collection::vec(-10_000i64..10_000, 1..300),
        b_seed in any::<u64>(),
        sel_mask in prop::collection::vec(any::<bool>(), 0..300),
    ) {
        let n = a.len();
        let mut rng = SplitMix64::new(b_seed);
        let b: Vec<i64> = (0..n).map(|_| (rng.next_u64() % 20_000) as i64 - 10_000).collect();
        let sel: Vec<u32> = sel_mask
            .iter()
            .take(n)
            .enumerate()
            .filter_map(|(i, &x)| x.then_some(i as u32))
            .collect();
        macro_rules! check_op {
            ($op:ty) => {{
                for sv in [None, Some(sel.as_slice())] {
                    let mut expect = vec![0i64; n];
                    map_col_col_selective::<i64, $op>(&mut expect, &a, &b, sv);
                    for f in [
                        map_col_col_full::<i64, $op>
                            as micro_adaptivity::primitives::MapColCol<i64>,
                        map_col_col_unroll8::<i64, $op>,
                        map_col_col_icc::<i64, $op>,
                        map_col_col_clang::<i64, $op>,
                    ] {
                        let mut got = vec![0i64; n];
                        f(&mut got, &a, &b, sv);
                        match sv {
                            None => prop_assert_eq!(&got, &expect),
                            Some(s) => {
                                for &i in s {
                                    prop_assert_eq!(got[i as usize], expect[i as usize]);
                                }
                            }
                        }
                    }
                }
            }};
        }
        check_op!(Add);
        check_op!(Sub);
        check_op!(Mul);
    }

    #[test]
    fn mergejoin_flavors_agree(
        lraw in prop::collection::vec(0i64..500, 0..200),
        rraw in prop::collection::vec(0i64..500, 0..200),
    ) {
        let mut lkeys = lraw.clone();
        lkeys.sort_unstable();
        lkeys.dedup();
        let mut rkeys = rraw.clone();
        rkeys.sort_unstable();
        let cap = rkeys.len();
        let run = |f: micro_adaptivity::primitives::MergeJoinFn| {
            let mut rpos = vec![0u32; cap];
            let mut lidx = vec![0u32; cap];
            let mut cursor = 0;
            let k = f(&mut cursor, &lkeys, &rkeys, None, &mut rpos, &mut lidx);
            rpos.truncate(k);
            lidx.truncate(k);
            (rpos, lidx)
        };
        let expect = run(mergejoin_i64_gcc);
        prop_assert_eq!(run(mergejoin_i64_icc), expect.clone());
        prop_assert_eq!(run(mergejoin_i64_clang), expect.clone());
        // Semantics: exactly the right positions whose key is in lkeys.
        let (rpos, lidx) = expect;
        let in_left: Vec<u32> = rkeys
            .iter()
            .enumerate()
            .filter(|(_, k)| lkeys.binary_search(k).is_ok())
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(rpos.clone(), in_left);
        for (r, l) in rpos.iter().zip(&lidx) {
            prop_assert_eq!(rkeys[*r as usize], lkeys[*l as usize]);
        }
    }

    #[test]
    fn aph_conserves_totals_and_bounds_buckets(
        calls in prop::collection::vec((1u64..5000, 1u64..100_000), 1..2000),
    ) {
        let mut aph = Aph::new(64);
        let (mut tt, mut tk) = (0u64, 0u64);
        for &(tuples, ticks) in &calls {
            aph.record(tuples, ticks);
            tt += tuples;
            tk += ticks;
        }
        prop_assert_eq!(aph.total_calls(), calls.len() as u64);
        prop_assert_eq!(aph.total_tuples(), tt);
        prop_assert_eq!(aph.total_ticks(), tk);
        prop_assert!(aph.buckets().len() < 64);
        prop_assert!(aph.calls_per_bucket().is_power_of_two());
        // Full buckets all cover the same number of calls.
        for b in aph.buckets() {
            prop_assert_eq!(b.calls, aph.calls_per_bucket());
        }
    }

    #[test]
    fn selvec_compose_is_associative_with_identity(
        base in prop::collection::vec(any::<bool>(), 0..200),
        inner_mask in prop::collection::vec(any::<bool>(), 0..200),
    ) {
        let positions: Vec<u32> = base
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i as u32))
            .collect();
        let s = SelVec::from_positions(positions);
        let id = SelVec::identity(s.len());
        prop_assert_eq!(s.compose(&id), s.clone());
        // Compose with an arbitrary inner selection: results are a subset
        // in the same order.
        let inner: Vec<u32> = inner_mask
            .iter()
            .take(s.len())
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i as u32))
            .collect();
        let inner = SelVec::from_positions(inner);
        let composed = s.compose(&inner);
        prop_assert_eq!(composed.len(), inner.len());
        for p in composed.iter() {
            prop_assert!(s.iter().any(|q| q == p));
        }
    }

    #[test]
    fn selvec_roundtrips_through_sharded_range_splits(
        mask in prop::collection::vec(any::<bool>(), 0..400),
        cut_a in 0usize..400,
        cut_b in 0usize..400,
    ) {
        // Split a selection vector at two arbitrary boundaries, rebase each
        // shard locally, then concat-shift back: must equal the original.
        let n = mask.len();
        let positions: Vec<u32> = mask
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i as u32))
            .collect();
        let s = SelVec::from_positions(positions);
        let (lo, hi) = if cut_a <= cut_b { (cut_a, cut_b) } else { (cut_b, cut_a) };
        let (lo, hi) = (lo.min(n) as u32, hi.min(n) as u32);
        let a = s.slice_range(0, lo);
        let b = s.slice_range(lo, hi);
        let c = s.slice_range(hi, n as u32);
        prop_assert_eq!(a.len() + b.len() + c.len(), s.len());
        let back = SelVec::concat_shifted(&[(&a, 0), (&b, lo), (&c, hi)]);
        prop_assert_eq!(back, s);
    }

    #[test]
    fn sharded_selection_equals_unsharded_selection(
        col in prop::collection::vec(-1000i32..1000, 1..400),
        val in -1000i32..1000,
        sel_mask in prop::collection::vec(any::<bool>(), 0..400),
        cut in 0usize..400,
    ) {
        // The parallel-scan contract: applying a selection primitive per
        // range shard (with the incoming selection vector sliced to the
        // shard and rebased) and concatenating shard outputs must equal one
        // unsharded application. Checked for every selection flavor, with
        // and without an incoming selection vector.
        let n = col.len();
        let cut = cut.min(n);
        let sel: Vec<u32> = sel_mask
            .iter()
            .take(n)
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i as u32))
            .collect();
        let sel = SelVec::from_positions(sel);
        let flavors: [micro_adaptivity::primitives::SelColVal<i32>; 5] = [
            sel_col_val_branching::<i32, Lt>,
            sel_col_val_no_branching::<i32, Lt>,
            sel_col_val_icc::<i32, Lt>,
            sel_col_val_clang::<i32, Lt>,
            sel_col_val_unroll8::<i32, Lt>,
        ];
        for f in flavors {
            for use_sel in [false, true] {
                // Unsharded reference.
                let full_sel = use_sel.then(|| sel.as_slice().to_vec());
                let cap = full_sel.as_ref().map_or(n, Vec::len);
                let mut full = vec![0u32; cap];
                let k = f(&mut full, &col, val, full_sel.as_deref());
                full.truncate(k);

                // Two shards: [0, cut) and [cut, n), each applied locally.
                let mut pieces: Vec<(SelVec, u32)> = Vec::new();
                for (start, end) in [(0u32, cut as u32), (cut as u32, n as u32)] {
                    if start == end {
                        continue;
                    }
                    let shard_col = &col[start as usize..end as usize];
                    let local = sel.slice_range(start, end);
                    let local_sel = use_sel.then(|| local.as_slice().to_vec());
                    let cap = local_sel.as_ref().map_or(shard_col.len(), Vec::len);
                    let mut out = vec![0u32; cap];
                    let k = f(&mut out, shard_col, val, local_sel.as_deref());
                    out.truncate(k);
                    pieces.push((SelVec::from_positions(out), start));
                }
                let refs: Vec<(&SelVec, u32)> =
                    pieces.iter().map(|(s, o)| (s, *o)).collect();
                let merged = SelVec::concat_shifted(&refs);
                prop_assert_eq!(
                    merged.as_slice(),
                    full.as_slice(),
                    "flavor output diverged at cut {} (use_sel={})",
                    cut,
                    use_sel
                );
            }
        }
    }

    #[test]
    fn like_matches_naive_semantics(
        s in "[a-c%_]{0,12}",
        pat in "[a-c%_]{0,8}",
    ) {
        let compiled = LikePattern::compile(&pat);
        prop_assert_eq!(compiled.matches(&s), like_naive(&s, &pat), "s={} pat={}", s, pat);
    }

    #[test]
    fn vw_greedy_total_cost_bounded_by_worst_flavor(
        costs in prop::collection::vec(1u64..100, 2..5),
        seed in any::<u64>(),
    ) {
        // On stationary costs the bandit can never exceed the worst fixed
        // flavor's total (it would have to choose the worst arm always).
        let mut p = VwGreedy::new(
            costs.len(),
            VwGreedyParams {
                explore_period: 64,
                exploit_period: 16,
                explore_length: 4,
            },
            SplitMix64::new(seed),
        );
        let calls = 4096;
        let mut total = 0u64;
        for _ in 0..calls {
            let f = p.choose();
            let c = costs[f] * 1000;
            p.observe(f, 1000, c);
            total += c;
        }
        let worst = *costs.iter().max().unwrap() * 1000 * calls;
        let best = *costs.iter().min().unwrap() * 1000 * calls;
        prop_assert!(total <= worst);
        prop_assert!(total >= best);
    }
}
