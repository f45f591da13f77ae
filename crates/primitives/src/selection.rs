//! Selection primitives (`sel_*`): produce a selection vector with the
//! positions of qualifying tuples.
//!
//! This module contains the paper's canonical flavor pair — **Branching**
//! (Listing 1) vs **No-Branching** (Listing 2) — plus the code-style flavors
//! standing in for compiler variation and the hand-unrolled variant:
//!
//! * `branching` — `if (pred) res[k++] = i`; fast at extreme selectivities,
//!   collapses when the branch is unpredictable (Fig. 1). Default flavor and
//!   the `gcc` code style.
//! * `no_branching` — `res[k] = i; k += pred as usize`; data-independent
//!   cost.
//! * `icc` — branching, 4-way unrolled (what icc tends to emit).
//! * `clang` — iterator/fold formulation (idiomatic LLVM-friendly shape).
//! * `unroll8` — no-branching with the paper's hand-unroll factor 8
//!   (Listing 7).
//!
//! All flavors accept the optional selection vector and are extensionally
//! equivalent; property tests in this module verify that.

use crate::ops::CmpOp;

/// Selection against a constant: writes qualifying positions into `res`,
/// returns how many. `res` must have room for every candidate
/// (`sel.len()` or `col.len()`).
pub type SelColVal<T> = fn(res: &mut [u32], col: &[T], val: T, sel: Option<&[u32]>) -> usize;

/// Selection comparing two columns.
pub type SelColCol<T> = fn(res: &mut [u32], a: &[T], b: &[T], sel: Option<&[u32]>) -> usize;

// ---------------------------------------------------------------------------
// col vs constant
// ---------------------------------------------------------------------------

/// Branching flavor (paper Listing 1).
pub fn sel_col_val_branching<T: Copy, C: CmpOp<T>>(
    res: &mut [u32],
    col: &[T],
    val: T,
    sel: Option<&[u32]>,
) -> usize {
    let mut k = 0;
    match sel {
        Some(s) => {
            for &i in s {
                if C::cmp(col[i as usize], val) {
                    res[k] = i;
                    k += 1;
                }
            }
        }
        None => {
            for (i, &x) in col.iter().enumerate() {
                if C::cmp(x, val) {
                    res[k] = i as u32;
                    k += 1;
                }
            }
        }
    }
    k
}

/// No-Branching flavor (paper Listing 2).
pub fn sel_col_val_no_branching<T: Copy, C: CmpOp<T>>(
    res: &mut [u32],
    col: &[T],
    val: T,
    sel: Option<&[u32]>,
) -> usize {
    let mut k = 0;
    match sel {
        Some(s) => {
            for &i in s {
                res[k] = i;
                k += C::cmp(col[i as usize], val) as usize;
            }
        }
        None => {
            for (i, &x) in col.iter().enumerate() {
                res[k] = i as u32;
                k += C::cmp(x, val) as usize;
            }
        }
    }
    k
}

/// `icc` code style: branching, manually 4-way unrolled with an epilogue.
pub fn sel_col_val_icc<T: Copy, C: CmpOp<T>>(
    res: &mut [u32],
    col: &[T],
    val: T,
    sel: Option<&[u32]>,
) -> usize {
    let mut k = 0;
    match sel {
        Some(s) => {
            let mut j = 0;
            while j + 4 <= s.len() {
                let (i0, i1, i2, i3) = (s[j], s[j + 1], s[j + 2], s[j + 3]);
                if C::cmp(col[i0 as usize], val) {
                    res[k] = i0;
                    k += 1;
                }
                if C::cmp(col[i1 as usize], val) {
                    res[k] = i1;
                    k += 1;
                }
                if C::cmp(col[i2 as usize], val) {
                    res[k] = i2;
                    k += 1;
                }
                if C::cmp(col[i3 as usize], val) {
                    res[k] = i3;
                    k += 1;
                }
                j += 4;
            }
            while j < s.len() {
                let i = s[j];
                if C::cmp(col[i as usize], val) {
                    res[k] = i;
                    k += 1;
                }
                j += 1;
            }
        }
        None => {
            let n = col.len();
            let mut i = 0;
            while i + 4 <= n {
                if C::cmp(col[i], val) {
                    res[k] = i as u32;
                    k += 1;
                }
                if C::cmp(col[i + 1], val) {
                    res[k] = (i + 1) as u32;
                    k += 1;
                }
                if C::cmp(col[i + 2], val) {
                    res[k] = (i + 2) as u32;
                    k += 1;
                }
                if C::cmp(col[i + 3], val) {
                    res[k] = (i + 3) as u32;
                    k += 1;
                }
                i += 4;
            }
            while i < n {
                if C::cmp(col[i], val) {
                    res[k] = i as u32;
                    k += 1;
                }
                i += 1;
            }
        }
    }
    k
}

/// `clang` code style: iterator-based filter/fold formulation.
pub fn sel_col_val_clang<T: Copy, C: CmpOp<T>>(
    res: &mut [u32],
    col: &[T],
    val: T,
    sel: Option<&[u32]>,
) -> usize {
    match sel {
        Some(s) => s
            .iter()
            .filter(|&&i| C::cmp(col[i as usize], val))
            .fold(0usize, |k, &i| {
                res[k] = i;
                k + 1
            }),
        None => col
            .iter()
            .enumerate()
            .filter(|&(_, &x)| C::cmp(x, val))
            .fold(0usize, |k, (i, _)| {
                res[k] = i as u32;
                k + 1
            }),
    }
}

/// Hand-unrolled (factor 8) no-branching flavor, after paper Listing 7.
pub fn sel_col_val_unroll8<T: Copy, C: CmpOp<T>>(
    res: &mut [u32],
    col: &[T],
    val: T,
    sel: Option<&[u32]>,
) -> usize {
    let mut k = 0;
    macro_rules! body {
        ($pos:expr, $x:expr) => {
            res[k] = $pos;
            k += C::cmp($x, val) as usize;
        };
    }
    match sel {
        Some(s) => {
            let mut j = 0;
            while j + 8 <= s.len() {
                body!(s[j], col[s[j] as usize]);
                body!(s[j + 1], col[s[j + 1] as usize]);
                body!(s[j + 2], col[s[j + 2] as usize]);
                body!(s[j + 3], col[s[j + 3] as usize]);
                body!(s[j + 4], col[s[j + 4] as usize]);
                body!(s[j + 5], col[s[j + 5] as usize]);
                body!(s[j + 6], col[s[j + 6] as usize]);
                body!(s[j + 7], col[s[j + 7] as usize]);
                j += 8;
            }
            while j < s.len() {
                body!(s[j], col[s[j] as usize]);
                j += 1;
            }
        }
        None => {
            let n = col.len();
            let mut i = 0;
            while i + 8 <= n {
                body!(i as u32, col[i]);
                body!((i + 1) as u32, col[i + 1]);
                body!((i + 2) as u32, col[i + 2]);
                body!((i + 3) as u32, col[i + 3]);
                body!((i + 4) as u32, col[i + 4]);
                body!((i + 5) as u32, col[i + 5]);
                body!((i + 6) as u32, col[i + 6]);
                body!((i + 7) as u32, col[i + 7]);
                i += 8;
            }
            while i < n {
                body!(i as u32, col[i]);
                i += 1;
            }
        }
    }
    k
}

// ---------------------------------------------------------------------------
// col vs col
// ---------------------------------------------------------------------------

/// Branching col-col flavor.
pub fn sel_col_col_branching<T: Copy, C: CmpOp<T>>(
    res: &mut [u32],
    a: &[T],
    b: &[T],
    sel: Option<&[u32]>,
) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut k = 0;
    match sel {
        Some(s) => {
            for &i in s {
                if C::cmp(a[i as usize], b[i as usize]) {
                    res[k] = i;
                    k += 1;
                }
            }
        }
        None => {
            for i in 0..a.len() {
                if C::cmp(a[i], b[i]) {
                    res[k] = i as u32;
                    k += 1;
                }
            }
        }
    }
    k
}

/// No-branching col-col flavor.
pub fn sel_col_col_no_branching<T: Copy, C: CmpOp<T>>(
    res: &mut [u32],
    a: &[T],
    b: &[T],
    sel: Option<&[u32]>,
) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut k = 0;
    match sel {
        Some(s) => {
            for &i in s {
                res[k] = i;
                k += C::cmp(a[i as usize], b[i as usize]) as usize;
            }
        }
        None => {
            for i in 0..a.len() {
                res[k] = i as u32;
                k += C::cmp(a[i], b[i]) as usize;
            }
        }
    }
    k
}

/// `clang` code style for col-col.
pub fn sel_col_col_clang<T: Copy, C: CmpOp<T>>(
    res: &mut [u32],
    a: &[T],
    b: &[T],
    sel: Option<&[u32]>,
) -> usize {
    debug_assert_eq!(a.len(), b.len());
    match sel {
        Some(s) => s
            .iter()
            .filter(|&&i| C::cmp(a[i as usize], b[i as usize]))
            .fold(0usize, |k, &i| {
                res[k] = i;
                k + 1
            }),
        None => a
            .iter()
            .zip(b.iter())
            .enumerate()
            .filter(|&(_, (&x, &y))| C::cmp(x, y))
            .fold(0usize, |k, (i, _)| {
                res[k] = i as u32;
                k + 1
            }),
    }
}

// ---------------------------------------------------------------------------
// string selections (col vs constant only; TPC-H compares columns to
// literals)
// ---------------------------------------------------------------------------

use ma_vector::StrVec;

/// String selection against a constant.
pub type SelStrColVal = fn(res: &mut [u32], col: &StrVec, val: &str, sel: Option<&[u32]>) -> usize;

/// `sel_eq_str_col_val`, branching.
pub fn sel_str_eq_branching(
    res: &mut [u32],
    col: &StrVec,
    val: &str,
    sel: Option<&[u32]>,
) -> usize {
    let val = val.as_bytes();
    let mut k = 0;
    match sel {
        Some(s) => {
            for &i in s {
                if col.get_bytes(i as usize) == val {
                    res[k] = i;
                    k += 1;
                }
            }
        }
        None => {
            for i in 0..col.len() {
                if col.get_bytes(i) == val {
                    res[k] = i as u32;
                    k += 1;
                }
            }
        }
    }
    k
}

/// `sel_eq_str_col_val`, no-branching (index arithmetic).
pub fn sel_str_eq_no_branching(
    res: &mut [u32],
    col: &StrVec,
    val: &str,
    sel: Option<&[u32]>,
) -> usize {
    let val = val.as_bytes();
    let mut k = 0;
    match sel {
        Some(s) => {
            for &i in s {
                res[k] = i;
                k += (col.get_bytes(i as usize) == val) as usize;
            }
        }
        None => {
            for i in 0..col.len() {
                res[k] = i as u32;
                k += (col.get_bytes(i) == val) as usize;
            }
        }
    }
    k
}

/// `sel_ne_str_col_val`, branching.
pub fn sel_str_ne_branching(
    res: &mut [u32],
    col: &StrVec,
    val: &str,
    sel: Option<&[u32]>,
) -> usize {
    let val = val.as_bytes();
    let mut k = 0;
    match sel {
        Some(s) => {
            for &i in s {
                if col.get_bytes(i as usize) != val {
                    res[k] = i;
                    k += 1;
                }
            }
        }
        None => {
            for i in 0..col.len() {
                if col.get_bytes(i) != val {
                    res[k] = i as u32;
                    k += 1;
                }
            }
        }
    }
    k
}

/// `sel_ne_str_col_val`, no-branching.
pub fn sel_str_ne_no_branching(
    res: &mut [u32],
    col: &StrVec,
    val: &str,
    sel: Option<&[u32]>,
) -> usize {
    let val = val.as_bytes();
    let mut k = 0;
    match sel {
        Some(s) => {
            for &i in s {
                res[k] = i;
                k += (col.get_bytes(i as usize) != val) as usize;
            }
        }
        None => {
            for i in 0..col.len() {
                res[k] = i as u32;
                k += (col.get_bytes(i) != val) as usize;
            }
        }
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{EqOp, Ge, Gt, Le, Lt, NeOp};

    fn reference_lt(col: &[i32], val: i32, sel: Option<&[u32]>) -> Vec<u32> {
        match sel {
            Some(s) => s
                .iter()
                .copied()
                .filter(|&i| col[i as usize] < val)
                .collect(),
            None => (0..col.len() as u32)
                .filter(|&i| col[i as usize] < val)
                .collect(),
        }
    }

    fn run(f: SelColVal<i32>, col: &[i32], val: i32, sel: Option<&[u32]>) -> Vec<u32> {
        let cap = sel.map_or(col.len(), <[u32]>::len);
        let mut res = vec![0u32; cap];
        let k = f(&mut res, col, val, sel);
        res.truncate(k);
        res
    }

    const FLAVORS: [(&str, SelColVal<i32>); 5] = [
        ("branching", sel_col_val_branching::<i32, Lt>),
        ("no_branching", sel_col_val_no_branching::<i32, Lt>),
        ("icc", sel_col_val_icc::<i32, Lt>),
        ("clang", sel_col_val_clang::<i32, Lt>),
        ("unroll8", sel_col_val_unroll8::<i32, Lt>),
    ];

    #[test]
    fn all_flavors_equivalent_dense() {
        let col: Vec<i32> = (0..100).map(|i| (i * 37) % 101).collect();
        let expect = reference_lt(&col, 50, None);
        for (name, f) in FLAVORS {
            assert_eq!(run(f, &col, 50, None), expect, "flavor {name}");
        }
    }

    #[test]
    fn all_flavors_equivalent_with_sel() {
        let col: Vec<i32> = (0..100).map(|i| (i * 37) % 101).collect();
        let sel: Vec<u32> = (0..100u32).filter(|i| i % 3 == 0).collect();
        let expect = reference_lt(&col, 50, Some(&sel));
        for (name, f) in FLAVORS {
            assert_eq!(run(f, &col, 50, Some(&sel)), expect, "flavor {name}");
        }
    }

    #[test]
    fn boundary_selectivities() {
        let col: Vec<i32> = (0..64).collect();
        for (name, f) in FLAVORS {
            assert_eq!(run(f, &col, 0, None).len(), 0, "{name}: nothing selected");
            assert_eq!(run(f, &col, 100, None).len(), 64, "{name}: all selected");
        }
    }

    #[test]
    fn empty_inputs() {
        for (name, f) in FLAVORS {
            assert_eq!(run(f, &[], 1, None).len(), 0, "{name}");
            assert_eq!(run(f, &[1, 2, 3], 5, Some(&[])).len(), 0, "{name}");
        }
    }

    #[test]
    fn unroll_epilogues_handle_non_multiple_lengths() {
        // Lengths around the unroll factors exercise the epilogue paths.
        for n in [1usize, 3, 4, 5, 7, 8, 9, 15, 16, 17] {
            let col: Vec<i32> = (0..n as i32).collect();
            let expect = reference_lt(&col, n as i32 / 2, None);
            for (name, f) in [
                ("icc", sel_col_val_icc::<i32, Lt> as SelColVal<i32>),
                ("unroll8", sel_col_val_unroll8::<i32, Lt>),
            ] {
                assert_eq!(run(f, &col, n as i32 / 2, None), expect, "{name} n={n}");
            }
        }
    }

    #[test]
    fn all_comparison_ops() {
        let col = [3i32, 1, 4, 1, 5];
        let mut res = [0u32; 5];
        assert_eq!(sel_col_val_branching::<i32, Le>(&mut res, &col, 3, None), 3);
        assert_eq!(sel_col_val_branching::<i32, Gt>(&mut res, &col, 3, None), 2);
        assert_eq!(sel_col_val_branching::<i32, Ge>(&mut res, &col, 3, None), 3);
        assert_eq!(
            sel_col_val_branching::<i32, EqOp>(&mut res, &col, 1, None),
            2
        );
        assert_eq!(
            sel_col_val_branching::<i32, NeOp>(&mut res, &col, 1, None),
            3
        );
    }

    #[test]
    fn col_col_flavors_equivalent() {
        let a: Vec<i64> = (0..50).map(|i| (i * 13) % 29).collect();
        let b: Vec<i64> = (0..50).map(|i| (i * 7) % 31).collect();
        let sel: Vec<u32> = (0..50u32).filter(|i| i % 2 == 0).collect();
        for sv in [None, Some(sel.as_slice())] {
            let cap = sv.map_or(50, <[u32]>::len);
            let mut r1 = vec![0u32; cap];
            let mut r2 = vec![0u32; cap];
            let mut r3 = vec![0u32; cap];
            let k1 = sel_col_col_branching::<i64, Lt>(&mut r1, &a, &b, sv);
            let k2 = sel_col_col_no_branching::<i64, Lt>(&mut r2, &a, &b, sv);
            let k3 = sel_col_col_clang::<i64, Lt>(&mut r3, &a, &b, sv);
            assert_eq!(&r1[..k1], &r2[..k2]);
            assert_eq!(&r1[..k1], &r3[..k3]);
        }
    }

    #[test]
    fn string_selection_flavors_equivalent() {
        let col = StrVec::from_strings(&["MAIL", "SHIP", "MAIL", "AIR", "RAIL"]);
        let sel = [0u32, 1, 2, 4];
        for sv in [None, Some(&sel[..])] {
            let cap = sv.map_or(5, <[u32]>::len);
            let mut r1 = vec![0u32; cap];
            let mut r2 = vec![0u32; cap];
            let k1 = sel_str_eq_branching(&mut r1, &col, "MAIL", sv);
            let k2 = sel_str_eq_no_branching(&mut r2, &col, "MAIL", sv);
            assert_eq!(&r1[..k1], &r2[..k2]);
            assert_eq!(k1, 2);

            let k3 = sel_str_ne_branching(&mut r1, &col, "MAIL", sv);
            let k4 = sel_str_ne_no_branching(&mut r2, &col, "MAIL", sv);
            assert_eq!(&r1[..k3], &r2[..k4]);
            assert_eq!(k3, cap - 2);
        }
    }

    #[test]
    fn f64_selection_works() {
        let col = [0.1f64, 0.5, 0.9, 0.05];
        let mut res = [0u32; 4];
        let k = sel_col_val_no_branching::<f64, Lt>(&mut res, &col, 0.5, None);
        assert_eq!(&res[..k], &[0, 3]);
    }
}
