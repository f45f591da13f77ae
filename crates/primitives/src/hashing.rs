//! Vectorized hash-value computation primitives.
//!
//! Hash aggregation and hash joins first compute a hash vector from the key
//! column(s) (`map_hash_*`), combining further key columns with
//! `map_rehash_*` — the standard vectorized hashing pipeline (§1,
//! "Primitive Functions"). Integer keys use a Murmur-style finalizer; strings
//! use FNV-1a.

use ma_vector::StrVec;

/// Hash a fixed-width column into `res`.
pub type MapHash<T> = fn(res: &mut [u64], col: &[T], sel: Option<&[u32]>);

/// Combine an additional fixed-width column into an existing hash vector.
pub type MapRehash<T> = fn(res: &mut [u64], col: &[T], sel: Option<&[u32]>);

/// Hash a string column into `res`.
pub type MapHashStr = fn(res: &mut [u64], col: &StrVec, sel: Option<&[u32]>);

/// Combine a string column into an existing hash vector.
pub type MapRehashStr = fn(res: &mut [u64], col: &StrVec, sel: Option<&[u32]>);

/// Murmur3-style 64-bit finalizer: fast, well-mixed scalar hash.
#[inline(always)]
pub fn hash_u64(mut x: u64) -> u64 {
    // Salt the input so 0 does not hash to 0 (every step of the raw
    // finalizer is 0-preserving).
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51AFD7ED558CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CEB9FE1A85EC53);
    x ^ (x >> 33)
}

/// Combines an existing hash with a new value's hash.
#[inline(always)]
pub fn combine_hash(h: u64, v: u64) -> u64 {
    // boost::hash_combine-style mix on 64 bits.
    h ^ hash_u64(v)
        .wrapping_add(0x9E3779B97F4A7C15)
        .wrapping_add(h << 6)
        .wrapping_add(h >> 2)
}

/// FNV-1a over a byte string.
#[inline]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF29CE484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001B3);
    }
    h
}

macro_rules! int_hash_prims {
    ($hash_gcc:ident, $hash_icc:ident, $hash_clang:ident, $rehash_gcc:ident, $ty:ty) => {
        /// `gcc` style: plain indexed loop.
        pub fn $hash_gcc(res: &mut [u64], col: &[$ty], sel: Option<&[u32]>) {
            match sel {
                Some(s) => {
                    for &i in s {
                        res[i as usize] = hash_u64(col[i as usize] as u64);
                    }
                }
                None => {
                    for i in 0..col.len() {
                        res[i] = hash_u64(col[i] as u64);
                    }
                }
            }
        }

        /// `icc` style: 4-way unrolled.
        pub fn $hash_icc(res: &mut [u64], col: &[$ty], sel: Option<&[u32]>) {
            macro_rules! body {
                ($i:expr) => {{
                    let i = $i;
                    res[i] = hash_u64(col[i] as u64);
                }};
            }
            match sel {
                Some(s) => {
                    let mut j = 0;
                    while j + 4 <= s.len() {
                        body!(s[j] as usize);
                        body!(s[j + 1] as usize);
                        body!(s[j + 2] as usize);
                        body!(s[j + 3] as usize);
                        j += 4;
                    }
                    while j < s.len() {
                        body!(s[j] as usize);
                        j += 1;
                    }
                }
                None => {
                    let n = col.len();
                    let mut i = 0;
                    while i + 4 <= n {
                        body!(i);
                        body!(i + 1);
                        body!(i + 2);
                        body!(i + 3);
                        i += 4;
                    }
                    while i < n {
                        body!(i);
                        i += 1;
                    }
                }
            }
        }

        /// `clang` style: iterator zip.
        pub fn $hash_clang(res: &mut [u64], col: &[$ty], sel: Option<&[u32]>) {
            match sel {
                Some(s) => {
                    for &i in s {
                        res[i as usize] = hash_u64(col[i as usize] as u64);
                    }
                }
                None => {
                    for (r, &x) in res.iter_mut().zip(col.iter()) {
                        *r = hash_u64(x as u64);
                    }
                }
            }
        }

        /// Rehash (combine second key column), plain loop.
        pub fn $rehash_gcc(res: &mut [u64], col: &[$ty], sel: Option<&[u32]>) {
            match sel {
                Some(s) => {
                    for &i in s {
                        let i = i as usize;
                        res[i] = combine_hash(res[i], col[i] as u64);
                    }
                }
                None => {
                    for i in 0..col.len() {
                        res[i] = combine_hash(res[i], col[i] as u64);
                    }
                }
            }
        }
    };
}

int_hash_prims!(
    map_hash_i32_gcc,
    map_hash_i32_icc,
    map_hash_i32_clang,
    map_rehash_i32_gcc,
    i32
);
int_hash_prims!(
    map_hash_i64_gcc,
    map_hash_i64_icc,
    map_hash_i64_clang,
    map_rehash_i64_gcc,
    i64
);

/// String hash, `gcc` style.
#[allow(clippy::needless_range_loop)] // the gcc code style *is* the indexed loop
pub fn map_hash_str_gcc(res: &mut [u64], col: &StrVec, sel: Option<&[u32]>) {
    match sel {
        Some(s) => {
            for &i in s {
                res[i as usize] = hash_bytes(col.get_bytes(i as usize));
            }
        }
        None => {
            for i in 0..col.len() {
                res[i] = hash_bytes(col.get_bytes(i));
            }
        }
    }
}

/// String hash, `clang` style (iterator over views).
#[allow(clippy::needless_range_loop)]
pub fn map_hash_str_clang(res: &mut [u64], col: &StrVec, sel: Option<&[u32]>) {
    match sel {
        Some(s) => {
            for &i in s {
                res[i as usize] = hash_bytes(col.get_bytes(i as usize));
            }
        }
        None => {
            for (i, r) in res.iter_mut().enumerate().take(col.len()) {
                *r = hash_bytes(col.get_bytes(i));
            }
        }
    }
}

/// String rehash (combine into existing hash vector).
#[allow(clippy::needless_range_loop)]
pub fn map_rehash_str_gcc(res: &mut [u64], col: &StrVec, sel: Option<&[u32]>) {
    match sel {
        Some(s) => {
            for &i in s {
                let i = i as usize;
                res[i] = combine_hash(res[i], hash_bytes(col.get_bytes(i)));
            }
        }
        None => {
            for i in 0..col.len() {
                res[i] = combine_hash(res[i], hash_bytes(col.get_bytes(i)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_hash_mixes() {
        // Nearby keys must land far apart.
        let h1 = hash_u64(1);
        let h2 = hash_u64(2);
        assert_ne!(h1, h2);
        assert!((h1 ^ h2).count_ones() > 10, "poor avalanche");
        assert_ne!(hash_u64(0), 0);
    }

    #[test]
    fn combine_is_order_sensitive() {
        let a = combine_hash(hash_u64(1), 2);
        let b = combine_hash(hash_u64(2), 1);
        assert_ne!(a, b);
    }

    #[test]
    fn int_hash_flavors_agree() {
        let col: Vec<i64> = (0..100).map(|i| i * 1_000_003).collect();
        let sel: Vec<u32> = (0..100u32).step_by(7).collect();
        for sv in [None, Some(sel.as_slice())] {
            let mut r1 = vec![0u64; 100];
            let mut r2 = vec![0u64; 100];
            let mut r3 = vec![0u64; 100];
            map_hash_i64_gcc(&mut r1, &col, sv);
            map_hash_i64_icc(&mut r2, &col, sv);
            map_hash_i64_clang(&mut r3, &col, sv);
            match sv {
                None => {
                    assert_eq!(r1, r2);
                    assert_eq!(r1, r3);
                }
                Some(s) => {
                    for &i in s {
                        assert_eq!(r1[i as usize], r2[i as usize]);
                        assert_eq!(r1[i as usize], r3[i as usize]);
                    }
                }
            }
        }
    }

    #[test]
    fn i32_and_i64_same_value_hash_equal() {
        // Key packing relies on casting to u64 first.
        let mut r32 = vec![0u64; 1];
        let mut r64 = vec![0u64; 1];
        map_hash_i32_gcc(&mut r32, &[42i32], None);
        map_hash_i64_gcc(&mut r64, &[42i64], None);
        assert_eq!(r32[0], r64[0]);
    }

    #[test]
    fn str_hash_flavors_agree_and_distinguish() {
        let col = StrVec::from_strings(&["MAIL", "SHIP", "TRUCK", ""]);
        let mut r1 = vec![0u64; 4];
        let mut r2 = vec![0u64; 4];
        map_hash_str_gcc(&mut r1, &col, None);
        map_hash_str_clang(&mut r2, &col, None);
        assert_eq!(r1, r2);
        assert_ne!(r1[0], r1[1]);
        assert_ne!(r1[1], r1[2]);
    }

    #[test]
    fn rehash_combines_columns() {
        let a = [1i64, 1];
        let b = [5i64, 6];
        let mut h = vec![0u64; 2];
        map_hash_i64_gcc(&mut h, &a, None);
        map_rehash_i64_gcc(&mut h, &b, None);
        assert_ne!(h[0], h[1], "(1,5) and (1,6) must hash differently");
    }

    #[test]
    fn str_rehash() {
        let keys = [7i64, 7];
        let names = StrVec::from_strings(&["x", "y"]);
        let mut h = vec![0u64; 2];
        map_hash_i64_gcc(&mut h, &keys, None);
        map_rehash_str_gcc(&mut h, &names, None);
        assert_ne!(h[0], h[1]);
    }
}
