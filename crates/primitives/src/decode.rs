//! Decode primitives (`decode_*`): unpack compressed column partitions
//! into plain value vectors (see `ma_vector::encode` for the codecs and
//! the packed-word layout).
//!
//! Decode is a primitive like any other — a tight loop over a vector —
//! so it gets a flavor set and the per-morsel bandit picks among:
//!
//! * `branching` — scalar bit extraction with a word-boundary branch;
//!   cheap when values rarely straddle words (small widths).
//! * `no_branching` — always reads two adjacent words through a `u128`
//!   blend (the per-partition padding word makes this safe at the tail);
//!   data-independent cost, SIMD-friendly shape.
//! * `unroll8` — the no-branching read with the paper's hand-unroll
//!   factor 8.
//! * dictionary decode trades `fused` (unpack + gather in one loop)
//!   against `fission` (unpack all codes, then gather all views) —
//!   the same loop-fission axis as the bloom-filter kernels.
//! * `by_width` — one unpack body per packed width (a const generic), 64
//!   values per step with unaligned byte-addressed loads whose shifts
//!   and offsets are constants; built portably and with AVX2, the AVX2
//!   build picked where the CPU has it. Every signature has this arm; it
//!   is the one that does not tie with the others (2.7–5× fewer ns per
//!   value in cache).
//!
//! All flavors of a signature are extensionally equivalent to the
//! reference path `ma_vector::encode::read_packed`; the property tests
//! below check byte-identical output across flavors.
//!
//! Argument conventions shared by all kernels: `pbit0` is the absolute
//! bit position where the partition's packed region starts (always a
//! multiple of 64), `width` the packed bit width, `first` the first
//! partition-relative tuple to decode, `n` the tuple count. `out` holds
//! at least `n` elements.

// The dict/delta kernel families take 8 arguments by contract: every
// flavor of a signature must share the exact fn type the dictionary
// dispatches on.
#![allow(clippy::too_many_arguments)]

use ma_vector::encode::SYNC_ROWS;

/// Frame-of-reference decode: `out[i] = base + unpack(first + i)`.
pub type DecodeForCol<T> =
    fn(out: &mut [T], words: &[u64], pbit0: u64, width: u32, base: i64, first: usize, n: usize);

/// Delta decode: `out[i] = value(first + i)` reconstructed from per-row
/// deltas plus one absolute base per [`SYNC_ROWS`] block (`bases` is
/// indexed by partition-relative block number).
pub type DecodeDeltaCol = fn(
    out: &mut [i32],
    words: &[u64],
    pbit0: u64,
    width: u32,
    bases: &[i64],
    first: usize,
    n: usize,
);

/// Dictionary decode: unpack codes, gather dictionary views.
pub type DecodeDictCol = fn(
    views_out: &mut [(u32, u32)],
    codes_out: &mut [i32],
    words: &[u64],
    pbit0: u64,
    width: u32,
    dict_views: &[(u32, u32)],
    first: usize,
    n: usize,
);

#[inline(always)]
fn mask_of(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Two-word branch-free read of packed value `r` (relative to `pbit0`).
#[inline(always)]
fn read2(words: &[u64], pbit0: u64, width: u32, r: usize) -> u64 {
    let bit = pbit0 + (r as u64) * u64::from(width);
    let w = (bit >> 6) as usize;
    let s = (bit & 63) as u32;
    let pair = u128::from(words[w]) | (u128::from(words[w + 1]) << 64);
    ((pair >> s) as u64) & mask_of(width)
}

/// Single-word read with a branch for the straddling case.
#[inline(always)]
fn read1(words: &[u64], pbit0: u64, width: u32, r: usize) -> u64 {
    let bit = pbit0 + (r as u64) * u64::from(width);
    let w = (bit >> 6) as usize;
    let s = (bit & 63) as u32;
    let mut v = words[w] >> s;
    if s + width > 64 {
        v |= words[w + 1] << (64 - s);
    }
    v & mask_of(width)
}

macro_rules! for_kernels {
    ($ty:ty, $branching:ident, $no_branching:ident, $unroll8:ident) => {
        /// Branching flavor: scalar extraction, word-boundary branch.
        pub fn $branching(
            out: &mut [$ty],
            words: &[u64],
            pbit0: u64,
            width: u32,
            base: i64,
            first: usize,
            n: usize,
        ) {
            for (i, o) in out[..n].iter_mut().enumerate() {
                let d = read1(words, pbit0, width, first + i);
                *o = base.wrapping_add(d as i64) as $ty;
            }
        }

        /// No-branching flavor: two-word blend, data-independent cost.
        pub fn $no_branching(
            out: &mut [$ty],
            words: &[u64],
            pbit0: u64,
            width: u32,
            base: i64,
            first: usize,
            n: usize,
        ) {
            for (i, o) in out[..n].iter_mut().enumerate() {
                let d = read2(words, pbit0, width, first + i);
                *o = base.wrapping_add(d as i64) as $ty;
            }
        }

        /// Hand-unrolled (×8) no-branching flavor.
        pub fn $unroll8(
            out: &mut [$ty],
            words: &[u64],
            pbit0: u64,
            width: u32,
            base: i64,
            first: usize,
            n: usize,
        ) {
            let mut i = 0;
            while i + 8 <= n {
                let o = &mut out[i..i + 8];
                o[0] = base.wrapping_add(read2(words, pbit0, width, first + i) as i64) as $ty;
                o[1] = base.wrapping_add(read2(words, pbit0, width, first + i + 1) as i64) as $ty;
                o[2] = base.wrapping_add(read2(words, pbit0, width, first + i + 2) as i64) as $ty;
                o[3] = base.wrapping_add(read2(words, pbit0, width, first + i + 3) as i64) as $ty;
                o[4] = base.wrapping_add(read2(words, pbit0, width, first + i + 4) as i64) as $ty;
                o[5] = base.wrapping_add(read2(words, pbit0, width, first + i + 5) as i64) as $ty;
                o[6] = base.wrapping_add(read2(words, pbit0, width, first + i + 6) as i64) as $ty;
                o[7] = base.wrapping_add(read2(words, pbit0, width, first + i + 7) as i64) as $ty;
                i += 8;
            }
            while i < n {
                out[i] = base.wrapping_add(read2(words, pbit0, width, first + i) as i64) as $ty;
                i += 1;
            }
        }
    };
}

for_kernels!(
    i32,
    decode_for_i32_branching,
    decode_for_i32_no_branching,
    decode_for_i32_unroll8
);
for_kernels!(
    i64,
    decode_for_i64_branching,
    decode_for_i64_no_branching,
    decode_for_i64_unroll8
);

/// Shared delta-decode skeleton: walks the sync blocks overlapping
/// `[first, first + n)`, replaying at most `SYNC_ROWS - 1` leading deltas
/// in the first block; `read` is the bit-extraction flavor.
#[inline(always)]
fn delta_blocks(
    out: &mut [i32],
    words: &[u64],
    pbit0: u64,
    width: u32,
    bases: &[i64],
    first: usize,
    n: usize,
    read: impl Fn(&[u64], u64, u32, usize) -> u64,
) {
    let end = first + n;
    let mut r = first;
    while r < end {
        let blk = r / SYNC_ROWS;
        let b0 = blk * SYNC_ROWS;
        let stop = end.min(b0 + SYNC_ROWS);
        let mut acc = bases[blk];
        if r == b0 {
            out[r - first] = acc as i32;
        }
        for q in (b0 + 1)..stop {
            acc += read(words, pbit0, width, q) as i64;
            if q >= r {
                out[q - first] = acc as i32;
            }
        }
        r = stop;
    }
}

/// Branching flavor of delta decode.
pub fn decode_delta_i32_branching(
    out: &mut [i32],
    words: &[u64],
    pbit0: u64,
    width: u32,
    bases: &[i64],
    first: usize,
    n: usize,
) {
    delta_blocks(out, words, pbit0, width, bases, first, n, read1);
}

/// No-branching flavor of delta decode.
pub fn decode_delta_i32_no_branching(
    out: &mut [i32],
    words: &[u64],
    pbit0: u64,
    width: u32,
    bases: &[i64],
    first: usize,
    n: usize,
) {
    delta_blocks(out, words, pbit0, width, bases, first, n, read2);
}

/// Hand-unrolled delta decode: unpacks each block's deltas ×8-unrolled
/// into a stack buffer, then runs the serial prefix sum over the buffer.
pub fn decode_delta_i32_unroll8(
    out: &mut [i32],
    words: &[u64],
    pbit0: u64,
    width: u32,
    bases: &[i64],
    first: usize,
    n: usize,
) {
    let end = first + n;
    let mut r = first;
    let mut buf = [0u64; SYNC_ROWS];
    while r < end {
        let blk = r / SYNC_ROWS;
        let b0 = blk * SYNC_ROWS;
        let stop = end.min(b0 + SYNC_ROWS);
        let m = stop - b0;
        let mut j = 1;
        while j + 8 <= m {
            let b = &mut buf[j..j + 8];
            b[0] = read2(words, pbit0, width, b0 + j);
            b[1] = read2(words, pbit0, width, b0 + j + 1);
            b[2] = read2(words, pbit0, width, b0 + j + 2);
            b[3] = read2(words, pbit0, width, b0 + j + 3);
            b[4] = read2(words, pbit0, width, b0 + j + 4);
            b[5] = read2(words, pbit0, width, b0 + j + 5);
            b[6] = read2(words, pbit0, width, b0 + j + 6);
            b[7] = read2(words, pbit0, width, b0 + j + 7);
            j += 8;
        }
        while j < m {
            buf[j] = read2(words, pbit0, width, b0 + j);
            j += 1;
        }
        let mut acc = bases[blk];
        if r == b0 {
            out[r - first] = acc as i32;
        }
        for (q, &d) in buf[1..m].iter().enumerate().map(|(q, d)| (b0 + 1 + q, d)) {
            acc += d as i64;
            if q >= r {
                out[q - first] = acc as i32;
            }
        }
        r = stop;
    }
}

/// Fused dictionary decode: unpack each code and gather its view in one
/// loop.
pub fn decode_dict_str_fused(
    views_out: &mut [(u32, u32)],
    codes_out: &mut [i32],
    words: &[u64],
    pbit0: u64,
    width: u32,
    dict_views: &[(u32, u32)],
    first: usize,
    n: usize,
) {
    for (i, (v, c)) in views_out[..n]
        .iter_mut()
        .zip(codes_out[..n].iter_mut())
        .enumerate()
    {
        let code = read2(words, pbit0, width, first + i) as usize;
        *v = dict_views[code];
        *c = code as i32;
    }
}

/// Loop-fission dictionary decode: unpack all codes first, then gather
/// all views (two simple loops the compiler can vectorize separately).
pub fn decode_dict_str_fission(
    views_out: &mut [(u32, u32)],
    codes_out: &mut [i32],
    words: &[u64],
    pbit0: u64,
    width: u32,
    dict_views: &[(u32, u32)],
    first: usize,
    n: usize,
) {
    for (i, c) in codes_out[..n].iter_mut().enumerate() {
        *c = read2(words, pbit0, width, first + i) as i32;
    }
    for (v, &c) in views_out[..n].iter_mut().zip(codes_out[..n].iter()) {
        *v = dict_views[c as usize];
    }
}

/// Hand-unrolled (×8) fused dictionary decode.
pub fn decode_dict_str_unroll8(
    views_out: &mut [(u32, u32)],
    codes_out: &mut [i32],
    words: &[u64],
    pbit0: u64,
    width: u32,
    dict_views: &[(u32, u32)],
    first: usize,
    n: usize,
) {
    let mut i = 0;
    while i + 8 <= n {
        for k in 0..8 {
            let code = read2(words, pbit0, width, first + i + k) as usize;
            views_out[i + k] = dict_views[code];
            codes_out[i + k] = code as i32;
        }
        i += 8;
    }
    while i < n {
        let code = read2(words, pbit0, width, first + i) as usize;
        views_out[i] = dict_views[code];
        codes_out[i] = code as i32;
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// width-specialized unpack
// ---------------------------------------------------------------------------

/// Widest value the unaligned-load body extracts from one 8-byte window:
/// the window starts at the byte holding the value's first bit, so up to 7
/// leading bits are shifted out. Wider partitions take the two-word read.
const WINDOW_BITS: u32 = 56;

/// The scalar a frame-of-reference kernel writes.
trait ForOut: Copy {
    fn from_i64(v: i64) -> Self;
}

impl ForOut for i32 {
    #[inline(always)]
    fn from_i64(v: i64) -> i32 {
        v as i32
    }
}

impl ForOut for i64 {
    #[inline(always)]
    fn from_i64(v: i64) -> i64 {
        v
    }
}

/// Reads the 8 bytes at byte `at` of `bytes` as a little-endian word.
///
/// # Safety
/// `bytes + at .. bytes + at + 8` lies inside one live allocation.
#[inline(always)]
unsafe fn load8(bytes: *const u8, at: usize) -> u64 {
    // SAFETY: in bounds by the caller's contract; `read_unaligned` has no
    // alignment requirement.
    u64::from_le(unsafe { bytes.add(at).cast::<u64>().read_unaligned() })
}

/// The width-`W` unpack body: `out[i] = base + unpack(first + i)` with one
/// unaligned 8-byte load per value. 64 values of `W` bits are exactly `W`
/// words, so from the first 64-value boundary on every step starts at a
/// word boundary and each value's byte and shift inside the step are
/// constants; only the head up to that boundary and the tail are read
/// value by value. Those constants hold only when the partition's stream
/// starts on a byte, so `pbit0` must be a multiple of 8; every partition
/// starts on a word.
#[inline(always)]
fn unpack_for<const W: u32, T: ForOut>(
    out: &mut [T],
    words: &[u64],
    pbit0: u64,
    base: i64,
    first: usize,
    n: usize,
) {
    const { assert!(W <= WINDOW_BITS) };
    debug_assert!(pbit0.is_multiple_of(8), "partition stream starts mid-byte");
    let out = &mut out[..n];
    if W == 0 {
        out.fill(T::from_i64(base));
        return;
    }
    let Some(last) = n.checked_sub(1) else {
        return;
    };
    let (w, mask) = (u64::from(W), mask_of(W));
    // Every load starts at the byte holding its value's first bit, so the
    // last value's load ends inside its partition's padding word at the
    // latest. Checked once here, without overflow (so no earlier value's
    // bit position overflows either); the loads below are unchecked.
    let last_byte = first
        .checked_add(last)
        .and_then(|r| (r as u64).checked_mul(w))
        .and_then(|b| b.checked_add(pbit0))
        .map(|b| b / 8);
    assert!(
        last_byte.is_some_and(|b| b < (words.len() as u64).saturating_mul(8).saturating_sub(7)),
        "packed stream ends before its partition's padding word"
    );
    let bytes = words.as_ptr().cast::<u8>();
    let value = |r: usize| {
        let bit = pbit0 + r as u64 * w;
        // SAFETY: `r <= first + last`, so the load starts at or before
        // `last_byte`, whose 8 bytes are in `words` (asserted above).
        let raw = unsafe { load8(bytes, (bit / 8) as usize) };
        T::from_i64(base.wrapping_add(((raw >> (bit % 8)) & mask) as i64))
    };
    let head = ((64 - first % 64) % 64).min(n);
    for (i, o) in out[..head].iter_mut().enumerate() {
        *o = value(first + i);
    }
    let mut r = first + head;
    let mut steps = out[head..].chunks_exact_mut(64);
    for step in &mut steps {
        let byte0 = ((pbit0 + r as u64 * w) / 8) as usize;
        // Eight values of `W` bits are `W` bytes: each group of eight
        // starts on a byte, and the eight bytes and shifts within a group
        // are compile-time constants.
        for (g, eight) in step.chunks_exact_mut(8).enumerate() {
            let at = byte0 + g * W as usize;
            for (i, o) in eight.iter_mut().enumerate() {
                let bit = i * W as usize;
                // SAFETY: this is the first byte of value `r + 8g + i`,
                // which is at most `first + last` (see `value`).
                let raw = unsafe { load8(bytes, at + bit / 8) };
                *o = T::from_i64(base.wrapping_add(((raw >> (bit % 8)) & mask) as i64));
            }
        }
        r += 64;
    }
    for (i, o) in steps.into_remainder().iter_mut().enumerate() {
        *o = value(r + i);
    }
}

/// Any width through the two-word read: the body for widths above
/// [`WINDOW_BITS`].
fn unpack_for_wide<T: ForOut>(
    out: &mut [T],
    words: &[u64],
    pbit0: u64,
    width: u32,
    base: i64,
    first: usize,
    n: usize,
) {
    for (i, o) in out[..n].iter_mut().enumerate() {
        *o = T::from_i64(base.wrapping_add(read2(words, pbit0, width, first + i) as i64));
    }
}

/// Width-`W` delta decode: each sync block's deltas are unpacked by the
/// width-`W` body into a stack buffer (a block is 64 values, one step),
/// then summed from the block's base.
#[inline(always)]
fn unpack_delta<const W: u32>(
    out: &mut [i32],
    words: &[u64],
    pbit0: u64,
    bases: &[i64],
    first: usize,
    n: usize,
) {
    let end = first + n;
    let mut r = first;
    let mut buf = [0i64; SYNC_ROWS];
    while r < end {
        let blk = r / SYNC_ROWS;
        let b0 = blk * SYNC_ROWS;
        let stop = end.min(b0 + SYNC_ROWS);
        unpack_for::<W, i64>(&mut buf, words, pbit0, 0, b0, stop - b0);
        // Replay the deltas before `r` (the one at the block start is
        // never read), then emit from `r` on.
        let skip = r - b0;
        let mut acc = bases[blk] + buf[1..skip.max(1)].iter().sum::<i64>();
        if skip == 0 {
            out[r - first] = acc as i32;
        }
        let from = skip.max(1);
        for (o, &d) in out[b0 + from - first..stop - first]
            .iter_mut()
            .zip(&buf[from..stop - b0])
        {
            acc += d;
            *o = acc as i32;
        }
        r = stop;
    }
}

/// Width-`W` dictionary decode: the width-`W` body unpacks every code,
/// then one loop gathers their views.
#[inline(always)]
fn unpack_dict<const W: u32>(
    views_out: &mut [(u32, u32)],
    codes_out: &mut [i32],
    words: &[u64],
    pbit0: u64,
    dict_views: &[(u32, u32)],
    first: usize,
    n: usize,
) {
    unpack_for::<W, i32>(codes_out, words, pbit0, 0, first, n);
    for (v, &c) in views_out[..n].iter_mut().zip(&codes_out[..n]) {
        *v = dict_views[c as usize];
    }
}

/// `match width` with one arm per listed width, each running `body` with
/// `W` bound to that width as a constant; other widths run `wide`.
macro_rules! dispatch_width {
    ($width:expr, |$w:ident| $body:expr, $wide:expr, [$($lit:literal)*]) => {
        match $width {
            $($lit => {
                const $w: u32 = $lit;
                $body
            })*
            _ => $wide,
        }
    };
}

/// A width-specialized flavor, built twice from one body: portably and,
/// on x86-64, with AVX2 enabled so the compiler may widen the
/// constant-shift steps. The AVX2 build runs where the CPU has it;
/// `is_x86_feature_detected!` probes the CPU once and caches the answer.
macro_rules! by_width_flavor {
    ($(#[$doc:meta])* $name:ident, $portable:ident, $avx2:ident,
     ($($arg:ident: $ty:ty),*), $body:block) => {
        fn $portable($($arg: $ty),*) $body

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        fn $avx2($($arg: $ty),*) $body

        $(#[$doc])*
        pub fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the CPU supports AVX2, checked just above.
                return unsafe { $avx2($($arg),*) };
            }
            $portable($($arg),*)
        }
    };
}

by_width_flavor!(
    /// Width-specialized flavor: one unpack body per packed width
    /// (unaligned byte-addressed loads, 64 values per step). Unlike the
    /// other flavors it needs `pbit0` to be a multiple of 8, which holds
    /// for every partition (each starts on a word).
    decode_for_i32_by_width, for_i32_portable, for_i32_avx2,
    (out: &mut [i32], words: &[u64], pbit0: u64, width: u32, base: i64, first: usize, n: usize),
    {
        dispatch_width!(
            width,
            |W| unpack_for::<W, i32>(out, words, pbit0, base, first, n),
            unpack_for_wide(out, words, pbit0, width, base, first, n),
            [0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29
             30 31 32]
        )
    }
);

by_width_flavor!(
    /// Width-specialized flavor of the `i64` frame-of-reference decode
    /// (see [`decode_for_i32_by_width`], also for the `pbit0` it needs).
    decode_for_i64_by_width, for_i64_portable, for_i64_avx2,
    (out: &mut [i64], words: &[u64], pbit0: u64, width: u32, base: i64, first: usize, n: usize),
    {
        dispatch_width!(
            width,
            |W| unpack_for::<W, i64>(out, words, pbit0, base, first, n),
            unpack_for_wide(out, words, pbit0, width, base, first, n),
            [0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29
             30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56]
        )
    }
);

by_width_flavor!(
    /// Width-specialized flavor of delta decode: each sync block's deltas
    /// unpacked by the width's body, then summed. `pbit0` is a multiple of
    /// 8 (see [`decode_for_i32_by_width`]).
    decode_delta_i32_by_width, delta_i32_portable, delta_i32_avx2,
    (out: &mut [i32], words: &[u64], pbit0: u64, width: u32, bases: &[i64], first: usize,
     n: usize),
    {
        dispatch_width!(
            width,
            |W| unpack_delta::<W>(out, words, pbit0, bases, first, n),
            delta_blocks(out, words, pbit0, width, bases, first, n, read2),
            [0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29
             30 31 32]
        )
    }
);

by_width_flavor!(
    /// Width-specialized flavor of dictionary decode: the width's body
    /// unpacks all codes, then one loop gathers their views. `pbit0` is a
    /// multiple of 8 (see [`decode_for_i32_by_width`]).
    decode_dict_str_by_width, dict_str_portable, dict_str_avx2,
    (views_out: &mut [(u32, u32)], codes_out: &mut [i32], words: &[u64], pbit0: u64,
     width: u32, dict_views: &[(u32, u32)], first: usize, n: usize),
    {
        dispatch_width!(
            width,
            |W| unpack_dict::<W>(views_out, codes_out, words, pbit0, dict_views, first, n),
            decode_dict_str_fission(views_out, codes_out, words, pbit0, width, dict_views, first, n),
            [0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16]
        )
    }
);

#[cfg(test)]
mod tests {
    use super::*;
    use ma_vector::encode::{read_packed, DeltaInts, DictStr, ForInts, ENC_PART_ROWS};
    use ma_vector::{DataType, StrVec};

    /// SplitMix64 for deterministic pseudo-random test data.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    fn encode_for_i64(values: &[i64]) -> ForInts {
        ForInts::encode(DataType::I64, values)
    }

    #[test]
    fn read_helpers_agree_with_reference() {
        let mut rng = Rng(0xBEEF);
        let words: Vec<u64> = (0..64).map(|_| rng.next()).collect();
        for width in [0u32, 1, 7, 13, 31, 33, 63, 64] {
            let cap = if width == 0 {
                1000
            } else {
                ((words.len() as u64 - 2) * 64 / u64::from(width)) as usize
            };
            for r in 0..cap.min(500) {
                let want = read_packed(&words, 64, width, r);
                assert_eq!(read1(&words, 64, width, r), want, "read1 w={width} r={r}");
                assert_eq!(read2(&words, 64, width, r), want, "read2 w={width} r={r}");
            }
        }
    }

    #[test]
    fn for_flavors_are_equivalent() {
        let mut rng = Rng(0xF0);
        let values: Vec<i64> = (0..(ENC_PART_ROWS + 500))
            .map(|_| 1_000_000 + (rng.next() % 100_000) as i64)
            .collect();
        let enc = encode_for_i64(&values);
        let flavors: &[DecodeForCol<i64>] = &[
            decode_for_i64_branching,
            decode_for_i64_no_branching,
            decode_for_i64_unroll8,
            decode_for_i64_by_width,
        ];
        for &(start, n) in &[
            (0usize, 777usize),
            (1000, 1),
            (ENC_PART_ROWS - 3, 7),
            (13, 0),
        ] {
            for (p, lo, m) in ma_vector::encode::part_ranges(start, n) {
                let part = &enc.parts[p];
                let pbit0 = (part.word0 as u64) * 64;
                let mut reference = vec![0i64; m];
                for (i, o) in reference.iter_mut().enumerate() {
                    *o = part
                        .base
                        .wrapping_add(read_packed(&enc.words, pbit0, part.width, lo + i) as i64);
                }
                for (fi, f) in flavors.iter().enumerate() {
                    let mut got = vec![0i64; m];
                    f(&mut got, &enc.words, pbit0, part.width, part.base, lo, m);
                    assert_eq!(got, reference, "flavor {fi} start={start} n={n}");
                }
            }
        }
    }

    #[test]
    fn delta_flavors_are_equivalent() {
        let mut rng = Rng(0xD17A);
        let mut acc = -500_000i32;
        let values: Vec<i32> = (0..(ENC_PART_ROWS + 321))
            .map(|_| {
                acc = acc.saturating_add((rng.next() % 1000) as i32);
                acc
            })
            .collect();
        let enc = DeltaInts::encode(&values);
        let flavors: &[DecodeDeltaCol] = &[
            decode_delta_i32_branching,
            decode_delta_i32_no_branching,
            decode_delta_i32_unroll8,
            decode_delta_i32_by_width,
        ];
        let cases = [
            (0usize, values.len()),
            (63, 66),
            (64, 64),
            (65, 1),
            (ENC_PART_ROWS - 10, 30),
            (7, 0),
        ];
        for &(start, n) in &cases {
            for (p, lo, m) in ma_vector::encode::part_ranges(start, n) {
                let part = &enc.parts[p];
                let pbit0 = (part.word0 as u64) * 64;
                let blocks0 = p * (ENC_PART_ROWS / 64);
                let bases = &enc.sync[blocks0..];
                let want: Vec<i32> =
                    values[p * ENC_PART_ROWS + lo..p * ENC_PART_ROWS + lo + m].to_vec();
                for (fi, f) in flavors.iter().enumerate() {
                    let mut got = vec![0i32; m];
                    f(&mut got, &enc.words, pbit0, part.width, bases, lo, m);
                    assert_eq!(got, want, "flavor {fi} start={start} n={n}");
                }
            }
        }
    }

    #[test]
    fn dict_flavors_are_equivalent() {
        let strs: Vec<String> = (0..(ENC_PART_ROWS + 99))
            .map(|i| format!("val{:03}", (i * 31) % 613))
            .collect();
        let sv = StrVec::from_strings(&strs);
        let enc = DictStr::encode(sv.arena(), sv.views());
        let flavors: &[DecodeDictCol] = &[
            decode_dict_str_fused,
            decode_dict_str_fission,
            decode_dict_str_unroll8,
            decode_dict_str_by_width,
        ];
        for &(start, n) in &[
            (0usize, 1000usize),
            (500, 9),
            (ENC_PART_ROWS - 5, 20),
            (3, 0),
        ] {
            for (p, lo, m) in ma_vector::encode::part_ranges(start, n) {
                let part = &enc.parts[p];
                let pbit0 = (part.word0 as u64) * 64;
                let ref_codes: Vec<i32> = (0..m)
                    .map(|i| read_packed(&enc.words, pbit0, enc.width, lo + i) as i32)
                    .collect();
                let ref_views: Vec<(u32, u32)> =
                    ref_codes.iter().map(|&c| enc.views[c as usize]).collect();
                for (fi, f) in flavors.iter().enumerate() {
                    let mut views = vec![(0u32, 0u32); m];
                    let mut codes = vec![0i32; m];
                    f(
                        &mut views, &mut codes, &enc.words, pbit0, enc.width, &enc.views, lo, m,
                    );
                    assert_eq!(views, ref_views, "flavor {fi}");
                    assert_eq!(codes, ref_codes, "flavor {fi}");
                }
            }
        }
    }

    #[test]
    fn width_zero_and_full_width_partitions_decode() {
        // All-equal: width 0.
        let enc = encode_for_i64(&[7i64; 100]);
        assert_eq!(enc.parts[0].width, 0);
        let mut out = vec![0i64; 100];
        decode_for_i64_no_branching(&mut out, &enc.words, 0, 0, enc.parts[0].base, 0, 100);
        assert!(out.iter().all(|&x| x == 7));
        // Width 64: extreme range.
        let values = vec![i64::MIN, i64::MAX, -1, 0, 42];
        let enc = encode_for_i64(&values);
        assert_eq!(enc.parts[0].width, 64);
        let flavors: &[DecodeForCol<i64>] = &[
            decode_for_i64_branching,
            decode_for_i64_no_branching,
            decode_for_i64_unroll8,
            decode_for_i64_by_width,
        ];
        for f in flavors {
            let mut out = vec![0i64; 5];
            f(&mut out, &enc.words, 0, 64, enc.parts[0].base, 0, 5);
            assert_eq!(out, values);
        }
    }

    #[test]
    fn registered_decode_flavors_are_callable_and_agree() {
        let d = crate::build_dictionary();
        let values: Vec<i64> = (0..5000).map(|i| 40_000 + (i * i) % 9777).collect();
        let enc = encode_for_i64(&values);
        let part = &enc.parts[0];
        let s = d.lookup::<DecodeForCol<i64>>("decode_for_i64").unwrap();
        assert!(s.len() >= 4, "decode needs >= 4 flavors for the bandit");
        let mut reference = vec![0i64; 64];
        (s.flavor(0))(
            &mut reference,
            &enc.words,
            0,
            part.width,
            part.base,
            100,
            64,
        );
        assert_eq!(&reference[..5], &values[100..105]);
        for i in 1..s.len() {
            let mut got = vec![0i64; 64];
            (s.flavor(i))(&mut got, &enc.words, 0, part.width, part.base, 100, 64);
            assert_eq!(got, reference, "flavor {}", s.info(i).name);
        }
    }

    /// Packs `values` at `width` bits from bit 0, with the trailing
    /// padding word and global sentinel word the codecs append.
    fn pack(width: u32, values: &[u64]) -> Vec<u64> {
        let data = (values.len() as u64 * u64::from(width)).div_ceil(64) as usize;
        let mut words = vec![0u64; data + 2];
        for (r, &v) in values.iter().enumerate() {
            let bit = r as u64 * u64::from(width);
            let (w, s) = ((bit / 64) as usize, (bit % 64) as u32);
            words[w] |= v << s;
            if s + width > 64 {
                words[w + 1] |= v >> (64 - s);
            }
        }
        words
    }

    /// `width`-bit values, the first two the extremes so the width is
    /// exact.
    fn values_of_width(rng: &mut Rng, width: u32, n: usize) -> Vec<u64> {
        let mask = mask_of(width);
        let mut v: Vec<u64> = (0..n).map(|_| rng.next() & mask).collect();
        v[0] = 0;
        v[1] = mask;
        v
    }

    /// The ranges the by-width property covers, over `len` rows of one
    /// packed partition: byte-aligned and non-byte-aligned first rows,
    /// single values, runs shorter and longer than a 64-value step, and
    /// runs ending at the stream's last value.
    fn ranges(len: usize) -> Vec<(usize, usize)> {
        vec![
            (0, len),
            (1, 63),
            (3, 200),
            (7, 1),
            (13, 64),
            (61, 131),
            (64, 64),
            (100, 0),
            (len - 1, 1),
            (len - 5, 5),
            (len - 70, 70),
            (len - 129, 129),
        ]
    }

    /// The width-specialized FOR bodies equal `read_packed` at every width,
    /// portable and (where the CPU has it) AVX2.
    #[test]
    fn by_width_for_matches_reference_at_every_width() {
        type Body<T> = fn(&mut [T], &[u64], u64, u32, i64, usize, usize);
        let mut i32_bodies: Vec<(&str, Body<i32>)> = vec![
            ("portable", for_i32_portable),
            ("flavor", decode_for_i32_by_width),
        ];
        let mut i64_bodies: Vec<(&str, Body<i64>)> = vec![
            ("portable", for_i64_portable),
            ("flavor", decode_for_i64_by_width),
        ];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY (both closures): AVX2 support was checked just above.
            i32_bodies.push(("avx2", |o, w, p, wd, b, f, n| unsafe {
                for_i32_avx2(o, w, p, wd, b, f, n)
            }));
            i64_bodies.push(("avx2", |o, w, p, wd, b, f, n| unsafe {
                for_i64_avx2(o, w, p, wd, b, f, n)
            }));
        }
        let mut rng = Rng(0xB17E);
        let len = 300;
        for width in 0..=64u32 {
            let values = values_of_width(&mut rng, width, len);
            let packed = pack(width, &values);
            // The same stream at bit 0 and one word in, behind a word of
            // set bits standing for the previous partition's tail.
            let shifted: Vec<u64> = std::iter::once(!0).chain(packed.iter().copied()).collect();
            for (words, pbit0) in [(&packed, 0u64), (&shifted, 64)] {
                let base = -(1i64 << 40) + i64::from(width);
                for (first, n) in ranges(len) {
                    let want: Vec<i64> = (first..first + n)
                        .map(|r| base.wrapping_add(read_packed(words, pbit0, width, r) as i64))
                        .collect();
                    for (name, body) in &i64_bodies {
                        let mut got = vec![0i64; n];
                        body(&mut got, words, pbit0, width, base, first, n);
                        assert_eq!(
                            got, want,
                            "i64 {name} width={width} pbit0={pbit0} first={first} n={n}"
                        );
                    }
                    if width > 32 {
                        continue;
                    }
                    let base = i64::from(i32::MIN) + i64::from(width);
                    for (name, body) in &i32_bodies {
                        let mut got = vec![0i32; n];
                        body(&mut got, words, pbit0, width, base, first, n);
                        let want: Vec<i32> = (first..first + n)
                            .map(|r| (base + read_packed(words, pbit0, width, r) as i64) as i32)
                            .collect();
                        assert_eq!(
                            got, want,
                            "i32 {name} width={width} pbit0={pbit0} first={first} n={n}"
                        );
                    }
                }
            }
        }
    }

    /// Across partitions of a real encoded column, including its last
    /// partition's tail next to the global sentinel, the by-width flavor
    /// decodes what the reference path does.
    #[test]
    fn by_width_for_straddles_partitions_and_reaches_the_stream_end() {
        let mut rng = Rng(0x57AD);
        let len = 2 * ENC_PART_ROWS + 77;
        for span in [1u64, 2, 255, 1 << 17, 1 << 31] {
            let values: Vec<i64> = (0..len).map(|_| -5 + (rng.next() % span) as i64).collect();
            let enc = encode_for_i64(&values);
            for (start, n) in [
                (0, len),
                (ENC_PART_ROWS - 37, 100),
                (2 * ENC_PART_ROWS - 3, 80),
                (len - 9, 9),
            ] {
                let mut got = vec![0i64; n];
                let mut o = 0;
                for (p, lo, m) in ma_vector::encode::part_ranges(start, n) {
                    let part = &enc.parts[p];
                    let pbit0 = (part.word0 as u64) * 64;
                    decode_for_i64_by_width(
                        &mut got[o..],
                        &enc.words,
                        pbit0,
                        part.width,
                        part.base,
                        lo,
                        m,
                    );
                    o += m;
                }
                assert_eq!(got, values[start..start + n], "span={span} start={start}");
            }
        }
    }

    /// The width-specialized delta and dictionary bodies agree with the
    /// two-word flavors at every width they specialize, in both builds.
    #[test]
    fn by_width_delta_and_dict_match_the_two_word_flavors() {
        let mut rng = Rng(0xDE1D);
        let len = 300usize;
        let bases: Vec<i64> = (0..len.div_ceil(SYNC_ROWS))
            .map(|_| (rng.next() % 1000) as i64 - 500)
            .collect();
        let dict: Vec<(u32, u32)> = (0..1u32 << 16).map(|i| (i, i % 7)).collect();
        for width in 0..=32u32 {
            let mut values = values_of_width(&mut rng, width, len);
            // Deltas at block starts are stored as zero and never read.
            for v in values.iter_mut().step_by(SYNC_ROWS) {
                *v = 0;
            }
            let words = pack(width, &values);
            for (first, n) in ranges(len) {
                let mut want = vec![0i32; n];
                decode_delta_i32_no_branching(&mut want, &words, 0, width, &bases, first, n);
                let mut got = vec![0i32; n];
                delta_i32_portable(&mut got, &words, 0, width, &bases, first, n);
                assert_eq!(got, want, "delta portable width={width} first={first}");
                decode_delta_i32_by_width(&mut got, &words, 0, width, &bases, first, n);
                assert_eq!(got, want, "delta flavor width={width} first={first}");
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: AVX2 support was checked just above.
                    unsafe { delta_i32_avx2(&mut got, &words, 0, width, &bases, first, n) };
                    assert_eq!(got, want, "delta avx2 width={width} first={first}");
                }
                if width > 16 {
                    continue;
                }
                let (mut want_v, mut want_c) = (vec![(0, 0); n], vec![0i32; n]);
                decode_dict_str_fission(
                    &mut want_v,
                    &mut want_c,
                    &words,
                    0,
                    width,
                    &dict,
                    first,
                    n,
                );
                let (mut got_v, mut got_c) = (vec![(0, 0); n], vec![0i32; n]);
                dict_str_portable(&mut got_v, &mut got_c, &words, 0, width, &dict, first, n);
                assert_eq!((&got_v, &got_c), (&want_v, &want_c), "dict width={width}");
                decode_dict_str_by_width(&mut got_v, &mut got_c, &words, 0, width, &dict, first, n);
                assert_eq!((&got_v, &got_c), (&want_v, &want_c), "dict width={width}");
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: AVX2 support was checked just above.
                    unsafe {
                        dict_str_avx2(&mut got_v, &mut got_c, &words, 0, width, &dict, first, n)
                    };
                    assert_eq!(
                        (&got_v, &got_c),
                        (&want_v, &want_c),
                        "dict avx2 width={width}"
                    );
                }
            }
        }
    }
}
