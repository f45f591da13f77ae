//! SQL `LIKE` pattern matching and its selection primitives.
//!
//! TPC-H needs a handful of shapes: prefix (`PROMO%`), contains (`%green%`)
//! and multi-segment (`%special%requests%`). Patterns are compiled once at
//! plan-build time; the primitive matches a vector of strings against the
//! compiled pattern. Only `%` wildcards occur in TPC-H; `_` is supported for
//! completeness.
//!
//! Matching reads a string's bytes (no per-row UTF-8 validation) and
//! searches each `%`-separated segment with a finder built once at
//! compile time.

use ma_vector::StrVec;

/// A compiled LIKE pattern: literal segments separated by `%`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LikePattern {
    /// Literal segments between `%` wildcards, in order, each with its
    /// finder built once here rather than per row.
    segments: Vec<Finder>,
    /// Whether the pattern starts without a leading `%` (anchored start).
    anchored_start: bool,
    /// Whether the pattern ends without a trailing `%` (anchored end).
    anchored_end: bool,
    /// Whether any `_` occurs (falls back to a slow positional matcher).
    has_underscore: bool,
    /// Raw pattern, kept for the `_` fallback and for display.
    raw: String,
}

/// A substring finder for one non-empty literal segment: a filter on the
/// segment's first and last bytes, eight candidate positions per 64-bit
/// word, confirmed by a slice compare.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Finder {
    needle: Vec<u8>,
    /// The first byte in every byte of a word.
    first: u64,
    /// The last byte in every byte of a word.
    last: u64,
}

const LO7: u64 = 0x7F7F_7F7F_7F7F_7F7F;

/// `0x80` in every byte of `x` that is zero, `0x00` elsewhere (exact: no
/// borrow crosses bytes).
#[inline(always)]
fn zero_bytes(x: u64) -> u64 {
    !(((x & LO7) + LO7) | x | LO7)
}

#[inline(always)]
fn word_at(s: &[u8], i: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&s[i..i + 8]);
    u64::from_le_bytes(b)
}

impl Finder {
    fn new(needle: &[u8]) -> Finder {
        let splat = |b: u8| u64::from_le_bytes([b; 8]);
        Finder {
            needle: needle.to_vec(),
            first: splat(needle[0]),
            last: splat(needle[needle.len() - 1]),
        }
    }

    /// The position of the first occurrence of the segment in `hay`.
    fn find(&self, hay: &[u8]) -> Option<usize> {
        let n = self.needle.len();
        // Candidate starts are `0..ends`.
        let ends = hay.len().checked_sub(n)? + 1;
        let is_at = |i: usize| hay[i..i + n] == self.needle[..];
        let mut i = 0;
        // Eight candidates per step: their first bytes are the word at
        // `i`, their last bytes the word at `i + n - 1`, which ends at or
        // before `hay.len()` while `i + 8 <= ends`.
        while i + 8 <= ends {
            let mut m = zero_bytes(word_at(hay, i) ^ self.first)
                & zero_bytes(word_at(hay, i + n - 1) ^ self.last);
            while m != 0 {
                let k = i + (m.trailing_zeros() / 8) as usize;
                if is_at(k) {
                    return Some(k);
                }
                m &= m - 1;
            }
            i += 8;
        }
        (i..ends).find(|&k| is_at(k))
    }
}

impl LikePattern {
    /// Compiles a LIKE pattern.
    pub fn compile(pattern: &str) -> Self {
        let has_underscore = pattern.contains('_');
        let anchored_start = !pattern.starts_with('%');
        let anchored_end = !pattern.ends_with('%');
        let segments: Vec<Finder> = pattern
            .split('%')
            .filter(|s| !s.is_empty())
            .map(|s| Finder::new(s.as_bytes()))
            .collect();
        LikePattern {
            segments,
            anchored_start,
            anchored_end,
            has_underscore,
            raw: pattern.to_string(),
        }
    }

    /// The original pattern text.
    pub fn raw(&self) -> &str {
        &self.raw
    }

    /// Matches one string against the pattern.
    pub fn matches(&self, s: &str) -> bool {
        self.matches_bytes(s.as_bytes())
    }

    /// Matches the bytes of one string against the pattern. A byte-wise
    /// match of UTF-8 text is a character-wise one for `%` patterns: a
    /// segment found in valid UTF-8 starts and ends on character
    /// boundaries.
    pub fn matches_bytes(&self, s: &[u8]) -> bool {
        if self.has_underscore {
            return like_match_positional(s, self.raw.as_bytes());
        }
        if self.segments.is_empty() {
            // "%", "%%", or "" patterns.
            return !(self.anchored_start && self.anchored_end) || s.is_empty();
        }
        let mut rest = s;
        let last = self.segments.len() - 1;
        for (idx, seg) in self.segments.iter().enumerate() {
            let is_first = idx == 0;
            let is_last = idx == last;
            if is_first && self.anchored_start {
                match rest.strip_prefix(&seg.needle[..]) {
                    Some(r) => rest = r,
                    None => return false,
                }
                if is_last && self.anchored_end {
                    return rest.is_empty();
                }
            } else if is_last && self.anchored_end {
                // The final segment must close the string.
                return rest.ends_with(&seg.needle);
            } else {
                match seg.find(rest) {
                    Some(p) => rest = &rest[p + seg.needle.len()..],
                    None => return false,
                }
            }
        }
        true
    }
}

/// Classic recursive-descent LIKE matcher supporting `%` and `_` (used only
/// when `_` occurs — none of the TPC-H patterns do).
fn like_match_positional(s: &[u8], p: &[u8]) -> bool {
    if p.is_empty() {
        return s.is_empty();
    }
    match p[0] {
        b'%' => {
            // Try all suffixes.
            (0..=s.len()).any(|i| like_match_positional(&s[i..], &p[1..]))
        }
        b'_' => !s.is_empty() && like_match_positional(&s[1..], &p[1..]),
        c => !s.is_empty() && s[0] == c && like_match_positional(&s[1..], &p[1..]),
    }
}

/// LIKE selection primitive type.
pub type SelLike =
    fn(res: &mut [u32], col: &StrVec, pat: &LikePattern, sel: Option<&[u32]>) -> usize;

/// `sel_like_str_col_val`: select positions matching the pattern.
pub fn sel_like(res: &mut [u32], col: &StrVec, pat: &LikePattern, sel: Option<&[u32]>) -> usize {
    let mut k = 0;
    match sel {
        Some(s) => {
            for &i in s {
                if pat.matches_bytes(col.get_bytes(i as usize)) {
                    res[k] = i;
                    k += 1;
                }
            }
        }
        None => {
            for i in 0..col.len() {
                if pat.matches_bytes(col.get_bytes(i)) {
                    res[k] = i as u32;
                    k += 1;
                }
            }
        }
    }
    k
}

/// `sel_not_like_str_col_val`: select positions NOT matching the pattern.
pub fn sel_not_like(
    res: &mut [u32],
    col: &StrVec,
    pat: &LikePattern,
    sel: Option<&[u32]>,
) -> usize {
    let mut k = 0;
    match sel {
        Some(s) => {
            for &i in s {
                if !pat.matches_bytes(col.get_bytes(i as usize)) {
                    res[k] = i;
                    k += 1;
                }
            }
        }
        None => {
            for i in 0..col.len() {
                if !pat.matches_bytes(col.get_bytes(i)) {
                    res[k] = i as u32;
                    k += 1;
                }
            }
        }
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pat: &str, s: &str) -> bool {
        LikePattern::compile(pat).matches(s)
    }

    #[test]
    fn prefix_patterns() {
        assert!(m("PROMO%", "PROMO BURNISHED COPPER"));
        assert!(!m("PROMO%", "STANDARD BRASS"));
        assert!(m("PROMO%", "PROMO"));
        assert!(!m("PROMO%", "PROM"));
    }

    #[test]
    fn contains_patterns() {
        assert!(m("%green%", "dark green metallic"));
        assert!(m("%green%", "green"));
        assert!(!m("%green%", "gren"));
    }

    #[test]
    fn suffix_patterns() {
        assert!(m("%BRASS", "LARGE POLISHED BRASS"));
        assert!(!m("%BRASS", "BRASS PLATED"));
    }

    #[test]
    fn multi_segment_patterns() {
        // Q13's famous pattern.
        assert!(m(
            "%special%requests%",
            "the special packages. carefully final requests nag"
        ));
        assert!(!m("%special%requests%", "requests before special"));
        assert!(m("%Customer%Complaints%", "xx Customer yy Complaints zz"));
    }

    #[test]
    fn exact_and_empty_patterns() {
        assert!(m("MAIL", "MAIL"));
        assert!(!m("MAIL", "MAILX"));
        assert!(m("%", "anything"));
        assert!(m("%", ""));
        assert!(m("", ""));
        assert!(!m("", "x"));
    }

    #[test]
    fn anchored_both_ends_with_middle_wildcard() {
        assert!(m("forest%", "forest green"));
        assert!(m("a%z", "abcz"));
        assert!(m("a%z", "az"));
        assert!(!m("a%z", "abc"));
        assert!(!m("a%z", "za"));
    }

    #[test]
    fn overlapping_segment_greediness() {
        // Anchored-end segment must match the *final* occurrence.
        assert!(m("%ab", "abab"));
        assert!(m("a%ab", "aab"));
        assert!(!m("a%ab", "ab")); // 'a' consumed, "ab" can't fit in "b"
    }

    #[test]
    fn underscore_fallback() {
        assert!(m("a_c", "abc"));
        assert!(!m("a_c", "ac"));
        assert!(m("_%", "x"));
        assert!(!m("_%", ""));
    }

    #[test]
    fn sel_like_primitives() {
        let col = StrVec::from_strings(&[
            "PROMO ANODIZED TIN",
            "ECONOMY BRUSHED STEEL",
            "PROMO PLATED COPPER",
        ]);
        let pat = LikePattern::compile("PROMO%");
        let mut res = [0u32; 3];
        let k = sel_like(&mut res, &col, &pat, None);
        assert_eq!(&res[..k], &[0, 2]);
        let k = sel_not_like(&mut res, &col, &pat, None);
        assert_eq!(&res[..k], &[1]);
        // under a selection vector
        let sel = [1u32, 2];
        let k = sel_like(&mut res, &col, &pat, Some(&sel));
        assert_eq!(&res[..k], &[2]);
    }

    /// SplitMix64 for deterministic pseudo-random cases.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn text(&mut self, alphabet: &[&str], max_len: u64) -> String {
            let len = self.next() % (max_len + 1);
            (0..len)
                .map(|_| alphabet[(self.next() % alphabet.len() as u64) as usize])
                .collect()
        }
    }

    /// The compiled matcher agrees with the positional reference on
    /// random patterns and strings: anchored and open ends, segments that
    /// repeat their own prefix (`%aab%` in `aaab`), strings longer than a
    /// word of candidates, and multi-byte UTF-8.
    #[test]
    fn compiled_matcher_agrees_with_positional_reference() {
        let mut rng = Rng(0x11CE);
        let pieces = ["a", "b", "é", "ab", "%"];
        let letters = ["a", "a", "b", "é", "ü"];
        for case in 0..20_000 {
            let pat = rng.text(&pieces, 6);
            let s = rng.text(&letters, 1 + case % 40);
            let got = LikePattern::compile(&pat).matches_bytes(s.as_bytes());
            let want = like_match_positional(s.as_bytes(), pat.as_bytes());
            assert_eq!(got, want, "pattern {pat:?} on {s:?}");
        }
        for (pat, s, want) in [
            ("%aab%", "aaab", true),
            ("%aab%", "aaaaaaaaaaaaaaaab", true),
            ("%aab%", "aaaaaaaaaaaaaaaaa", false),
            ("%é%ü", "xxééüxxxxxxxü", true),
            ("é%", "éa", true),
            (
                "%special%requests%",
                "carefully final special deposits nag requests",
                true,
            ),
        ] {
            assert_eq!(m(pat, s), want, "{pat:?} on {s:?}");
            assert_eq!(like_match_positional(s.as_bytes(), pat.as_bytes()), want);
        }
    }
}
