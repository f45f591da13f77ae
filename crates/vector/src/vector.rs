//! Typed value vectors.

use std::sync::Arc;

use crate::types::DataType;

/// A vector of variable-length strings.
///
/// Elements are `(offset, len)` views into a shared immutable byte arena.
/// This mirrors Vectorwise's `char**` string vectors: every element is
/// individually addressable, so a primitive can write `res[i]` for an
/// arbitrary selected position `i` without re-packing the whole vector, and
/// "producing" a string (fetch, substring) is O(1) — a new view into the same
/// arena.
#[derive(Debug, Clone)]
pub struct StrVec {
    arena: Arc<[u8]>,
    views: Vec<(u32, u32)>,
    /// Set when this vector was decoded from a dictionary-coded column:
    /// the sorted dictionary views (into `arena`) plus one code per
    /// element. Filters compare codes instead of bytes when present.
    dict: Option<DictPayload>,
}

/// Dictionary payload of a [`StrVec`] decoded from a dictionary-coded
/// column: the sorted dictionary views plus one code per element.
#[derive(Debug, Clone)]
struct DictPayload {
    views: Arc<Vec<(u32, u32)>>,
    codes: Vec<i32>,
}

/// Borrowed dictionary payload: `(sorted dictionary views, per-element
/// codes)`. See [`StrVec::dict_codes`].
pub type DictCodesRef<'a> = (&'a [(u32, u32)], &'a [i32]);

impl StrVec {
    /// Builds a string vector owning a fresh arena from the given strings.
    pub fn from_strings<S: AsRef<str>>(strings: &[S]) -> Self {
        let total: usize = strings.iter().map(|s| s.as_ref().len()).sum();
        let mut bytes = Vec::with_capacity(total);
        let mut views = Vec::with_capacity(strings.len());
        for s in strings {
            let s = s.as_ref();
            let off = bytes.len() as u32;
            bytes.extend_from_slice(s.as_bytes());
            views.push((off, s.len() as u32));
        }
        StrVec {
            arena: bytes.into(),
            views,
            dict: None,
        }
    }

    /// Builds from a shared arena and explicit views.
    ///
    /// Views must denote valid UTF-8 substrings of the arena; this is
    /// checked in debug builds.
    pub fn from_views(arena: Arc<[u8]>, views: Vec<(u32, u32)>) -> Self {
        #[cfg(debug_assertions)]
        for &(off, len) in &views {
            let bytes = &arena[off as usize..(off + len) as usize];
            debug_assert!(std::str::from_utf8(bytes).is_ok());
        }
        StrVec {
            arena,
            views,
            dict: None,
        }
    }

    /// Builds a dictionary-decoded vector: element views gathered from a
    /// sorted dictionary sharing `arena`, with the per-element codes kept
    /// alongside so equality filters can compare codes instead of bytes.
    pub fn from_dict(
        arena: Arc<[u8]>,
        dict_views: Arc<Vec<(u32, u32)>>,
        views: Vec<(u32, u32)>,
        codes: Vec<i32>,
    ) -> Self {
        debug_assert_eq!(views.len(), codes.len());
        StrVec {
            arena,
            views,
            dict: Some(DictPayload {
                views: dict_views,
                codes,
            }),
        }
    }

    /// The sorted dictionary views and per-element codes, when this vector
    /// was decoded from a dictionary-coded column. Codes are indices into
    /// the dictionary, and the dictionary is lexicographically sorted, so
    /// code equality is string equality.
    pub fn dict_codes(&self) -> Option<DictCodesRef<'_>> {
        self.dict
            .as_ref()
            .map(|d| (d.views.as_slice(), d.codes.as_slice()))
    }

    /// An empty vector sharing `arena`, with room for `cap` views, used as an
    /// output buffer by fetch/substring primitives.
    pub fn writable_like(&self, cap: usize) -> StrVec {
        StrVec {
            arena: Arc::clone(&self.arena),
            views: vec![(0, 0); cap],
            dict: None,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// True when the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// The bytes of the string at position `i`, without UTF-8 validation:
    /// what hashing, equality and group-key kernels read per tuple.
    #[inline]
    pub fn get_bytes(&self, i: usize) -> &[u8] {
        let (off, len) = self.views[i];
        &self.arena[off as usize..][..len as usize]
    }

    /// The string at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        // SAFETY-free: constructors validate UTF-8 (always for from_strings,
        // debug-checked for from_views); use the checked form anyway —
        // per-tuple kernels that only need bytes call `get_bytes`.
        std::str::from_utf8(self.get_bytes(i)).expect("StrVec arena corruption")
    }

    /// The raw `(offset, len)` views.
    pub fn views(&self) -> &[(u32, u32)] {
        &self.views
    }

    /// Mutable views, for gather/substring primitives writing in place.
    pub fn views_mut(&mut self) -> &mut [(u32, u32)] {
        &mut self.views
    }

    /// The shared arena.
    pub fn arena(&self) -> &Arc<[u8]> {
        &self.arena
    }

    /// Iterates all strings in order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }
}

/// A typed vector of values: one column's worth of (at most
/// [`crate::VECTOR_SIZE`]) tuples.
#[derive(Debug, Clone)]
pub enum Vector {
    /// `I16`.
    I16(Vec<i16>),
    /// `I32`.
    I32(Vec<i32>),
    /// `I64`.
    I64(Vec<i64>),
    /// `F64`.
    F64(Vec<f64>),
    /// `Str`.
    Str(StrVec),
}

impl Vector {
    /// The scalar type of this vector.
    pub fn data_type(&self) -> DataType {
        match self {
            Vector::I16(_) => DataType::I16,
            Vector::I32(_) => DataType::I32,
            Vector::I64(_) => DataType::I64,
            Vector::F64(_) => DataType::F64,
            Vector::Str(_) => DataType::Str,
        }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        match self {
            Vector::I16(v) => v.len(),
            Vector::I32(v) => v.len(),
            Vector::I64(v) => v.len(),
            Vector::F64(v) => v.len(),
            Vector::Str(v) => v.len(),
        }
    }

    /// True when the vector holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A zeroed writable vector of type `dt` and length `n` (output buffer).
    pub fn zeroed(dt: DataType, n: usize) -> Vector {
        match dt {
            DataType::I16 => Vector::I16(vec![0; n]),
            DataType::I32 => Vector::I32(vec![0; n]),
            DataType::I64 => Vector::I64(vec![0; n]),
            DataType::F64 => Vector::F64(vec![0.0; n]),
            DataType::Str => Vector::Str(StrVec::from_strings::<&str>(&[]).writable_like(n)),
        }
    }

    /// Typed accessors. Panic on type mismatch — plan construction is typed,
    /// so a mismatch is a bug in the plan builder, not a runtime condition.
    pub fn as_i16(&self) -> &[i16] {
        match self {
            Vector::I16(v) => v,
            other => panic!("expected i16 vector, got {}", other.data_type()),
        }
    }
    /// `as_i32`.
    pub fn as_i32(&self) -> &[i32] {
        match self {
            Vector::I32(v) => v,
            other => panic!("expected i32 vector, got {}", other.data_type()),
        }
    }
    /// `as_i64`.
    pub fn as_i64(&self) -> &[i64] {
        match self {
            Vector::I64(v) => v,
            other => panic!("expected i64 vector, got {}", other.data_type()),
        }
    }
    /// `as_f64`.
    pub fn as_f64(&self) -> &[f64] {
        match self {
            Vector::F64(v) => v,
            other => panic!("expected f64 vector, got {}", other.data_type()),
        }
    }
    /// `as_str_vec`.
    pub fn as_str_vec(&self) -> &StrVec {
        match self {
            Vector::Str(v) => v,
            other => panic!("expected str vector, got {}", other.data_type()),
        }
    }

    /// `as_i16_mut`.
    pub fn as_i16_mut(&mut self) -> &mut [i16] {
        match self {
            Vector::I16(v) => v,
            other => panic!("expected i16 vector, got {}", other.data_type()),
        }
    }
    /// `as_i32_mut`.
    pub fn as_i32_mut(&mut self) -> &mut [i32] {
        match self {
            Vector::I32(v) => v,
            other => panic!("expected i32 vector, got {}", other.data_type()),
        }
    }
    /// `as_i64_mut`.
    pub fn as_i64_mut(&mut self) -> &mut [i64] {
        match self {
            Vector::I64(v) => v,
            other => panic!("expected i64 vector, got {}", other.data_type()),
        }
    }
    /// `as_f64_mut`.
    pub fn as_f64_mut(&mut self) -> &mut [f64] {
        match self {
            Vector::F64(v) => v,
            other => panic!("expected f64 vector, got {}", other.data_type()),
        }
    }
    /// `as_str_vec_mut`.
    pub fn as_str_vec_mut(&mut self) -> &mut StrVec {
        match self {
            Vector::Str(v) => v,
            other => panic!("expected str vector, got {}", other.data_type()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn str_vec_roundtrip() {
        let v = StrVec::from_strings(&["alpha", "", "gamma"]);
        assert_eq!(v.len(), 3);
        assert_eq!(v.get(0), "alpha");
        assert_eq!(v.get(1), "");
        assert_eq!(v.get(2), "gamma");
        assert_eq!(v.get_bytes(0), b"alpha");
        assert_eq!(v.get_bytes(1), b"");
        let all: Vec<&str> = v.iter().collect();
        assert_eq!(all, vec!["alpha", "", "gamma"]);
    }

    #[test]
    fn str_vec_writable_shares_arena() {
        let v = StrVec::from_strings(&["hello", "world"]);
        let mut out = v.writable_like(2);
        // gather element 1 then 0
        out.views_mut()[0] = v.views()[1];
        out.views_mut()[1] = v.views()[0];
        assert_eq!(out.get(0), "world");
        assert_eq!(out.get(1), "hello");
        assert!(Arc::ptr_eq(v.arena(), out.arena()));
    }

    #[test]
    fn substring_views() {
        let v = StrVec::from_strings(&["27-foo", "31-bar"]);
        let mut out = v.writable_like(2);
        for i in 0..2 {
            let (off, _len) = v.views()[i];
            out.views_mut()[i] = (off, 2); // substring(x, 1, 2)
        }
        assert_eq!(out.get(0), "27");
        assert_eq!(out.get(1), "31");
    }

    #[test]
    fn vector_types_and_lengths() {
        assert_eq!(Vector::I16(vec![1, 2]).data_type(), DataType::I16);
        assert_eq!(Vector::I32(vec![1]).len(), 1);
        assert_eq!(Vector::I64(vec![]).len(), 0);
        assert!(Vector::F64(vec![]).is_empty());
        let z = Vector::zeroed(DataType::F64, 4);
        assert_eq!(z.as_f64(), &[0.0; 4]);
        let zs = Vector::zeroed(DataType::Str, 3);
        assert_eq!(zs.as_str_vec().get(2), "");
    }

    #[test]
    #[should_panic(expected = "expected i32 vector")]
    fn typed_accessor_mismatch_panics() {
        Vector::I64(vec![1]).as_i32();
    }

    #[test]
    fn zeroed_mut_access() {
        let mut v = Vector::zeroed(DataType::I32, 3);
        v.as_i32_mut()[1] = 42;
        assert_eq!(v.as_i32(), &[0, 42, 0]);
    }
}
