//! Group hash tables and the `hash_insertcheck` primitives.
//!
//! Hash aggregation maps each input tuple's group key to a dense *group id*.
//! The vectorized `insertcheck` primitive takes a vector of hashes and keys,
//! looks each up in the table, inserts new groups, and writes the group id
//! per position — the primitive of Fig. 4(e) (`hash_insertcheck_str_col`),
//! whose cost visibly grows with the table (cache/TLB misses).
//!
//! Two hash tables: [`GroupTable`] for integer (packed) keys and
//! [`StrGroupTable`] for byte keys (one string column, or a composite key
//! row the operator serialized). Both are open-addressing with linear
//! probing; the *caller* must [`GroupTable::reserve`] capacity for a vector's
//! worth of inserts before calling the primitive, so the primitive itself
//! never rehashes (keeps its cost measurable and its loop tight).
//!
//! A third table, [`DenseGroupTable`], needs no hashing at all: when every
//! group key has a small proven domain the caller maps each key to its
//! slot in the domains' product, and `hash_insertcheck_dense_col` indexes
//! that slot directly. Its cost does not grow with the group count.

const EMPTY: u32 = u32::MAX;

/// Open-addressing hash table assigning dense group ids to `u64` keys.
#[derive(Debug, Clone)]
pub struct GroupTable {
    /// (key, gid) per slot; gid == EMPTY marks a free slot.
    slots: Vec<(u64, u32)>,
    mask: usize,
    groups: u32,
}

impl Default for GroupTable {
    fn default() -> Self {
        Self::new()
    }
}

impl GroupTable {
    /// An empty table with a small initial capacity.
    pub fn new() -> Self {
        GroupTable {
            slots: vec![(0, EMPTY); 64],
            mask: 63,
            groups: 0,
        }
    }

    /// Number of distinct groups inserted so far.
    pub fn groups(&self) -> u32 {
        self.groups
    }

    /// Current slot count (for cache-behaviour experiments).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Resident bytes of the slot array (the table's only allocation).
    /// Reported by the executor's byte-accounting facade against the
    /// memory analyzer's proven per-operator bounds.
    pub fn bytes(&self) -> u64 {
        (self.slots.len() * std::mem::size_of::<(u64, u32)>()) as u64
    }

    /// Ensures the table can absorb `additional` new groups while staying
    /// under 50% load, growing (rehashing) if needed. Group ids are stable
    /// across growth.
    pub fn reserve(&mut self, additional: usize) {
        let needed = (self.groups as usize + additional) * 2;
        if needed <= self.slots.len() {
            return;
        }
        let new_cap = needed.next_power_of_two();
        let old = std::mem::replace(&mut self.slots, vec![(0, EMPTY); new_cap]);
        self.mask = new_cap - 1;
        for (key, gid) in old {
            if gid != EMPTY {
                let mut pos = crate::hashing::hash_u64(key) as usize & self.mask;
                while self.slots[pos].1 != EMPTY {
                    pos = (pos + 1) & self.mask;
                }
                self.slots[pos] = (key, gid);
            }
        }
    }

    /// Every group's key, indexed by group id.
    pub fn keys_by_gid(&self) -> Vec<u64> {
        let mut keys = vec![0; self.groups as usize];
        for &(key, gid) in &self.slots {
            if gid != EMPTY {
                keys[gid as usize] = key;
            }
        }
        keys
    }

    /// Finds or inserts one key, returning its group id.
    #[inline]
    pub fn find_or_insert(&mut self, hash: u64, key: u64) -> u32 {
        let mut pos = hash as usize & self.mask;
        loop {
            let (k, gid) = self.slots[pos];
            if gid == EMPTY {
                let new_gid = self.groups;
                self.slots[pos] = (key, new_gid);
                self.groups += 1;
                return new_gid;
            }
            if k == key {
                return gid;
            }
            pos = (pos + 1) & self.mask;
        }
    }
}

/// `hash_insertcheck_u64_col`: per live position, find-or-insert the key and
/// write the group id. Returns the number of groups after the call.
pub type GroupInsertCheck = fn(
    table: &mut GroupTable,
    hashes: &[u64],
    keys: &[u64],
    gids: &mut [u32],
    sel: Option<&[u32]>,
) -> u32;

/// `gcc` style: plain loop.
pub fn hash_insertcheck_u64_gcc(
    table: &mut GroupTable,
    hashes: &[u64],
    keys: &[u64],
    gids: &mut [u32],
    sel: Option<&[u32]>,
) -> u32 {
    match sel {
        Some(s) => {
            for &i in s {
                let i = i as usize;
                gids[i] = table.find_or_insert(hashes[i], keys[i]);
            }
        }
        None => {
            for i in 0..keys.len() {
                gids[i] = table.find_or_insert(hashes[i], keys[i]);
            }
        }
    }
    table.groups()
}

/// `icc` style: 2-way software-pipelined probe (prefetch-like shape).
pub fn hash_insertcheck_u64_icc(
    table: &mut GroupTable,
    hashes: &[u64],
    keys: &[u64],
    gids: &mut [u32],
    sel: Option<&[u32]>,
) -> u32 {
    match sel {
        Some(s) => {
            let mut j = 0;
            while j + 2 <= s.len() {
                let (i0, i1) = (s[j] as usize, s[j + 1] as usize);
                gids[i0] = table.find_or_insert(hashes[i0], keys[i0]);
                gids[i1] = table.find_or_insert(hashes[i1], keys[i1]);
                j += 2;
            }
            if j < s.len() {
                let i = s[j] as usize;
                gids[i] = table.find_or_insert(hashes[i], keys[i]);
            }
        }
        None => {
            let n = keys.len();
            let mut i = 0;
            while i + 2 <= n {
                gids[i] = table.find_or_insert(hashes[i], keys[i]);
                gids[i + 1] = table.find_or_insert(hashes[i + 1], keys[i + 1]);
                i += 2;
            }
            if i < n {
                gids[i] = table.find_or_insert(hashes[i], keys[i]);
            }
        }
    }
    table.groups()
}

/// `clang` style: iterator formulation on the dense path.
pub fn hash_insertcheck_u64_clang(
    table: &mut GroupTable,
    hashes: &[u64],
    keys: &[u64],
    gids: &mut [u32],
    sel: Option<&[u32]>,
) -> u32 {
    match sel {
        Some(s) => {
            for &i in s {
                let i = i as usize;
                gids[i] = table.find_or_insert(hashes[i], keys[i]);
            }
        }
        None => {
            for ((g, &h), &k) in gids.iter_mut().zip(hashes.iter()).zip(keys.iter()) {
                *g = table.find_or_insert(h, k);
            }
        }
    }
    table.groups()
}

// ---------------------------------------------------------------------------
// direct-indexed keys
// ---------------------------------------------------------------------------

/// Assigns dense group ids to slot indices in `[0, slots)` by direct
/// indexing: one `u32` per slot holding `gid + 1`, 0 marking a free slot,
/// so a fresh table is a single zeroed allocation. Group ids are handed
/// out in first-appearance order, as [`GroupTable`] hands them out.
#[derive(Debug, Clone)]
pub struct DenseGroupTable {
    /// `gid + 1` per slot; 0 is free.
    slots: Vec<u32>,
    /// Every group's slot index, by gid: how the caller reads keys back.
    slot_of: Vec<u32>,
    groups: u32,
}

impl DenseGroupTable {
    /// An empty table over `slots` slot indices.
    pub fn new(slots: usize) -> Self {
        DenseGroupTable {
            slots: vec![0; slots],
            slot_of: Vec::new(),
            groups: 0,
        }
    }

    /// Number of distinct groups inserted so far.
    pub fn groups(&self) -> u32 {
        self.groups
    }

    /// Resident bytes (length-based): the slot array plus the slot index
    /// of every group.
    pub fn bytes(&self) -> u64 {
        ((self.slots.len() + self.slot_of.len()) * std::mem::size_of::<u32>()) as u64
    }

    /// Every group's slot index, indexed by group id.
    pub fn slots_by_gid(&self) -> &[u32] {
        &self.slot_of
    }

    /// Finds or inserts one slot index, returning its group id. Panics if
    /// `slot` is outside the table.
    #[inline]
    pub fn find_or_insert(&mut self, slot: u32) -> u32 {
        let s = &mut self.slots[slot as usize];
        if *s == 0 {
            self.slot_of.push(slot);
            self.groups += 1;
            *s = self.groups;
        }
        *s - 1
    }
}

/// `hash_insertcheck_dense_col`: per live position, find-or-insert the
/// slot index `slots[i]` and write the group id. Returns the number of
/// groups after the call.
pub type DenseInsertCheck =
    fn(table: &mut DenseGroupTable, slots: &[u32], gids: &mut [u32], sel: Option<&[u32]>) -> u32;

/// The one flavor: a plain loop, one array access per tuple.
pub fn hash_insertcheck_dense(
    table: &mut DenseGroupTable,
    slots: &[u32],
    gids: &mut [u32],
    sel: Option<&[u32]>,
) -> u32 {
    match sel {
        Some(s) => {
            for &i in s {
                let i = i as usize;
                gids[i] = table.find_or_insert(slots[i]);
            }
        }
        None => {
            for (g, &slot) in gids.iter_mut().zip(slots) {
                *g = table.find_or_insert(slot);
            }
        }
    }
    table.groups()
}

// ---------------------------------------------------------------------------
// byte keys (strings and composite key rows)
// ---------------------------------------------------------------------------

/// Open-addressing table assigning dense group ids to byte-string keys,
/// owning copies of the keys. A key is whatever bytes the caller hands in:
/// a string column's element, or a composite key row serialized by the
/// aggregation operator.
#[derive(Debug, Clone)]
pub struct StrGroupTable {
    /// (hash, sid, gid); gid == EMPTY marks free.
    slots: Vec<(u64, u32, u32)>,
    mask: usize,
    groups: u32,
    key_bytes: Vec<u8>,
    key_views: Vec<(u32, u32)>,
}

impl Default for StrGroupTable {
    fn default() -> Self {
        Self::new()
    }
}

/// The bytes a `(offset, len)` view denotes in `arena`.
#[inline]
fn view_bytes(arena: &[u8], (off, len): (u32, u32)) -> &[u8] {
    &arena[off as usize..][..len as usize]
}

impl StrGroupTable {
    /// An empty table.
    pub fn new() -> Self {
        StrGroupTable {
            slots: vec![(0, 0, EMPTY); 64],
            mask: 63,
            groups: 0,
            key_bytes: Vec::new(),
            key_views: Vec::new(),
        }
    }

    /// Number of distinct groups.
    pub fn groups(&self) -> u32 {
        self.groups
    }

    /// Resident bytes: the slot array plus stored key bytes and views.
    /// Reported by the executor's byte-accounting facade against the
    /// memory analyzer's proven per-operator bounds.
    pub fn bytes(&self) -> u64 {
        let slots = self.slots.len() * std::mem::size_of::<(u64, u32, u32)>();
        (slots + self.key_bytes.len() + self.key_views.len() * 8) as u64
    }

    /// The group key for `gid` (valid for all assigned gids).
    pub fn key(&self, gid: u32) -> &[u8] {
        view_bytes(&self.key_bytes, self.key_views[gid as usize])
    }

    /// Ensures room for `additional` new groups under 50% load.
    pub fn reserve(&mut self, additional: usize) {
        let needed = (self.groups as usize + additional) * 2;
        if needed <= self.slots.len() {
            return;
        }
        let new_cap = needed.next_power_of_two();
        let old = std::mem::replace(&mut self.slots, vec![(0, 0, EMPTY); new_cap]);
        self.mask = new_cap - 1;
        for (hash, sid, gid) in old {
            if gid != EMPTY {
                let mut pos = hash as usize & self.mask;
                while self.slots[pos].2 != EMPTY {
                    pos = (pos + 1) & self.mask;
                }
                self.slots[pos] = (hash, sid, gid);
            }
        }
    }

    /// Finds or inserts one key.
    #[inline]
    pub fn find_or_insert(&mut self, hash: u64, key: &[u8]) -> u32 {
        let mut pos = hash as usize & self.mask;
        loop {
            let (h, sid, gid) = self.slots[pos];
            if gid == EMPTY {
                let off = self.key_bytes.len() as u32;
                self.key_bytes.extend_from_slice(key);
                let sid = self.key_views.len() as u32;
                self.key_views.push((off, key.len() as u32));
                let new_gid = self.groups;
                self.slots[pos] = (hash, sid, new_gid);
                self.groups += 1;
                return new_gid;
            }
            if h == hash && self.key(sid) == key {
                return gid;
            }
            pos = (pos + 1) & self.mask;
        }
    }
}

/// `hash_insertcheck_str_col` (Fig. 4e): per live position `i`, find-or-
/// insert the key `views[i]` denotes in `arena` and write its group id. A
/// string key column passes its own arena and views; composite keys pass
/// the operator's serialized key rows.
pub type StrGroupInsertCheck = fn(
    table: &mut StrGroupTable,
    hashes: &[u64],
    arena: &[u8],
    views: &[(u32, u32)],
    gids: &mut [u32],
    sel: Option<&[u32]>,
) -> u32;

/// `gcc` style.
pub fn hash_insertcheck_str_gcc(
    table: &mut StrGroupTable,
    hashes: &[u64],
    arena: &[u8],
    views: &[(u32, u32)],
    gids: &mut [u32],
    sel: Option<&[u32]>,
) -> u32 {
    match sel {
        Some(s) => {
            for &i in s {
                let i = i as usize;
                gids[i] = table.find_or_insert(hashes[i], view_bytes(arena, views[i]));
            }
        }
        None => {
            for i in 0..views.len() {
                gids[i] = table.find_or_insert(hashes[i], view_bytes(arena, views[i]));
            }
        }
    }
    table.groups()
}

/// `icc` style: 2-way pipelined.
pub fn hash_insertcheck_str_icc(
    table: &mut StrGroupTable,
    hashes: &[u64],
    arena: &[u8],
    views: &[(u32, u32)],
    gids: &mut [u32],
    sel: Option<&[u32]>,
) -> u32 {
    let mut one = |i: usize| gids[i] = table.find_or_insert(hashes[i], view_bytes(arena, views[i]));
    match sel {
        Some(s) => {
            let mut j = 0;
            while j + 2 <= s.len() {
                one(s[j] as usize);
                one(s[j + 1] as usize);
                j += 2;
            }
            if j < s.len() {
                one(s[j] as usize);
            }
        }
        None => {
            let n = views.len();
            let mut i = 0;
            while i + 2 <= n {
                one(i);
                one(i + 1);
                i += 2;
            }
            if i < n {
                one(i);
            }
        }
    }
    table.groups()
}

/// `clang` style.
pub fn hash_insertcheck_str_clang(
    table: &mut StrGroupTable,
    hashes: &[u64],
    arena: &[u8],
    views: &[(u32, u32)],
    gids: &mut [u32],
    sel: Option<&[u32]>,
) -> u32 {
    match sel {
        Some(s) => {
            for &i in s {
                let i = i as usize;
                gids[i] = table.find_or_insert(hashes[i], view_bytes(arena, views[i]));
            }
        }
        None => {
            for ((g, &h), &v) in gids.iter_mut().zip(hashes).zip(views) {
                *g = table.find_or_insert(h, view_bytes(arena, v));
            }
        }
    }
    table.groups()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::{hash_bytes, hash_u64};

    #[test]
    fn assigns_dense_stable_gids() {
        let mut t = GroupTable::new();
        let a = t.find_or_insert(hash_u64(100), 100);
        let b = t.find_or_insert(hash_u64(200), 200);
        let a2 = t.find_or_insert(hash_u64(100), 100);
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(a2, 0);
        assert_eq!(t.groups(), 2);
    }

    #[test]
    fn survives_growth() {
        let mut t = GroupTable::new();
        let mut gids = Vec::new();
        for k in 0..10_000u64 {
            t.reserve(1);
            gids.push(t.find_or_insert(hash_u64(k), k));
        }
        assert_eq!(t.groups(), 10_000);
        // Lookups after growth return the original gids.
        for k in 0..10_000u64 {
            assert_eq!(t.find_or_insert(hash_u64(k), k), gids[k as usize]);
        }
    }

    #[test]
    fn insertcheck_flavors_agree() {
        let keys: Vec<u64> = (0..512).map(|i| i % 37).collect();
        let hashes: Vec<u64> = keys.iter().map(|&k| hash_u64(k)).collect();
        let sel: Vec<u32> = (0..512u32).filter(|i| i % 3 != 1).collect();
        for sv in [None, Some(sel.as_slice())] {
            let mut expected = vec![0u32; 512];
            let mut t_ref = GroupTable::new();
            t_ref.reserve(512);
            let g_ref = hash_insertcheck_u64_gcc(&mut t_ref, &hashes, &keys, &mut expected, sv);
            for (name, f) in [
                ("icc", hash_insertcheck_u64_icc as GroupInsertCheck),
                ("clang", hash_insertcheck_u64_clang),
            ] {
                let mut t = GroupTable::new();
                t.reserve(512);
                let mut gids = vec![0u32; 512];
                let g = f(&mut t, &hashes, &keys, &mut gids, sv);
                assert_eq!(g, g_ref, "{name}: group count");
                match sv {
                    None => assert_eq!(gids, expected, "{name}"),
                    Some(s) => {
                        for &i in s {
                            assert_eq!(gids[i as usize], expected[i as usize], "{name}");
                        }
                    }
                }
            }
            assert_eq!(g_ref, 37);
        }
    }

    #[test]
    fn dense_table_matches_the_hash_table() {
        // Same keys through both tables: the same gids in the same
        // (first-appearance) order, under a dense and a sparse selection.
        let keys: Vec<u64> = (0..512u64).map(|i| (i * 7919) % 61).collect();
        let hashes: Vec<u64> = keys.iter().map(|&k| hash_u64(k)).collect();
        let slots: Vec<u32> = keys.iter().map(|&k| k as u32).collect();
        let sel: Vec<u32> = (0..512u32).filter(|i| i % 3 != 1).collect();
        for sv in [None, Some(sel.as_slice()), Some(&[][..])] {
            let mut t_ref = GroupTable::new();
            t_ref.reserve(512);
            let mut expected = vec![u32::MAX; 512];
            let g_ref = hash_insertcheck_u64_gcc(&mut t_ref, &hashes, &keys, &mut expected, sv);
            let mut t = DenseGroupTable::new(61);
            let mut gids = vec![u32::MAX; 512];
            assert_eq!(hash_insertcheck_dense(&mut t, &slots, &mut gids, sv), g_ref);
            // Dead positions stay untouched.
            assert_eq!(gids, expected);
            let by_gid: Vec<u64> = t.slots_by_gid().iter().map(|&s| u64::from(s)).collect();
            assert_eq!(by_gid, t_ref.keys_by_gid());
            assert_eq!(t.bytes(), (61 + u64::from(g_ref)) * 4);
        }
    }

    /// Packs `keys` back to back: the `(arena, views)` pair the byte-keyed
    /// insertcheck reads.
    fn pack(keys: &[Vec<u8>]) -> (Vec<u8>, Vec<(u32, u32)>) {
        let mut arena = Vec::new();
        let views = keys
            .iter()
            .map(|k| {
                let off = arena.len() as u32;
                arena.extend_from_slice(k);
                (off, k.len() as u32)
            })
            .collect();
        (arena, views)
    }

    #[test]
    fn byte_table_roundtrips_keys() {
        let mut t = StrGroupTable::new();
        t.reserve(8);
        // Not UTF-8, embedded NUL, and the empty key are all just bytes.
        let keys: [&[u8]; 4] = [b"Brand#12", b"\xff\x00\xfe", b"", b"\x00"];
        let gids: Vec<u32> = keys
            .iter()
            .map(|k| t.find_or_insert(hash_bytes(k), k))
            .collect();
        assert_eq!(gids, vec![0, 1, 2, 3]);
        for (k, &g) in keys.iter().zip(&gids) {
            assert_eq!(t.find_or_insert(hash_bytes(k), k), g);
            assert_eq!(t.key(g), *k);
        }
        assert_eq!(t.groups(), 4);
    }

    #[test]
    fn byte_insertcheck_flavors_agree() {
        // 19 distinct keys of mixed length, including a prefix pair.
        let keys: Vec<Vec<u8>> = (0..256u32)
            .map(|i| {
                let k = i % 19;
                let mut v = k.to_le_bytes().to_vec();
                v.extend(std::iter::repeat_n(b'x', (k % 4) as usize));
                v
            })
            .collect();
        let (arena, views) = pack(&keys);
        let hashes: Vec<u64> = keys.iter().map(|k| hash_bytes(k)).collect();
        let sparse: Vec<u32> = (0..256u32).filter(|i| i % 3 != 1).collect();
        for sv in [None, Some(sparse.as_slice()), Some(&[][..])] {
            let mut expected = vec![u32::MAX; 256];
            let mut t_ref = StrGroupTable::new();
            t_ref.reserve(256);
            let g_ref =
                hash_insertcheck_str_gcc(&mut t_ref, &hashes, &arena, &views, &mut expected, sv);
            assert_eq!(g_ref, if sv == Some(&[][..]) { 0 } else { 19 });
            for (name, f) in [
                ("icc", hash_insertcheck_str_icc as StrGroupInsertCheck),
                ("clang", hash_insertcheck_str_clang),
            ] {
                let mut t = StrGroupTable::new();
                t.reserve(256);
                let mut gids = vec![u32::MAX; 256];
                let g = f(&mut t, &hashes, &arena, &views, &mut gids, sv);
                assert_eq!(g, g_ref, "{name}: group count");
                // Dead positions stay untouched in every flavor.
                assert_eq!(gids, expected, "{name}");
            }
        }
    }

    #[test]
    fn byte_table_survives_growth() {
        let mut t = StrGroupTable::new();
        for i in 0..5000u32 {
            t.reserve(1);
            let k = format!("group-{i}");
            let gid = t.find_or_insert(hash_bytes(k.as_bytes()), k.as_bytes());
            assert_eq!(gid, i);
        }
        assert_eq!(t.groups(), 5000);
        assert_eq!(t.key(4321), b"group-4321");
        // Lookups after growth return the original gids.
        for i in (0..5000u32).step_by(97) {
            let k = format!("group-{i}");
            assert_eq!(t.find_or_insert(hash_bytes(k.as_bytes()), k.as_bytes()), i);
        }
    }

    #[test]
    fn colliding_hashes_still_distinguish_keys() {
        // Force identical hashes through a whole vector: every key probes
        // the same chain and must still get its own gid from the byte
        // comparison, in all three flavors.
        let keys: Vec<Vec<u8>> = (0..64u32).map(|i| (i % 8).to_le_bytes().to_vec()).collect();
        let (arena, views) = pack(&keys);
        let hashes = vec![42u64; 64];
        for f in [
            hash_insertcheck_str_gcc as StrGroupInsertCheck,
            hash_insertcheck_str_icc,
            hash_insertcheck_str_clang,
        ] {
            let mut t = StrGroupTable::new();
            t.reserve(64);
            let mut gids = vec![0u32; 64];
            assert_eq!(f(&mut t, &hashes, &arena, &views, &mut gids, None), 8);
            for (i, &g) in gids.iter().enumerate() {
                assert_eq!(g, (i % 8) as u32);
            }
        }
    }
}
