//! The packed, interned DP state engine.
//!
//! Both offline dynamic programs (Algorithms 1 and 2) identify a state by
//! `(configuration bitmask, position vector)`. Storing that as a
//! [`StateKey`] — a `u64` plus a heap-allocated `Box<[u32]>` — costs one
//! allocation per state, a SipHash pass per lookup, and a clone per
//! table it lands in. This module replaces it with an append-only
//! [`StateArena`] behind [`Dedup`] tables: every distinct state is stored
//! exactly once and referenced everywhere by a dense `u32` [`StateId`],
//! so the DP frontiers become flat `Vec`-indexed tables.
//!
//! ## Key packing
//!
//! Positions are packed into a single `u128` whenever they fit
//! (`p · ceil(log2(max_pos + 1)) ≤ 128` — every practical instance; the
//! state space is astronomically large long before the packing
//! overflows). Position `i` occupies bits
//! `[(p - 1 - i)·b, (p - i)·b)` — **most-significant first** — so that
//! comparing two packed words as integers equals comparing the position
//! vectors lexicographically. Combined with the configuration ordered
//! first, `(cfg, packed)` tuple order is exactly the canonical
//! [`StateKey`] order the DPs sort by. Oversized instances spill to a
//! contiguous `u32` arena with the same canonical ordering (proven equal
//! by proptest in both paths).
//!
//! ## Interning and dedup
//!
//! The arena only appends and hands states out by id; deduplication is
//! the job of [`Dedup`], an open-addressing table (linear probing,
//! power-of-two capacity, grown at 3/4 load) that stores only `StateId`s
//! and compares keys against the arena payload, hashed by multiply-rotate
//! mixing of the raw key words (the FxHash step) rather than the standard
//! library's SipHash. Callers keep one small table per group of states
//! that can collide — FTF one per pending position-sum bucket, PIF one
//! per layer — so the table a lookup touches stays cache-resident.
//! Checkpoints are representation-independent: they serialize
//! *materialized* [`StateKey`]s (see [`StateArena::key`]) in the same
//! canonical order and byte layout as the unpacked engine did.

use crate::state::StateKey;
use std::cmp::Ordering;

/// Dense reference to an interned state: an index into a [`StateArena`].
pub type StateId = u32;

/// Sentinel for "no state" (empty dedup slot / no parent).
pub const NO_STATE: StateId = StateId::MAX;

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[inline]
fn fx_mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(FX_SEED)
}

/// A position vector encoded for its arena's representation, produced by
/// [`StateArena::pack`]. Workers pack on their own threads; only the
/// sequential merge mutates the arena.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PackedPos {
    /// Fixed-width bit-packed positions (the fast path).
    Inline(u128),
    /// Verbatim positions for oversized instances.
    Spill(Box<[u32]>),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// `bits` per position, most-significant-first.
    Inline {
        bits: u32,
    },
    Spill,
}

/// Append-only payload store of DP states.
///
/// Construction picks the representation from the instance shape (see
/// [`StateArena::new`]); every later operation is
/// representation-agnostic. The arena does not deduplicate: a [`Dedup`]
/// table in front of it decides whether a key is new, and the arena hands
/// out ids in append order. `&StateArena` is `Sync`, so parallel
/// expansion workers can decode and [`pack`](StateArena::pack) freely
/// while appends stay confined to the sequential merge.
#[derive(Clone, Debug)]
pub struct StateArena {
    mode: Mode,
    cores: usize,
    cfgs: Vec<u64>,
    packed: Vec<u128>,
    spill: Vec<u32>,
}

impl StateArena {
    /// Arena for `cores` position entries each at most `max_pos`.
    /// Packs inline when `cores · ceil(log2(max_pos + 1)) ≤ 128`,
    /// otherwise spills. `force_spill` pins the spill representation
    /// (testing hook: both paths must agree bit-for-bit).
    pub fn new(cores: usize, max_pos: u64, force_spill: bool) -> Self {
        let bits = 64 - max_pos.leading_zeros() as u64;
        let mode = if !force_spill && cores as u64 * bits <= 128 {
            Mode::Inline { bits: bits as u32 }
        } else {
            Mode::Spill
        };
        StateArena {
            mode,
            cores,
            cfgs: Vec::new(),
            packed: Vec::new(),
            spill: Vec::new(),
        }
    }

    /// Number of stored states.
    #[inline]
    pub fn len(&self) -> usize {
        self.cfgs.len()
    }

    /// Whether no state has been stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cfgs.is_empty()
    }

    /// Whether this arena packs positions inline (vs. spilling).
    pub fn is_inline(&self) -> bool {
        matches!(self.mode, Mode::Inline { .. })
    }

    /// Drop all states but keep the allocations (layer reuse).
    pub fn clear(&mut self) {
        self.cfgs.clear();
        self.packed.clear();
        self.spill.clear();
    }

    /// Approximate heap footprint of the stored payload in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.cfgs.capacity() * 8 + self.packed.capacity() * 16 + self.spill.capacity() * 4
    }

    /// Encode `positions` for this arena's representation without
    /// touching the arena (worker-side, allocation-free on the inline
    /// path).
    #[inline]
    pub fn pack(&self, positions: &[u32]) -> PackedPos {
        debug_assert_eq!(positions.len(), self.cores);
        match self.mode {
            Mode::Inline { bits } => PackedPos::Inline(Self::pack_inline(positions, bits)),
            Mode::Spill => PackedPos::Spill(positions.into()),
        }
    }

    #[inline]
    fn pack_inline(positions: &[u32], bits: u32) -> u128 {
        let mut word = 0u128;
        for &x in positions {
            debug_assert!(bits >= 128 || u128::from(x) < (1u128 << bits));
            word = (word << bits) | u128::from(x);
        }
        word
    }

    #[inline]
    fn hash_inline(cfg: u64, word: u128) -> u64 {
        fx_mix(fx_mix(fx_mix(0, cfg), word as u64), (word >> 64) as u64)
    }

    fn hash_spill(cfg: u64, positions: &[u32]) -> u64 {
        let mut h = fx_mix(0, cfg);
        for &x in positions {
            h = fx_mix(h, u64::from(x));
        }
        h
    }

    /// Dedup hash of a packed key (FxHash; its high bits are the
    /// well-mixed ones).
    #[inline]
    fn hash_packed(cfg: u64, pp: &PackedPos) -> u64 {
        match pp {
            PackedPos::Inline(word) => Self::hash_inline(cfg, *word),
            PackedPos::Spill(positions) => Self::hash_spill(cfg, positions),
        }
    }

    /// Dedup hash of the stored state `id` (equal to
    /// [`hash_packed`](Self::hash_packed) of its key).
    #[inline]
    fn hash_id(&self, id: StateId) -> u64 {
        let cfg = self.cfgs[id as usize];
        match self.mode {
            Mode::Inline { .. } => Self::hash_inline(cfg, self.packed[id as usize]),
            Mode::Spill => Self::hash_spill(cfg, self.spill_of(id)),
        }
    }

    /// Append `(cfg, pp)` unconditionally and return its id.
    #[inline]
    pub fn push(&mut self, cfg: u64, pp: &PackedPos) -> StateId {
        let id = self.cfgs.len() as StateId;
        self.cfgs.push(cfg);
        match pp {
            PackedPos::Inline(word) => self.packed.push(*word),
            PackedPos::Spill(positions) => {
                debug_assert_eq!(positions.len(), self.cores);
                self.spill.extend_from_slice(positions)
            }
        }
        id
    }

    /// Append a materialized [`StateKey`] (checkpoint resume path).
    pub fn push_key(&mut self, key: &StateKey) -> StateId {
        let pp = self.pack(&key.1);
        self.push(key.0, &pp)
    }

    #[inline]
    fn spill_of(&self, id: StateId) -> &[u32] {
        let s = id as usize * self.cores;
        &self.spill[s..s + self.cores]
    }

    /// Configuration bitmask of `id`.
    #[inline]
    pub fn cfg(&self, id: StateId) -> u64 {
        self.cfgs[id as usize]
    }

    /// Decode the position vector of `id` into `out` (cleared first).
    #[inline]
    pub fn positions_into(&self, id: StateId, out: &mut Vec<u32>) {
        out.clear();
        match self.mode {
            Mode::Inline { bits } => {
                let word = self.packed[id as usize];
                let m = if bits >= 128 {
                    u128::MAX
                } else {
                    (1u128 << bits) - 1
                };
                for i in 0..self.cores {
                    let shift = (self.cores - 1 - i) as u32 * bits;
                    out.push(((word >> shift) & m) as u32);
                }
            }
            Mode::Spill => out.extend_from_slice(self.spill_of(id)),
        }
    }

    /// Sum of the position vector of `id` (the FTF bucket index).
    #[inline]
    pub fn pos_sum(&self, id: StateId) -> u64 {
        match self.mode {
            Mode::Inline { bits } => {
                let word = self.packed[id as usize];
                let m = if bits >= 128 {
                    u128::MAX
                } else {
                    (1u128 << bits) - 1
                };
                let mut sum = 0u64;
                for i in 0..self.cores {
                    sum += ((word >> (i as u32 * bits)) & m) as u64;
                }
                sum
            }
            Mode::Spill => self.spill_of(id).iter().map(|&x| u64::from(x)).sum(),
        }
    }

    /// Materialize the canonical [`StateKey`] of `id` (checkpoint and
    /// witness paths — not the hot loop).
    pub fn key(&self, id: StateId) -> StateKey {
        let mut pos = Vec::with_capacity(self.cores);
        self.positions_into(id, &mut pos);
        (self.cfg(id), pos.into_boxed_slice())
    }

    /// Canonical order of two stored states — identical to comparing
    /// their materialized [`StateKey`]s.
    #[inline]
    pub fn cmp_ids(&self, a: StateId, b: StateId) -> Ordering {
        match self.cfgs[a as usize].cmp(&self.cfgs[b as usize]) {
            Ordering::Equal => match self.mode {
                Mode::Inline { .. } => self.packed[a as usize].cmp(&self.packed[b as usize]),
                Mode::Spill => self.spill_of(a).cmp(self.spill_of(b)),
            },
            ord => ord,
        }
    }

    /// Sort `ids` into canonical state order.
    pub fn sort_ids(&self, ids: &mut [StateId]) {
        match self.mode {
            // Sorting by the (cfg, packed) value pair lets the sort run
            // on integable keys without indirect comparisons.
            Mode::Inline { .. } => {
                ids.sort_unstable_by_key(|&id| (self.cfgs[id as usize], self.packed[id as usize]))
            }
            Mode::Spill => ids.sort_unstable_by(|&a, &b| self.cmp_ids(a, b)),
        }
    }
}

/// An open-addressing dedup table over the states of one [`StateArena`].
///
/// It stores only [`StateId`]s and compares keys against the arena
/// payload: linear probing, power-of-two capacity, grown before an insert
/// would push the load past 3/4. The home slot comes from the hash's high
/// bits, where FxHash mixes best. A table covers whichever subset of the
/// arena its owner routes to it — FTF keeps one per pending position-sum
/// bucket, PIF one per layer — so it stays small and cache-resident, and
/// [`clear`](Dedup::clear) recycles it without freeing.
#[derive(Clone, Debug)]
pub struct Dedup {
    slots: Vec<StateId>,
    /// `64 - log2(slots.len())`: the home slot is `hash >> shift`.
    shift: u32,
    len: usize,
    /// Highest load seen before a growth or a clear.
    peak_load: f64,
}

impl Default for Dedup {
    fn default() -> Self {
        Self::new()
    }
}

impl Dedup {
    const INITIAL_BITS: u32 = 6;

    /// An empty table.
    pub fn new() -> Self {
        Dedup {
            slots: vec![NO_STATE; 1 << Self::INITIAL_BITS],
            shift: 64 - Self::INITIAL_BITS,
            len: 0,
            peak_load: 0.0,
        }
    }

    /// Number of registered states.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no state is registered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Forget every registered state but keep the allocation.
    pub fn clear(&mut self) {
        if self.len > 0 {
            self.note_load();
            self.slots.fill(NO_STATE);
            self.len = 0;
        }
    }

    /// Current occupancy in `[0, 3/4]`.
    pub fn load_factor(&self) -> f64 {
        self.len as f64 / self.slots.len() as f64
    }

    /// Highest occupancy this table has reached, in `[0, 3/4]`.
    pub fn peak_load(&self) -> f64 {
        self.peak_load.max(self.load_factor())
    }

    /// Heap footprint of the slot array in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.slots.capacity() * 4
    }

    fn note_load(&mut self) {
        self.peak_load = self.peak_load.max(self.load_factor());
    }

    /// Look `(cfg, pp)` up; if absent, append it to `arena` and register
    /// it. Returns the id and whether the state is new.
    #[inline]
    pub fn intern(&mut self, arena: &mut StateArena, cfg: u64, pp: &PackedPos) -> (StateId, bool) {
        let h = StateArena::hash_packed(cfg, pp);
        let found = match pp {
            PackedPos::Inline(word) => self.probe(h, |e| {
                arena.cfgs[e as usize] == cfg && arena.packed[e as usize] == *word
            }),
            PackedPos::Spill(positions) => self.probe(h, |e| {
                arena.cfgs[e as usize] == cfg && arena.spill_of(e) == &positions[..]
            }),
        };
        match found {
            Ok(id) => (id, false),
            Err(slot) => {
                let id = arena.push(cfg, pp);
                self.place(arena, slot, h, id);
                (id, true)
            }
        }
    }

    /// Register `id`, already stored in `arena`, unless an equal key is
    /// registered (checkpoint resume path). Returns the registered id.
    pub fn insert_id(&mut self, arena: &StateArena, id: StateId) -> StateId {
        let h = arena.hash_id(id);
        match self.probe(h, |e| arena.cmp_ids(e, id) == Ordering::Equal) {
            Ok(existing) => existing,
            Err(slot) => {
                self.place(arena, slot, h, id);
                id
            }
        }
    }

    /// The registered id matching `eq`, or the empty slot ending the
    /// probe sequence of `h`.
    #[inline]
    fn probe(&self, h: u64, eq: impl Fn(StateId) -> bool) -> Result<StateId, usize> {
        let mask = self.slots.len() - 1;
        let mut i = (h >> self.shift) as usize;
        loop {
            let e = self.slots[i];
            if e == NO_STATE {
                return Err(i);
            }
            if eq(e) {
                return Ok(e);
            }
            i = (i + 1) & mask;
        }
    }

    /// Store `id` (hash `h`) at `slot`, the empty end of its probe
    /// sequence — growing first if the insert would pass 3/4 load.
    #[inline]
    fn place(&mut self, arena: &StateArena, mut slot: usize, h: u64, id: StateId) {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow(arena);
            slot = self.empty_slot(h);
        }
        self.slots[slot] = id;
        self.len += 1;
    }

    #[inline]
    fn empty_slot(&self, h: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = (h >> self.shift) as usize;
        while self.slots[i] != NO_STATE {
            i = (i + 1) & mask;
        }
        i
    }

    #[cold]
    fn grow(&mut self, arena: &StateArena) {
        self.note_load();
        let cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![NO_STATE; cap]);
        self.shift -= 1;
        for id in old.into_iter().filter(|&e| e != NO_STATE) {
            let slot = self.empty_slot(arena.hash_id(id));
            self.slots[slot] = id;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys_of(arena: &StateArena) -> Vec<StateKey> {
        (0..arena.len() as StateId).map(|i| arena.key(i)).collect()
    }

    fn intern(d: &mut Dedup, a: &mut StateArena, cfg: u64, pos: &[u32]) -> (StateId, bool) {
        let pp = a.pack(pos);
        d.intern(a, cfg, &pp)
    }

    #[test]
    fn intern_dedups_and_roundtrips() {
        for force_spill in [false, true] {
            let mut a = StateArena::new(3, 9, force_spill);
            let mut d = Dedup::new();
            let (id0, new0) = intern(&mut d, &mut a, 5, &[1, 2, 3]);
            let (id1, new1) = intern(&mut d, &mut a, 5, &[1, 2, 4]);
            let (id2, new2) = intern(&mut d, &mut a, 4, &[1, 2, 3]);
            let (id3, new3) = intern(&mut d, &mut a, 5, &[1, 2, 3]);
            assert!(new0 && new1 && new2 && !new3);
            assert_eq!(id0, id3);
            assert_ne!(id0, id1);
            assert_ne!(id0, id2);
            assert_eq!(a.len(), 3);
            assert_eq!(d.len(), 3);
            assert_eq!(a.key(id0), (5, vec![1, 2, 3].into_boxed_slice()));
            assert_eq!(a.key(id1), (5, vec![1, 2, 4].into_boxed_slice()));
            assert_eq!(a.cfg(id2), 4);
            assert_eq!(a.pos_sum(id1), 7);
        }
    }

    #[test]
    fn cmp_ids_matches_key_order_both_modes() {
        let states: Vec<(u64, Vec<u32>)> = vec![
            (0, vec![1, 1]),
            (0, vec![1, 9]),
            (0, vec![9, 1]),
            (1, vec![1, 1]),
            (7, vec![3, 3]),
            (7, vec![3, 4]),
        ];
        for force_spill in [false, true] {
            let mut a = StateArena::new(2, 9, force_spill);
            let ids: Vec<StateId> = states
                .iter()
                .map(|(c, p)| {
                    let pp = a.pack(p);
                    a.push(*c, &pp)
                })
                .collect();
            for &x in &ids {
                for &y in &ids {
                    assert_eq!(a.cmp_ids(x, y), a.key(x).cmp(&a.key(y)), "{x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn inline_and_spill_agree_through_growth() {
        // Enough states to force several table growths; both paths must
        // intern the same ids in the same order.
        let mut inline = StateArena::new(2, 1023, false);
        let mut spill = StateArena::new(2, 1023, true);
        let (mut di, mut ds) = (Dedup::new(), Dedup::new());
        assert!(inline.is_inline());
        assert!(!spill.is_inline());
        for cfg in 0..8u64 {
            for x in (1..1000u32).step_by(17) {
                let a = intern(&mut di, &mut inline, cfg, &[x, 1000 - x]);
                let b = intern(&mut ds, &mut spill, cfg, &[x, 1000 - x]);
                assert_eq!(a, b);
            }
        }
        assert_eq!(keys_of(&inline), keys_of(&spill));
        assert!(di.load_factor() <= 0.75);
        assert!(di.peak_load() <= 0.75 && di.peak_load() > 0.5);
        assert!(ds.load_factor() <= 0.75);
    }

    #[test]
    fn clear_resets_but_reuses() {
        let mut a = StateArena::new(2, 100, false);
        let mut d = Dedup::new();
        for x in 1..50 {
            intern(&mut d, &mut a, 1, &[x, x]);
        }
        let (bytes, table_bytes) = (a.approx_bytes(), d.approx_bytes());
        a.clear();
        d.clear();
        assert!(a.is_empty() && d.is_empty());
        let (id, new) = intern(&mut d, &mut a, 1, &[3, 3]);
        assert_eq!((id, new), (0, true));
        assert!(a.approx_bytes() >= bytes, "clear must keep capacity");
        assert_eq!(d.approx_bytes(), table_bytes, "clear must keep the table");
    }

    #[test]
    fn insert_id_registers_stored_states() {
        for force_spill in [false, true] {
            let mut a = StateArena::new(2, 100, force_spill);
            let first = a.push_key(&(3, vec![4, 5].into_boxed_slice()));
            let twin = a.push_key(&(3, vec![4, 5].into_boxed_slice()));
            let mut d = Dedup::new();
            assert_eq!(d.insert_id(&a, first), first);
            assert_eq!(
                d.insert_id(&a, twin),
                first,
                "an equal key is already registered"
            );
            assert_eq!(intern(&mut d, &mut a, 3, &[4, 5]), (first, false));
            assert_eq!(d.len(), 1);
        }
    }

    #[test]
    fn wide_positions_spill() {
        // 6 cores * 26 bits = 156 > 128: must spill.
        let a = StateArena::new(6, (1 << 26) - 1, false);
        assert!(!a.is_inline());
        // 4 cores * 26 bits = 104: inline.
        let a = StateArena::new(4, (1 << 26) - 1, false);
        assert!(a.is_inline());
    }
}
