//! Marking eviction: the phase-based family whose members are `K`-competitive
//! in sequential paging and, per Lemma 1, `max_j k_j`-competitive per part
//! under a fixed static partition.
//!
//! A page is marked when requested. When a fault finds every candidate
//! marked, the phase ends: all marks are cleared. Victims are drawn from
//! unmarked candidates, with a pluggable tie-break.

use crate::eviction::EvictionPolicy;
use crate::policies::lru::Lru;
use mcp_core::victims::{count_ones, select_one};
use mcp_core::{CellSet, PageId, Victims};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rule used to pick among unmarked candidates.
#[derive(Clone, Debug)]
pub enum MarkingTie {
    /// Least recently used unmarked page (a deterministic marking
    /// algorithm equivalent in spirit to LRU).
    Lru,
    /// Uniformly random unmarked page (the classic randomized MARK).
    Random(u64),
}

/// Phase-based marking policy.
///
/// Marks are a cell bitset: inserting or accessing a page marks its cell,
/// and ending a phase clears the whole set. The random tie rule draws
/// among `candidates & !marked` with one count and one select over the
/// words. The LRU tie rule keeps recency in [`Lru`]'s cell-indexed list:
/// marks are set in service order and cleared all at once, so the marked
/// cells are always the most recent end of that list, and the victim is
/// the first candidate from the least-recent end whether or not a phase
/// ends.
#[derive(Clone, Debug)]
pub struct Marking {
    /// Recency, maintained for the LRU tie rule only.
    recency: Lru,
    marked: CellSet,
    rng: Option<StdRng>,
    tie_name: &'static str,
    /// Completed phases, observable for phase-counting tests.
    pub phases: u64,
}

impl Marking {
    /// Build a marking policy with the given tie-break.
    pub fn new(tie: MarkingTie) -> Self {
        let (rng, tie_name) = match tie {
            MarkingTie::Lru => (None, "LRU"),
            MarkingTie::Random(seed) => (Some(StdRng::seed_from_u64(seed)), "RAND"),
        };
        Marking {
            recency: Lru::new(),
            marked: CellSet::new(),
            rng,
            tie_name,
            phases: 0,
        }
    }

    /// Whether the page in `cell` is currently marked.
    pub fn is_marked(&self, cell: usize) -> bool {
        self.marked.contains(cell)
    }

    /// Phase ends: clear every mark in the managed set.
    fn end_phase(&mut self) {
        self.phases += 1;
        self.marked.clear();
    }

    fn mark(&mut self, cell: usize, stamp: u64) {
        self.marked.insert(cell);
        if self.rng.is_none() {
            self.recency.touch(cell, stamp);
        }
    }
}

impl EvictionPolicy for Marking {
    fn name(&self) -> String {
        format!("MARK({})", self.tie_name)
    }

    fn on_insert(&mut self, cell: usize, _page: PageId, stamp: u64) {
        self.mark(cell, stamp);
    }

    fn on_access(&mut self, cell: usize, _page: PageId, stamp: u64) {
        self.mark(cell, stamp);
    }

    fn on_remove(&mut self, cell: usize) {
        self.marked.remove(cell);
        self.recency.forget(cell);
    }

    fn choose_victim(&mut self, victims: &Victims) -> usize {
        let Some(rng) = self.rng.as_mut() else {
            // The least recent candidate is unmarked iff any candidate
            // is; if it is marked the phase ends and it is still the least
            // recent of the (now all unmarked) candidates.
            let victim = self
                .recency
                .oldest_where(|cell| victims.contains(cell))
                .expect("candidates nonempty");
            if self.marked.contains(victim) {
                self.end_phase();
            }
            return victim;
        };
        let marked = &self.marked;
        let unmarked = victims
            .words()
            .enumerate()
            .map(move |(i, w)| w & !marked.word(i));
        let n = count_ones(unmarked.clone());
        if n > 0 {
            let r = rng.gen_range(0..n);
            return select_one(unmarked, r).expect("rank below the unmarked count");
        }
        // Every candidate was marked: the phase ends and the draw is over
        // all of them, in cell order.
        let victim = victims.select(rng.gen_range(0..victims.count()));
        self.end_phase();
        victim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eviction::testing::{access, insert, pick};

    #[test]
    fn never_evicts_marked_while_unmarked_exists() {
        let mut m = Marking::new(MarkingTie::Lru);
        insert(&mut m, 1, 1);
        insert(&mut m, 2, 2);
        // New phase boundary clears marks; then re-mark only page 2.
        pick(&mut m, &[1, 2]); // triggers phase end internally
        access(&mut m, 2, 3);
        assert_eq!(pick(&mut m, &[1, 2]), 1);
    }

    #[test]
    fn phase_counter_increments_when_all_marked() {
        let mut m = Marking::new(MarkingTie::Lru);
        insert(&mut m, 1, 1);
        insert(&mut m, 2, 2);
        assert_eq!(m.phases, 0);
        pick(&mut m, &[1, 2]);
        assert_eq!(m.phases, 1);
        assert!(!m.is_marked(1) && !m.is_marked(2));
    }

    #[test]
    fn randomized_variant_is_seed_deterministic() {
        let run = |seed| {
            let mut m = Marking::new(MarkingTie::Random(seed));
            insert(&mut m, 1, 1);
            insert(&mut m, 2, 2);
            insert(&mut m, 3, 3);
            (0..10)
                .map(|_| pick(&mut m, &[1, 2, 3]))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn randomized_variant_draws_only_unmarked() {
        let mut m = Marking::new(MarkingTie::Random(5));
        insert(&mut m, 1, 1);
        insert(&mut m, 2, 2);
        insert(&mut m, 3, 3);
        pick(&mut m, &[1, 2, 3]); // every candidate marked: phase ends
        access(&mut m, 1, 4);
        access(&mut m, 3, 5);
        for _ in 0..10 {
            assert_eq!(pick(&mut m, &[1, 2, 3]), 2);
        }
        assert_eq!(m.phases, 1);
    }

    #[test]
    fn lru_tiebreak_prefers_older_unmarked() {
        let mut m = Marking::new(MarkingTie::Lru);
        insert(&mut m, 1, 1);
        insert(&mut m, 2, 2);
        insert(&mut m, 3, 3);
        pick(&mut m, &[1, 2, 3]); // end phase, clear marks
        access(&mut m, 1, 4);
        // Unmarked: 2 (stamp 2), 3 (stamp 3) -> evict 2.
        assert_eq!(pick(&mut m, &[1, 2, 3]), 2);
    }
}
