//! First-In-First-Out eviction.

use crate::eviction::EvictionPolicy;
use crate::policies::lru::Lru;
use mcp_core::{PageId, Victims};

/// Evicts the candidate that entered the managed set earliest.
///
/// FIFO is conservative (though not marking), so Lemma 1's static-partition
/// upper bound applies to it as well.
///
/// The queue is [`Lru`]'s cell-indexed intrusive list with accesses
/// ignored: insertion links a cell at the newest end, so walking from the
/// oldest end finds the earliest-inserted candidate with no per-fault
/// candidate collection.
#[derive(Clone, Debug, Default)]
pub struct Fifo {
    queue: Lru,
}

impl Fifo {
    /// New, empty FIFO state.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EvictionPolicy for Fifo {
    fn name(&self) -> String {
        "FIFO".into()
    }

    fn on_insert(&mut self, cell: usize, _page: PageId, stamp: u64) {
        self.queue.touch(cell, stamp);
    }

    fn on_access(&mut self, _cell: usize, _page: PageId, _stamp: u64) {
        // FIFO ignores accesses.
    }

    fn on_remove(&mut self, cell: usize) {
        self.queue.forget(cell);
    }

    fn choose_victim(&mut self, victims: &Victims) -> usize {
        // Insert stamps are unique and increasing: the first candidate
        // from the oldest end is the one that entered earliest.
        self.queue
            .oldest_where(|cell| victims.contains(cell))
            .expect("candidates nonempty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eviction::testing::{access, insert, pick};

    #[test]
    fn evicts_oldest_insertion_ignoring_accesses() {
        let mut fifo = Fifo::new();
        insert(&mut fifo, 1, 1);
        insert(&mut fifo, 2, 2);
        access(&mut fifo, 1, 3); // must not refresh
        assert_eq!(pick(&mut fifo, &[1, 2]), 1);
    }

    #[test]
    fn reinsertion_refreshes() {
        let mut fifo = Fifo::new();
        insert(&mut fifo, 1, 1);
        insert(&mut fifo, 2, 2);
        fifo.on_remove(1);
        insert(&mut fifo, 1, 3);
        assert_eq!(pick(&mut fifo, &[1, 2]), 2);
    }
}
