//! First-In-First-Out eviction.

use crate::eviction::EvictionPolicy;
use mcp_core::{FxHashMap, PageId};
use std::collections::BTreeSet;

/// Evicts the candidate that entered the managed set earliest.
///
/// FIFO is conservative (though not marking), so Lemma 1's static-partition
/// upper bound applies to it as well.
///
/// An ordered `(insert stamp, page)` set backs the streamed entry point:
/// the queue-front eligible page is found in O(log K) plus a short walk,
/// with no per-fault candidate collection.
#[derive(Clone, Debug, Default)]
pub struct Fifo {
    inserted: FxHashMap<PageId, u64>,
    by_stamp: BTreeSet<(u64, PageId)>,
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

    fn on_insert(&mut self, page: PageId, stamp: u64) {
        if let Some(old) = self.inserted.insert(page, stamp) {
            self.by_stamp.remove(&(old, page));
        }
        self.by_stamp.insert((stamp, page));
    }

    fn on_access(&mut self, _page: PageId, _stamp: u64) {
        // FIFO ignores accesses.
    }

    fn on_remove(&mut self, page: PageId) {
        if let Some(old) = self.inserted.remove(&page) {
            self.by_stamp.remove(&(old, page));
        }
    }

    fn choose_victim_from(
        &mut self,
        _candidates: &mut dyn Iterator<Item = PageId>,
        eligible: &dyn Fn(PageId) -> bool,
    ) -> PageId {
        // Insert stamps are unique: the first eligible entry in stamp
        // order is the eligible page that entered earliest.
        self.by_stamp
            .iter()
            .map(|&(_, page)| page)
            .find(|&page| eligible(page))
            .expect("candidates nonempty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: u32) -> PageId {
        PageId(v)
    }

    #[test]
    fn evicts_oldest_insertion_ignoring_accesses() {
        let mut fifo = Fifo::new();
        fifo.on_insert(p(1), 1);
        fifo.on_insert(p(2), 2);
        fifo.on_access(p(1), 3); // must not refresh
        assert_eq!(fifo.choose_victim(&[p(1), p(2)]), p(1));
    }

    #[test]
    fn reinsertion_refreshes() {
        let mut fifo = Fifo::new();
        fifo.on_insert(p(1), 1);
        fifo.on_insert(p(2), 2);
        fifo.on_remove(p(1));
        fifo.on_insert(p(1), 3);
        assert_eq!(fifo.choose_victim(&[p(1), p(2)]), p(2));
    }
}
