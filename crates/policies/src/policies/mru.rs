//! Most-Recently-Used eviction (a useful pathological baseline: optimal
//! for single-core cyclic scans, terrible for temporal locality).

use crate::eviction::EvictionPolicy;
use crate::policies::lru::Lru;
use mcp_core::{PageId, Victims};

/// Evicts the candidate whose last access is newest.
///
/// Recency lives in [`Lru`]'s cell-indexed intrusive list; the victim is
/// the first candidate walking from its most-recent end. Stamps are
/// unique and increasing, so that is exactly the stamp maximum over the
/// candidates.
#[derive(Clone, Debug, Default)]
pub struct Mru {
    recency: Lru,
}

impl Mru {
    /// New, empty MRU state.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EvictionPolicy for Mru {
    fn name(&self) -> String {
        "MRU".into()
    }

    fn on_insert(&mut self, cell: usize, _page: PageId, stamp: u64) {
        self.recency.touch(cell, stamp);
    }

    fn on_access(&mut self, cell: usize, _page: PageId, stamp: u64) {
        self.recency.touch(cell, stamp);
    }

    fn on_remove(&mut self, cell: usize) {
        self.recency.forget(cell);
    }

    fn choose_victim(&mut self, victims: &Victims) -> usize {
        self.recency
            .newest_where(|cell| victims.contains(cell))
            .expect("candidates nonempty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eviction::testing::{access, insert, pick};

    #[test]
    fn evicts_most_recent() {
        let mut mru = Mru::new();
        insert(&mut mru, 1, 1);
        insert(&mut mru, 2, 2);
        access(&mut mru, 1, 3);
        assert_eq!(pick(&mut mru, &[1, 2]), 1);
    }

    #[test]
    fn skips_ineligible_recent_pages() {
        let mut mru = Mru::new();
        insert(&mut mru, 1, 1);
        insert(&mut mru, 2, 2);
        insert(&mut mru, 3, 3);
        assert_eq!(pick(&mut mru, &[1, 2]), 2);
    }
}
