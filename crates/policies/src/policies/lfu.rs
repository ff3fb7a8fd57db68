//! Least-Frequently-Used eviction.

use crate::eviction::EvictionPolicy;
use mcp_core::{FxHashMap, PageId};
use std::collections::BTreeSet;

/// Evicts the candidate with the fewest recorded uses; ties broken by the
/// older insertion.
///
/// An ordered `(count, insert stamp, page)` set backs the streamed entry
/// point: each access re-ranks one page in O(log K), and victim selection
/// walks from the frequency-minimal end instead of scanning candidates.
#[derive(Clone, Debug, Default)]
pub struct Lfu {
    uses: FxHashMap<PageId, (u64, u64)>, // (count, insert stamp)
    by_rank: BTreeSet<(u64, u64, PageId)>,
}

impl Lfu {
    /// New, empty LFU state.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EvictionPolicy for Lfu {
    fn name(&self) -> String {
        "LFU".into()
    }

    fn on_insert(&mut self, page: PageId, stamp: u64) {
        if let Some((count, old)) = self.uses.insert(page, (1, stamp)) {
            self.by_rank.remove(&(count, old, page));
        }
        self.by_rank.insert((1, stamp, page));
    }

    fn on_access(&mut self, page: PageId, _stamp: u64) {
        if let Some((count, inserted)) = self.uses.get_mut(&page) {
            self.by_rank.remove(&(*count, *inserted, page));
            *count += 1;
            self.by_rank.insert((*count, *inserted, page));
        }
    }

    fn on_remove(&mut self, page: PageId) {
        if let Some((count, stamp)) = self.uses.remove(&page) {
            self.by_rank.remove(&(count, stamp, page));
        }
    }

    fn choose_victim_from(
        &mut self,
        _candidates: &mut dyn Iterator<Item = PageId>,
        eligible: &dyn Fn(PageId) -> bool,
    ) -> PageId {
        // `(count, insert stamp)` pairs are unique (stamps are), so the
        // first eligible entry in rank order is the eligible minimum.
        self.by_rank
            .iter()
            .map(|&(_, _, page)| page)
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
    fn evicts_least_frequent() {
        let mut lfu = Lfu::new();
        lfu.on_insert(p(1), 1);
        lfu.on_insert(p(2), 2);
        lfu.on_access(p(1), 3);
        lfu.on_access(p(1), 4);
        lfu.on_access(p(2), 5);
        assert_eq!(lfu.choose_victim(&[p(1), p(2)]), p(2));
    }

    #[test]
    fn ties_broken_by_age() {
        let mut lfu = Lfu::new();
        lfu.on_insert(p(1), 1);
        lfu.on_insert(p(2), 2);
        assert_eq!(lfu.choose_victim(&[p(1), p(2)]), p(1));
    }
}
