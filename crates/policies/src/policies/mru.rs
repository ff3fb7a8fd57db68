//! Most-Recently-Used eviction (a useful pathological baseline: optimal
//! for single-core cyclic scans, terrible for temporal locality).

use crate::eviction::EvictionPolicy;
use crate::policies::lru::Lru;
use mcp_core::PageId;

/// Evicts the candidate whose last access is newest.
///
/// Recency lives in [`Lru`]'s intrusive list; the victim is the first
/// eligible page walking from its most-recent end. Stamps are unique and
/// increasing, so that is exactly the stamp maximum over the candidates.
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

    fn on_insert(&mut self, page: PageId, stamp: u64) {
        self.recency.on_insert(page, stamp);
    }

    fn on_access(&mut self, page: PageId, stamp: u64) {
        self.recency.on_access(page, stamp);
    }

    fn on_remove(&mut self, page: PageId) {
        self.recency.on_remove(page);
    }

    fn choose_victim_from(
        &mut self,
        _candidates: &mut dyn Iterator<Item = PageId>,
        eligible: &dyn Fn(PageId) -> bool,
    ) -> PageId {
        self.recency
            .newest_where(eligible)
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
    fn evicts_most_recent() {
        let mut mru = Mru::new();
        mru.on_insert(p(1), 1);
        mru.on_insert(p(2), 2);
        mru.on_access(p(1), 3);
        assert_eq!(mru.choose_victim(&[p(1), p(2)]), p(1));
    }

    #[test]
    fn skips_ineligible_recent_pages() {
        let mut mru = Mru::new();
        mru.on_insert(p(1), 1);
        mru.on_insert(p(2), 2);
        mru.on_insert(p(3), 3);
        assert_eq!(mru.choose_victim(&[p(1), p(2)]), p(2));
    }
}
