//! Least-Recently-Used eviction.

use crate::eviction::EvictionPolicy;
use mcp_core::{FxHashMap, PageId};

/// Sentinel node index for list ends.
const NIL: u32 = u32::MAX;

/// One page's slot in the intrusive recency list.
#[derive(Clone, Debug)]
struct Node {
    page: PageId,
    stamp: u64,
    /// Neighbor toward the most-recent end.
    newer: u32,
    /// Neighbor toward the least-recent end.
    older: u32,
}

/// Evicts the candidate whose last access (or insertion) is oldest.
///
/// LRU is a *marking* and *conservative* algorithm, so Lemma 1's
/// `max_j k_j` upper bound applies to it under any fixed static partition.
///
/// Recency is an intrusive doubly-linked list over a node slab: an access
/// unlinks the page's node and relinks it at the most-recent end — O(1),
/// allocation-free after warm-up — and the streamed entry point walks
/// from the least-recent end past ineligible (pinned or in-flight)
/// entries. Because stamps are strictly increasing in service order (the
/// [`EvictionPolicy`] contract), list order from that end *is* ascending
/// stamp order, so the walk finds exactly the recency-minimal eligible
/// page the stamp map would report.
#[derive(Clone, Debug)]
pub struct Lru {
    /// Managed page → its slab slot. Point lookups only (never iterated).
    index: FxHashMap<PageId, u32>,
    nodes: Vec<Node>,
    /// Recycled slab slots.
    free: Vec<u32>,
    /// Most recently used node (`NIL` when empty).
    head: u32,
    /// Least recently used node (`NIL` when empty).
    tail: u32,
}

impl Default for Lru {
    fn default() -> Self {
        Lru {
            index: FxHashMap::default(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }
}

impl Lru {
    /// New, empty LRU state.
    pub fn new() -> Self {
        Self::default()
    }

    /// The stamp of `page`'s most recent use, if managed.
    pub fn last_use(&self, page: PageId) -> Option<u64> {
        self.index.get(&page).map(|&n| self.nodes[n as usize].stamp)
    }

    /// The least recently used page satisfying `pred`: a walk from the
    /// least-recent end of the list.
    pub(crate) fn oldest_where(&self, pred: &dyn Fn(PageId) -> bool) -> Option<PageId> {
        let mut n = self.tail;
        while n != NIL {
            let node = &self.nodes[n as usize];
            if pred(node.page) {
                return Some(node.page);
            }
            n = node.newer;
        }
        None
    }

    /// The most recently used page satisfying `pred`: a walk from the
    /// most-recent end of the list.
    pub(crate) fn newest_where(&self, pred: &dyn Fn(PageId) -> bool) -> Option<PageId> {
        let mut n = self.head;
        while n != NIL {
            let node = &self.nodes[n as usize];
            if pred(node.page) {
                return Some(node.page);
            }
            n = node.older;
        }
        None
    }

    /// The newest stamp among managed pages (`None` when empty).
    pub(crate) fn newest_stamp(&self) -> Option<u64> {
        match self.head {
            NIL => None,
            n => Some(self.nodes[n as usize].stamp),
        }
    }

    fn unlink(&mut self, n: u32) {
        let Node { newer, older, .. } = self.nodes[n as usize];
        match newer {
            NIL => self.head = older,
            _ => self.nodes[newer as usize].older = older,
        }
        match older {
            NIL => self.tail = newer,
            _ => self.nodes[older as usize].newer = newer,
        }
    }

    /// Link `n` as the most recently used node.
    fn link_front(&mut self, n: u32) {
        let old_head = self.head;
        {
            let node = &mut self.nodes[n as usize];
            node.newer = NIL;
            node.older = old_head;
        }
        match old_head {
            NIL => self.tail = n,
            _ => self.nodes[old_head as usize].newer = n,
        }
        self.head = n;
    }
}

impl EvictionPolicy for Lru {
    fn name(&self) -> String {
        "LRU".into()
    }

    fn on_insert(&mut self, page: PageId, stamp: u64) {
        if let Some(&n) = self.index.get(&page) {
            self.nodes[n as usize].stamp = stamp;
            self.unlink(n);
            self.link_front(n);
            return;
        }
        let n = match self.free.pop() {
            Some(n) => {
                self.nodes[n as usize] = Node {
                    page,
                    stamp,
                    newer: NIL,
                    older: NIL,
                };
                n
            }
            None => {
                self.nodes.push(Node {
                    page,
                    stamp,
                    newer: NIL,
                    older: NIL,
                });
                (self.nodes.len() - 1) as u32
            }
        };
        self.index.insert(page, n);
        self.link_front(n);
    }

    fn on_access(&mut self, page: PageId, stamp: u64) {
        self.on_insert(page, stamp);
    }

    fn on_remove(&mut self, page: PageId) {
        if let Some(n) = self.index.remove(&page) {
            self.unlink(n);
            self.free.push(n);
        }
    }

    fn choose_victim_from(
        &mut self,
        _candidates: &mut dyn Iterator<Item = PageId>,
        eligible: &dyn Fn(PageId) -> bool,
    ) -> PageId {
        // Stamps are unique and increasing, so the first eligible entry
        // from the least-recent end is the eligible page with the oldest
        // last use.
        self.oldest_where(eligible).expect("candidates nonempty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: u32) -> PageId {
        PageId(v)
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut lru = Lru::new();
        lru.on_insert(p(1), 1);
        lru.on_insert(p(2), 2);
        lru.on_insert(p(3), 3);
        lru.on_access(p(1), 4);
        assert_eq!(lru.choose_victim(&[p(1), p(2), p(3)]), p(2));
    }

    #[test]
    fn respects_candidate_restriction() {
        let mut lru = Lru::new();
        lru.on_insert(p(1), 1);
        lru.on_insert(p(2), 2);
        lru.on_insert(p(3), 3);
        // p(1) is globally oldest, but only p(2), p(3) are candidates.
        assert_eq!(lru.choose_victim(&[p(2), p(3)]), p(2));
    }

    #[test]
    fn removal_clears_state() {
        let mut lru = Lru::new();
        lru.on_insert(p(1), 1);
        lru.on_remove(p(1));
        assert_eq!(lru.last_use(p(1)), None);
    }

    #[test]
    fn streamed_walk_finds_the_oldest_eligible_page() {
        // Interleave inserts, touches, and removals, then compare the walk
        // with the stamp minimum over a restricted eligible set.
        let mut lru = Lru::new();
        let mut stamp = 0;
        for v in [5, 2, 9, 4, 7, 1] {
            stamp += 1;
            lru.on_insert(p(v), stamp);
        }
        for v in [9, 5, 4] {
            stamp += 1;
            lru.on_access(p(v), stamp);
        }
        lru.on_remove(p(2));
        let eligible = [p(5), p(9), p(7), p(1)];
        let oldest = *eligible
            .iter()
            .min_by_key(|&&q| lru.last_use(q).unwrap())
            .unwrap();
        let from_walk =
            lru.choose_victim_from(&mut eligible.iter().copied(), &|q| eligible.contains(&q));
        assert_eq!(from_walk, oldest);
        assert_eq!(from_walk, p(7)); // oldest untouched eligible page
        assert_eq!(lru.newest_where(&|q| eligible.contains(&q)), Some(p(5)));
        assert_eq!(lru.newest_stamp(), Some(stamp));
    }

    #[test]
    fn slots_are_recycled() {
        let mut lru = Lru::new();
        for i in 0..100u32 {
            lru.on_insert(p(i), (i + 1) as u64);
            lru.on_remove(p(i));
        }
        assert!(lru.nodes.len() <= 2, "slab grew despite removals");
    }
}
