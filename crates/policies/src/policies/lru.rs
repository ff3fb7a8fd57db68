//! Least-Recently-Used eviction.

use crate::eviction::EvictionPolicy;
use mcp_core::{PageId, Victims};

/// Sentinel cell index for list ends.
const NIL: u32 = u32::MAX;

/// One cell's node in the intrusive recency list.
#[derive(Clone, Copy, Debug)]
struct Node {
    stamp: u64,
    /// Neighbor toward the most-recent end.
    newer: u32,
    /// Neighbor toward the least-recent end.
    older: u32,
    /// Whether the cell is on the list (managed).
    linked: bool,
}

const UNLINKED: Node = Node {
    stamp: 0,
    newer: NIL,
    older: NIL,
    linked: false,
};

/// Evicts the candidate whose last access (or insertion) is oldest.
///
/// LRU is a *marking* and *conservative* algorithm, so Lemma 1's
/// `max_j k_j` upper bound applies to it under any fixed static partition.
///
/// Recency is an intrusive doubly-linked list whose nodes are indexed by
/// cache cell: an access unlinks the cell's node and relinks it at the
/// most-recent end — O(1), no map, allocation-free once the node array
/// covers the cache — and victim choice walks from the least-recent end
/// past cells outside the candidate mask (pinned or in flight). Because
/// stamps are strictly increasing in service order (the
/// [`EvictionPolicy`] contract), list order from that end *is* ascending
/// stamp order, so the walk finds exactly the recency-minimal candidate.
#[derive(Clone, Debug)]
pub struct Lru {
    /// `nodes[cell]`, grown on demand.
    nodes: Vec<Node>,
    /// Most recently used cell (`NIL` when empty).
    head: u32,
    /// Least recently used cell (`NIL` when empty).
    tail: u32,
}

impl Default for Lru {
    fn default() -> Self {
        Lru {
            nodes: Vec::new(),
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

    /// The stamp of the most recent use of the page in `cell`, if managed.
    pub fn last_use(&self, cell: usize) -> Option<u64> {
        self.nodes
            .get(cell)
            .filter(|node| node.linked)
            .map(|node| node.stamp)
    }

    /// The least recently used cell satisfying `pred`: a walk from the
    /// least-recent end of the list.
    pub(crate) fn oldest_where(&self, pred: impl Fn(usize) -> bool) -> Option<usize> {
        let mut n = self.tail;
        while n != NIL {
            if pred(n as usize) {
                return Some(n as usize);
            }
            n = self.nodes[n as usize].newer;
        }
        None
    }

    /// The most recently used cell satisfying `pred`: a walk from the
    /// most-recent end of the list.
    pub(crate) fn newest_where(&self, pred: impl Fn(usize) -> bool) -> Option<usize> {
        let mut n = self.head;
        while n != NIL {
            if pred(n as usize) {
                return Some(n as usize);
            }
            n = self.nodes[n as usize].older;
        }
        None
    }

    /// Make `cell` the most recently used, as of `stamp`, linking it if
    /// it was not managed.
    pub(crate) fn touch(&mut self, cell: usize, stamp: u64) {
        if cell >= self.nodes.len() {
            self.nodes.resize(cell + 1, UNLINKED);
        }
        if self.nodes[cell].linked {
            self.unlink(cell as u32);
        }
        let old_head = self.head;
        self.nodes[cell] = Node {
            stamp,
            newer: NIL,
            older: old_head,
            linked: true,
        };
        match old_head {
            NIL => self.tail = cell as u32,
            _ => self.nodes[old_head as usize].newer = cell as u32,
        }
        self.head = cell as u32;
    }

    /// Drop `cell` from the list, if managed.
    pub(crate) fn forget(&mut self, cell: usize) {
        if self.nodes.get(cell).is_some_and(|node| node.linked) {
            self.unlink(cell as u32);
            self.nodes[cell].linked = false;
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
}

impl EvictionPolicy for Lru {
    fn name(&self) -> String {
        "LRU".into()
    }

    fn on_insert(&mut self, cell: usize, _page: PageId, stamp: u64) {
        self.touch(cell, stamp);
    }

    fn on_access(&mut self, cell: usize, _page: PageId, stamp: u64) {
        self.touch(cell, stamp);
    }

    fn on_remove(&mut self, cell: usize) {
        self.forget(cell);
    }

    fn choose_victim(&mut self, victims: &Victims) -> usize {
        // Stamps are unique and increasing, so the first candidate from
        // the least-recent end is the candidate with the oldest last use.
        self.oldest_where(|cell| victims.contains(cell))
            .expect("candidates nonempty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eviction::testing::{access, insert, pick};

    #[test]
    fn evicts_least_recently_used() {
        let mut lru = Lru::new();
        insert(&mut lru, 1, 1);
        insert(&mut lru, 2, 2);
        insert(&mut lru, 3, 3);
        access(&mut lru, 1, 4);
        assert_eq!(pick(&mut lru, &[1, 2, 3]), 2);
    }

    #[test]
    fn respects_candidate_restriction() {
        let mut lru = Lru::new();
        insert(&mut lru, 1, 1);
        insert(&mut lru, 2, 2);
        insert(&mut lru, 3, 3);
        // Cell 1 is globally oldest, but only 2 and 3 are candidates.
        assert_eq!(pick(&mut lru, &[2, 3]), 2);
    }

    #[test]
    fn removal_clears_state() {
        let mut lru = Lru::new();
        insert(&mut lru, 1, 1);
        lru.on_remove(1);
        assert_eq!(lru.last_use(1), None);
        assert_eq!(lru.oldest_where(|_| true), None);
    }

    #[test]
    fn walk_finds_the_oldest_candidate() {
        // Interleave inserts, touches, and removals, then compare the walk
        // with the stamp minimum over a restricted candidate set.
        let mut lru = Lru::new();
        let mut stamp = 0;
        for v in [5, 2, 9, 4, 7, 1] {
            stamp += 1;
            insert(&mut lru, v, stamp);
        }
        for v in [9, 5, 4] {
            stamp += 1;
            access(&mut lru, v, stamp);
        }
        lru.on_remove(2);
        let candidates = [1, 5, 7, 9];
        let oldest = *candidates
            .iter()
            .min_by_key(|&&c| lru.last_use(c).unwrap())
            .unwrap();
        let from_walk = pick(&mut lru, &candidates);
        assert_eq!(from_walk, oldest);
        assert_eq!(from_walk, 7); // oldest untouched candidate
        assert_eq!(lru.newest_where(|c| candidates.contains(&c)), Some(5));
    }
}
