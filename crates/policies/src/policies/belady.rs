//! Per-sequence Belady (Furthest-In-The-Future) eviction — the *offline*
//! policy that is optimal for sequential paging (p = 1) and optimal per
//! part under a fixed static partition on disjoint workloads (where a
//! part's fault count depends only on its own subsequence, delays
//! notwithstanding).

use crate::eviction::EvictionPolicy;
use crate::next_use::NextUse;
use mcp_core::{PageId, Victims};

/// Furthest-in-the-future eviction over one core's request sequence.
///
/// The policy tracks how many of the core's requests it has witnessed
/// (every `on_insert`/`on_access` corresponds to one served request of the
/// owning core, in order) and resolves next-use positions against the full
/// sequence supplied at construction, through next-occurrence tables that
/// each served request advances in O(1). Each cell records its page's
/// dense table index at insert, so victim choice reads arrays only.
///
/// Only meaningful when the policy observes exactly the owning core's
/// requests in order — i.e. per-part use on disjoint workloads, or p = 1.
#[derive(Clone, Debug)]
pub struct Belady {
    next: NextUse,
}

impl Belady {
    /// Build from the owning core's full request sequence.
    pub fn for_sequence(seq: &[PageId]) -> Self {
        Belady {
            next: NextUse::new(&[seq]),
        }
    }

    /// Position of the first use of `page` at or after the next unserved
    /// request; `usize::MAX` if never used again.
    pub fn next_use(&self, page: PageId) -> usize {
        match self.next.next_use(0, page) {
            u32::MAX => usize::MAX,
            pos => pos as usize,
        }
    }

    /// Requests of the owning core served so far.
    pub fn served(&self) -> usize {
        self.next.cursor(0)
    }
}

impl EvictionPolicy for Belady {
    fn name(&self) -> String {
        "OPT".into()
    }

    fn on_insert(&mut self, cell: usize, page: PageId, _stamp: u64) {
        self.next.place(cell, page);
        self.next.advance(0);
    }

    fn on_access(&mut self, _cell: usize, _page: PageId, _stamp: u64) {
        self.next.advance(0);
    }

    fn on_remove(&mut self, _cell: usize) {}

    fn choose_victim(&mut self, victims: &Victims) -> usize {
        // Called while serving request `cursor` (a fault): a candidate's
        // next use is its first occurrence strictly after `cursor`; the
        // faulting page itself is never a candidate, so `> cursor` and
        // `>= cursor` coincide — we use the current cursor as the bound.
        // `(next use, page)` keys are unique; the page breaks the tie
        // between pages never used again.
        victims
            .iter()
            .max_by_key(|&cell| (self.next.next_use_of(0, cell), victims.page_at(cell).0))
            .expect("candidates nonempty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eviction::testing::{access, insert, pick};

    fn p(v: u32) -> PageId {
        PageId(v)
    }

    fn seq(vs: &[u32]) -> Vec<PageId> {
        vs.iter().copied().map(PageId).collect()
    }

    #[test]
    fn evicts_furthest_in_future() {
        // Sequence: 1 2 3 1 2. After serving 1, 2 (inserts), serving 3
        // must evict: next use of 1 is pos 3, of 2 is pos 4 -> evict 2.
        let s = seq(&[1, 2, 3, 1, 2]);
        let mut b = Belady::for_sequence(&s);
        insert(&mut b, 1, 1);
        insert(&mut b, 2, 2);
        // Now serving position 2 (page 3), a fault:
        assert_eq!(pick(&mut b, &[1, 2]), 2);
    }

    #[test]
    fn never_used_again_is_perfect_victim() {
        let s = seq(&[1, 2, 3, 1]);
        let mut b = Belady::for_sequence(&s);
        insert(&mut b, 1, 1);
        insert(&mut b, 2, 2);
        // Serving position 2 (page 3): page 2 never recurs.
        assert_eq!(pick(&mut b, &[1, 2]), 2);
    }

    #[test]
    fn next_use_tracks_cursor() {
        let s = seq(&[1, 2, 1, 2]);
        let mut b = Belady::for_sequence(&s);
        assert_eq!(b.next_use(p(1)), 0);
        insert(&mut b, 1, 1);
        assert_eq!(b.next_use(p(1)), 2);
        insert(&mut b, 2, 2);
        access(&mut b, 1, 3);
        assert_eq!(b.next_use(p(1)), usize::MAX);
        assert_eq!(b.next_use(p(2)), 3);
        assert_eq!(b.next_use(p(9)), usize::MAX);
        assert_eq!(b.served(), 3);
    }
}
