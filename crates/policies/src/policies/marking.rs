//! Marking eviction: the phase-based family whose members are `K`-competitive
//! in sequential paging and, per Lemma 1, `max_j k_j`-competitive per part
//! under a fixed static partition.
//!
//! A page is marked when requested. When a fault finds every candidate
//! marked, the phase ends: all marks are cleared. Victims are drawn from
//! unmarked candidates, with a pluggable tie-break.

use crate::eviction::EvictionPolicy;
use crate::policies::lru::Lru;
use mcp_core::PageId;
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
/// Recency lives in [`Lru`]'s intrusive list, and marks are implied by
/// it: a page is marked iff its last use is at or after `mark_from`, the
/// first stamp of the current phase. Ending a phase moves `mark_from`
/// past every stamp seen, which clears every mark at once. Because
/// stamps increase, the unmarked pages are exactly the least-recent end
/// of the list, so the LRU tie rule's victim is the first eligible page
/// from that end whether or not a phase ends.
#[derive(Clone, Debug)]
pub struct Marking {
    recency: Lru,
    /// Pages last used at a stamp `>= mark_from` are marked.
    mark_from: u64,
    rng: Option<StdRng>,
    /// Reused draw buffers of the random tie rule, in candidate order.
    unmarked: Vec<PageId>,
    marked: Vec<PageId>,
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
            mark_from: 0,
            rng,
            unmarked: Vec::new(),
            marked: Vec::new(),
            tie_name,
            phases: 0,
        }
    }

    /// Whether `page` is currently marked.
    pub fn is_marked(&self, page: PageId) -> bool {
        self.recency
            .last_use(page)
            .is_some_and(|stamp| stamp >= self.mark_from)
    }

    /// Phase ends: clear every mark in the managed set.
    fn end_phase(&mut self) {
        self.phases += 1;
        self.mark_from = self.recency.newest_stamp().map_or(0, |s| s + 1);
    }
}

impl EvictionPolicy for Marking {
    fn name(&self) -> String {
        format!("MARK({})", self.tie_name)
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
        candidates: &mut dyn Iterator<Item = PageId>,
        eligible: &dyn Fn(PageId) -> bool,
    ) -> PageId {
        if self.rng.is_none() {
            // The least recent eligible page is unmarked iff any eligible
            // page is; if it is marked the phase ends and it is still the
            // least recent of the (now all unmarked) candidates.
            let victim = self
                .recency
                .oldest_where(eligible)
                .expect("candidates nonempty");
            if self.is_marked(victim) {
                self.end_phase();
            }
            return victim;
        }
        let (mut unmarked, mut marked) = (
            std::mem::take(&mut self.unmarked),
            std::mem::take(&mut self.marked),
        );
        unmarked.clear();
        marked.clear();
        for page in candidates {
            if self.is_marked(page) {
                marked.push(page);
            } else {
                unmarked.push(page);
            }
        }
        if unmarked.is_empty() {
            // Every candidate was marked, so `marked` is all of them, in
            // candidate order.
            self.end_phase();
            std::mem::swap(&mut unmarked, &mut marked);
        }
        let rng = self.rng.as_mut().expect("random tie rule");
        let victim = unmarked[rng.gen_range(0..unmarked.len())];
        (self.unmarked, self.marked) = (unmarked, marked);
        victim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: u32) -> PageId {
        PageId(v)
    }

    #[test]
    fn never_evicts_marked_while_unmarked_exists() {
        let mut m = Marking::new(MarkingTie::Lru);
        m.on_insert(p(1), 1);
        m.on_insert(p(2), 2);
        // New phase boundary clears marks; then re-mark only p(2).
        m.choose_victim(&[p(1), p(2)]); // triggers phase end internally
        m.on_access(p(2), 3);
        assert_eq!(m.choose_victim(&[p(1), p(2)]), p(1));
    }

    #[test]
    fn phase_counter_increments_when_all_marked() {
        let mut m = Marking::new(MarkingTie::Lru);
        m.on_insert(p(1), 1);
        m.on_insert(p(2), 2);
        assert_eq!(m.phases, 0);
        m.choose_victim(&[p(1), p(2)]);
        assert_eq!(m.phases, 1);
    }

    #[test]
    fn randomized_variant_is_seed_deterministic() {
        let run = |seed| {
            let mut m = Marking::new(MarkingTie::Random(seed));
            m.on_insert(p(1), 1);
            m.on_insert(p(2), 2);
            m.on_insert(p(3), 3);
            (0..10)
                .map(|_| m.choose_victim(&[p(1), p(2), p(3)]))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn lru_tiebreak_prefers_older_unmarked() {
        let mut m = Marking::new(MarkingTie::Lru);
        m.on_insert(p(1), 1);
        m.on_insert(p(2), 2);
        m.on_insert(p(3), 3);
        m.choose_victim(&[p(1), p(2), p(3)]); // end phase, clear marks
        m.on_access(p(1), 4);
        // Unmarked: p(2) (stamp 2), p(3) (stamp 3) -> evict p(2).
        assert_eq!(m.choose_victim(&[p(1), p(2), p(3)]), p(2));
    }
}
