//! Flush-When-Full: the simplest marking algorithm. When an eviction is
//! needed and every managed page has been touched since the last flush,
//! the whole (evictable) content is considered flushed.
//!
//! In the multicore engine a true bulk flush cannot happen mid-timestep
//! (evictions occur one per fault), so FWF is realized as: evict any
//! untouched-since-flush page; when none remains, declare a new epoch
//! (everything becomes untouched) and continue. This preserves FWF's
//! phase structure — and hence its `max_j k_j` Lemma 1 bound per part —
//! without needing bulk eviction.

use crate::eviction::EvictionPolicy;
use mcp_core::{FxHashMap, PageId};

/// Flush-When-Full, epoch-based.
///
/// A page is *touched* when it was inserted or accessed during the current
/// epoch: each page records the epoch of its last touch, so a flush is one
/// counter increment instead of a sweep over every managed page.
#[derive(Clone, Debug, Default)]
pub struct Fwf {
    /// Managed page → the epoch of its last touch.
    touched_in: FxHashMap<PageId, u64>,
    /// Completed epochs (flushes), observable for phase tests. It doubles
    /// as the current epoch's number.
    pub flushes: u64,
}

impl Fwf {
    /// New, empty FWF state.
    pub fn new() -> Self {
        Self::default()
    }

    fn touch(&mut self, page: PageId) {
        self.touched_in.insert(page, self.flushes);
    }

    fn is_touched(&self, page: PageId) -> bool {
        self.touched_in.get(&page) == Some(&self.flushes)
    }
}

impl EvictionPolicy for Fwf {
    fn name(&self) -> String {
        "FWF".into()
    }

    fn on_insert(&mut self, page: PageId, _stamp: u64) {
        self.touch(page);
    }

    fn on_access(&mut self, page: PageId, _stamp: u64) {
        self.touch(page);
    }

    fn on_remove(&mut self, page: PageId) {
        self.touched_in.remove(&page);
    }

    fn choose_victim_from(
        &mut self,
        candidates: &mut dyn Iterator<Item = PageId>,
        _eligible: &dyn Fn(PageId) -> bool,
    ) -> PageId {
        // The first untouched candidate in candidate order goes.
        let first = candidates.next().expect("candidates nonempty");
        if !self.is_touched(first) {
            return first;
        }
        for page in candidates {
            if !self.is_touched(page) {
                return page;
            }
        }
        // Everything touched: flush (new epoch), evict the first candidate.
        self.flushes += 1;
        first
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: u32) -> PageId {
        PageId(v)
    }

    #[test]
    fn flushes_when_everything_touched() {
        let mut fwf = Fwf::new();
        fwf.on_insert(p(1), 1);
        fwf.on_insert(p(2), 2);
        assert_eq!(fwf.flushes, 0);
        let v = fwf.choose_victim(&[p(1), p(2)]);
        assert_eq!(fwf.flushes, 1);
        assert!(v == p(1) || v == p(2));
    }

    #[test]
    fn untouched_pages_evicted_first() {
        let mut fwf = Fwf::new();
        fwf.on_insert(p(1), 1);
        fwf.on_insert(p(2), 2);
        fwf.choose_victim(&[p(1), p(2)]); // flush: both untouched now
        fwf.on_access(p(2), 3);
        assert_eq!(fwf.choose_victim(&[p(1), p(2)]), p(1));
        assert_eq!(fwf.flushes, 1);
    }

    #[test]
    fn phase_count_matches_distinct_page_pressure() {
        use crate::shared::Shared;
        use mcp_core::{simulate, SimConfig, Workload};
        // Cycling K+1 = 3 pages through K = 2 cells: each full cycle of 3
        // distinct pages wraps one phase.
        let seq: Vec<u32> = (0..30).map(|i| i % 3).collect();
        let w = Workload::from_u32([seq]).unwrap();
        let r = simulate(&w, SimConfig::new(2, 0), Shared::new(Fwf::new())).unwrap();
        // FWF faults a lot but stays within the request count.
        assert!(r.total_faults() >= 15 && r.total_faults() <= 30);
    }
}
