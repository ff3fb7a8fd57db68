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
use mcp_core::{victims::first_one, CellSet, PageId, Victims};

/// Flush-When-Full.
///
/// A cell is *touched* when its page was inserted or accessed during the
/// current epoch. Touches are a cell bitset, so the victim is the lowest
/// set bit of `candidates & !touched` and a flush clears the bitset.
#[derive(Clone, Debug, Default)]
pub struct Fwf {
    touched: CellSet,
    /// Completed epochs (flushes), observable for phase tests.
    pub flushes: u64,
}

impl Fwf {
    /// New, empty FWF state.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EvictionPolicy for Fwf {
    fn name(&self) -> String {
        "FWF".into()
    }

    fn on_insert(&mut self, cell: usize, _page: PageId, _stamp: u64) {
        self.touched.insert(cell);
    }

    fn on_access(&mut self, cell: usize, _page: PageId, _stamp: u64) {
        self.touched.insert(cell);
    }

    fn on_remove(&mut self, cell: usize) {
        self.touched.remove(cell);
    }

    fn choose_victim(&mut self, victims: &Victims) -> usize {
        // The first untouched candidate in cell order goes.
        let untouched = victims
            .words()
            .enumerate()
            .map(|(i, w)| w & !self.touched.word(i));
        if let Some(cell) = first_one(untouched) {
            return cell;
        }
        // Everything touched: flush (new epoch), evict the first candidate.
        self.flushes += 1;
        self.touched.clear();
        victims.first().expect("candidates nonempty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eviction::testing::{access, insert, pick};

    #[test]
    fn flushes_when_everything_touched() {
        let mut fwf = Fwf::new();
        insert(&mut fwf, 1, 1);
        insert(&mut fwf, 2, 2);
        assert_eq!(fwf.flushes, 0);
        assert_eq!(pick(&mut fwf, &[1, 2]), 1);
        assert_eq!(fwf.flushes, 1);
    }

    #[test]
    fn untouched_pages_evicted_first() {
        let mut fwf = Fwf::new();
        insert(&mut fwf, 1, 1);
        insert(&mut fwf, 2, 2);
        pick(&mut fwf, &[1, 2]); // flush: both untouched now
        access(&mut fwf, 1, 3);
        assert_eq!(pick(&mut fwf, &[1, 2]), 2);
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
