//! LRU-K eviction (O'Neil et al.): evict the page whose K-th most recent
//! reference is oldest, falling back to classic LRU among pages with
//! fewer than K references. Captures reuse *frequency* as well as
//! recency; `K = 2` is the classic scan-resistant configuration.

use crate::eviction::EvictionPolicy;
use mcp_core::{FxHashMap, PageId, Victims};

/// Rank bit of pages with a full history of `k` references: they sort
/// after every page with fewer (infinite backward K-distance).
const FINITE: u64 = 1 << 63;

/// LRU-K with per-page reference history.
///
/// Histories live in one flat stamp array, `k` slots per page, oldest
/// first; a page's map entry holds its slot and how many references it
/// has (at most `k`). History is page-keyed because it is *retained*
/// across evictions, but it is touched only on insert or access: each
/// then refreshes a cell-indexed mirror `(rank, page)` of the page's
/// victim key, so victim choice is one scan of the candidate mask with an
/// array read per candidate and no map probe.
#[derive(Clone, Debug)]
pub struct LruK {
    k: usize,
    /// Page → (history slot, references recorded, capped at `k`).
    history: FxHashMap<PageId, (u32, u32)>,
    /// Slot `s` holds its page's last references in
    /// `stamps[s * k..s * k + len]`, oldest first.
    stamps: Vec<u64>,
    /// `rank[cell]`: the victim key of the page in `cell` — its last
    /// reference when it has fewer than `k`, else [`FINITE`] plus its
    /// `k`-th most recent reference — and the page, for tie-breaks.
    rank: Vec<(u64, PageId)>,
}

impl LruK {
    /// Build with history depth `k ≥ 1` (`k = 1` is classic LRU).
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "history depth must be at least 1");
        LruK {
            k,
            history: FxHashMap::default(),
            stamps: Vec::new(),
            rank: Vec::new(),
        }
    }

    /// Record a reference to `page` at `stamp` and refresh the mirror of
    /// `cell`, which holds it.
    fn record(&mut self, cell: usize, page: PageId, stamp: u64) {
        debug_assert!(stamp < FINITE, "stamp overflows the rank bit");
        let k = self.k;
        let next_slot = (self.stamps.len() / k) as u32;
        let (slot, len) = self.history.entry(page).or_insert((next_slot, 0));
        if *slot == next_slot {
            self.stamps.resize(self.stamps.len() + k, 0);
        }
        let h = &mut self.stamps[*slot as usize * k..][..k];
        let key = if (*len as usize) < k {
            h[*len as usize] = stamp;
            *len += 1;
            if *len as usize == k {
                FINITE | h[0]
            } else {
                stamp
            }
        } else {
            h.copy_within(1.., 0);
            h[k - 1] = stamp;
            FINITE | h[0]
        };
        if cell >= self.rank.len() {
            self.rank.resize(cell + 1, (0, PageId(0)));
        }
        self.rank[cell] = (key, page);
    }
}

impl EvictionPolicy for LruK {
    fn name(&self) -> String {
        format!("LRU-{}", self.k)
    }

    fn on_insert(&mut self, cell: usize, page: PageId, stamp: u64) {
        self.record(cell, page, stamp);
    }

    fn on_access(&mut self, cell: usize, page: PageId, stamp: u64) {
        self.record(cell, page, stamp);
    }

    fn on_remove(&mut self, _cell: usize) {
        // Reference history is *retained* across evictions (the classic
        // LRU-K "retained information period"): a hot page that returns
        // keeps its frequency signal. The cell's mirror entry is stale
        // until the next insert and never read meanwhile.
    }

    fn choose_victim(&mut self, victims: &Victims) -> usize {
        // Pages lacking K references (infinite backward K-distance) are
        // evicted first, oldest last-reference first; otherwise the page
        // with the oldest K-th reference goes. `(rank, page)` ties break
        // on the page.
        victims
            .iter()
            .min_by_key(|&cell| self.rank[cell])
            .expect("candidates nonempty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eviction::testing::{access, insert, pick};

    #[test]
    fn k1_behaves_like_lru() {
        use crate::policies::lru::Lru;
        let mut lruk = LruK::new(1);
        let mut lru = Lru::new();
        for (i, v) in [1, 2, 3].into_iter().enumerate() {
            insert(&mut lruk, v, i as u64);
            insert(&mut lru, v, i as u64);
        }
        access(&mut lruk, 1, 10);
        access(&mut lru, 1, 10);
        assert_eq!(pick(&mut lruk, &[1, 2, 3]), pick(&mut lru, &[1, 2, 3]));
    }

    #[test]
    fn prefers_single_use_pages_over_frequent_ones() {
        let mut l = LruK::new(2);
        insert(&mut l, 1, 1);
        access(&mut l, 1, 5); // two references: finite distance
        insert(&mut l, 2, 6); // one reference: infinite distance
                              // Even though page 2 is more recent, it lacks a second reference.
        assert_eq!(pick(&mut l, &[1, 2]), 2);
    }

    #[test]
    fn among_frequent_pages_oldest_kth_reference_loses() {
        let mut l = LruK::new(2);
        insert(&mut l, 1, 1);
        access(&mut l, 1, 2); // kth (2nd) recent = 1
        insert(&mut l, 2, 3);
        access(&mut l, 2, 4); // kth recent = 3
        assert_eq!(pick(&mut l, &[1, 2]), 1);
    }

    #[test]
    fn history_is_retained_across_cells() {
        // Page 1 earns two references in cell 1, is evicted, and returns
        // in cell 5: its history (and so its finite rank) comes along.
        let mut l = LruK::new(2);
        l.on_insert(1, PageId(1), 1);
        l.on_access(1, PageId(1), 2);
        l.on_remove(1);
        l.on_insert(5, PageId(1), 3);
        insert(&mut l, 2, 4);
        assert_eq!(pick(&mut l, &[2, 5]), 2);
        assert_eq!(l.rank[5], (FINITE | 2, PageId(1)));
    }

    #[test]
    fn scan_resistance_end_to_end() {
        use crate::shared::Shared;
        use mcp_core::{simulate, SimConfig, Workload};
        // One hot pair plus a scan burst of two fresh pages per round,
        // K = 3: under LRU the burst pushes a hot page out every round;
        // LRU-2 evicts the single-reference scan pages first and keeps
        // the hot pair resident.
        let mut seq: Vec<u32> = Vec::new();
        for i in 0..40u32 {
            seq.push(1);
            seq.push(2);
            seq.push(100 + 2 * i); // scan pages, never reused
            seq.push(101 + 2 * i);
        }
        let w = Workload::from_u32([seq]).unwrap();
        let cfg = SimConfig::new(3, 0);
        let lru2 = simulate(&w, cfg, Shared::new(LruK::new(2)))
            .unwrap()
            .total_faults();
        let lru = simulate(&w, cfg, Shared::new(crate::policies::lru::Lru::new()))
            .unwrap()
            .total_faults();
        assert!(
            lru2 < lru,
            "LRU-2 ({lru2}) must beat LRU ({lru}) on scan pollution"
        );
    }

    #[test]
    #[should_panic(expected = "history depth")]
    fn zero_depth_rejected() {
        LruK::new(0);
    }
}
