//! LRU-K eviction (O'Neil et al.): evict the page whose K-th most recent
//! reference is oldest, falling back to classic LRU among pages with
//! fewer than K references. Captures reuse *frequency* as well as
//! recency; `K = 2` is the classic scan-resistant configuration.

use crate::eviction::EvictionPolicy;
use mcp_core::{FxHashMap, PageId};

/// LRU-K with per-page reference history.
///
/// Histories live in one flat stamp array, `k` slots per page, oldest
/// first; a page's map entry holds its slot and how many references it
/// has (at most `k`). Victim choice is one pass over the candidates with
/// one map probe each.
#[derive(Clone, Debug)]
pub struct LruK {
    k: usize,
    /// Page → (history slot, references recorded, capped at `k`).
    history: FxHashMap<PageId, (u32, u32)>,
    /// Slot `s` holds its page's last references in
    /// `stamps[s * k..s * k + len]`, oldest first.
    stamps: Vec<u64>,
}

impl LruK {
    /// Build with history depth `k ≥ 1` (`k = 1` is classic LRU).
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "history depth must be at least 1");
        LruK {
            k,
            history: FxHashMap::default(),
            stamps: Vec::new(),
        }
    }

    fn record(&mut self, page: PageId, stamp: u64) {
        let k = self.k;
        let next_slot = (self.stamps.len() / k) as u32;
        let (slot, len) = self.history.entry(page).or_insert((next_slot, 0));
        if *slot == next_slot {
            self.stamps.resize(self.stamps.len() + k, 0);
        }
        let h = &mut self.stamps[*slot as usize * k..][..k];
        if (*len as usize) < k {
            h[*len as usize] = stamp;
            *len += 1;
        } else {
            h.copy_within(1.., 0);
            h[k - 1] = stamp;
        }
    }
}

impl EvictionPolicy for LruK {
    fn name(&self) -> String {
        format!("LRU-{}", self.k)
    }

    fn on_insert(&mut self, page: PageId, stamp: u64) {
        self.record(page, stamp);
    }

    fn on_access(&mut self, page: PageId, stamp: u64) {
        self.record(page, stamp);
    }

    fn on_remove(&mut self, _page: PageId) {
        // Reference history is *retained* across evictions (the classic
        // LRU-K "retained information period"): a hot page that returns
        // keeps its frequency signal.
    }

    fn choose_victim_from(
        &mut self,
        candidates: &mut dyn Iterator<Item = PageId>,
        _eligible: &dyn Fn(PageId) -> bool,
    ) -> PageId {
        // Pages lacking K references (infinite backward K-distance) are
        // evicted first, oldest last-reference first; otherwise the page
        // with the oldest K-th reference goes. One pass, one history
        // probe per candidate; `(key, page)` ties break on the page.
        let mut infinite: Option<(u64, PageId)> = None;
        let mut finite: Option<(u64, PageId)> = None;
        for p in candidates {
            let (slot, stamp) = match self.history.get(&p) {
                Some(&(slot, len)) => {
                    let h = &self.stamps[slot as usize * self.k..][..len as usize];
                    if h.len() == self.k {
                        (&mut finite, h[0])
                    } else {
                        (&mut infinite, h[h.len() - 1])
                    }
                }
                None => (&mut infinite, 0),
            };
            if !matches!(*slot, Some(best) if best <= (stamp, p)) {
                *slot = Some((stamp, p));
            }
        }
        infinite.or(finite).expect("candidates nonempty").1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: u32) -> PageId {
        PageId(v)
    }

    #[test]
    fn k1_behaves_like_lru() {
        use crate::policies::lru::Lru;
        let mut lruk = LruK::new(1);
        let mut lru = Lru::new();
        let events: [(u32, u64); 6] = [(1, 1), (2, 2), (3, 3), (1, 4), (2, 5), (3, 6)];
        for (pg, stamp) in events {
            lruk.on_access(p(pg), stamp);
            lruk.on_insert(p(pg), stamp); // insert resets history; emulate via access below
            lru.on_insert(p(pg), stamp);
        }
        // Rebuild cleanly: insert once, then access.
        let mut lruk = LruK::new(1);
        let mut lru = Lru::new();
        for (i, pg) in [1u32, 2, 3].iter().enumerate() {
            lruk.on_insert(p(*pg), i as u64);
            lru.on_insert(p(*pg), i as u64);
        }
        lruk.on_access(p(1), 10);
        lru.on_access(p(1), 10);
        let cands = [p(1), p(2), p(3)];
        assert_eq!(lruk.choose_victim(&cands), lru.choose_victim(&cands));
    }

    #[test]
    fn prefers_single_use_pages_over_frequent_ones() {
        let mut l = LruK::new(2);
        l.on_insert(p(1), 1);
        l.on_access(p(1), 5); // two references: finite distance
        l.on_insert(p(2), 6); // one reference: infinite distance
                              // Even though p(2) is more recent, it lacks a second reference.
        assert_eq!(l.choose_victim(&[p(1), p(2)]), p(2));
    }

    #[test]
    fn among_frequent_pages_oldest_kth_reference_loses() {
        let mut l = LruK::new(2);
        l.on_insert(p(1), 1);
        l.on_access(p(1), 2); // kth (2nd) recent = 1
        l.on_insert(p(2), 3);
        l.on_access(p(2), 4); // kth recent = 3
        assert_eq!(l.choose_victim(&[p(1), p(2)]), p(1));
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
