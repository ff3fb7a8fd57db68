//! Shared-cache strategies `S_A`: the whole cache is one pool and any cell
//! may hold any core's page.

use crate::eviction::{shed_victims, EvictionPolicy};
use crate::next_use::NextUse;
use mcp_core::{Cache, CacheStrategy, PageId, SimConfig, Time, Workload};

/// `S_A`: a shared cache managed by a single eviction policy `A`.
///
/// `Shared::new(Lru::new())` is the paper's `S_LRU`.
#[derive(Clone, Debug)]
pub struct Shared<P> {
    policy: P,
    stamp: u64,
}

impl<P: EvictionPolicy> Shared<P> {
    /// Wrap an eviction policy into a shared-cache strategy.
    pub fn new(policy: P) -> Self {
        Shared { policy, stamp: 0 }
    }

    /// Access the wrapped policy (e.g. to read marking phase counters).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    fn next_stamp(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }
}

impl<P: EvictionPolicy> CacheStrategy for Shared<P> {
    fn name(&self) -> String {
        format!("S_{}", self.policy.name())
    }

    fn on_hit(&mut self, _core: usize, page: PageId, _time: Time, cell: usize, _cache: &Cache) {
        let stamp = self.next_stamp();
        self.policy.on_access(cell, page, stamp);
    }

    fn choose_cell(&mut self, _core: usize, _page: PageId, _time: Time, cache: &Cache) -> usize {
        if let Some(cell) = cache.empty_cell() {
            return cell;
        }
        // The cache's own masks are the candidate set: intrusive policies
        // walk their ordered structure probing membership, the others
        // count or scan the words — nothing is materialised per fault.
        self.policy.choose_victim(&cache.victims())
    }

    fn on_fault(&mut self, _core: usize, page: PageId, _time: Time, cell: usize, _cache: &Cache) {
        let stamp = self.next_stamp();
        self.policy.on_insert(cell, page, stamp);
    }

    fn on_shared_fetch_miss(
        &mut self,
        _core: usize,
        page: PageId,
        _time: Time,
        cell: usize,
        _cache: &Cache,
    ) {
        // The page is mid-fetch for another core but this request *is* an
        // access to it: refresh the policy's recency/frequency state, as a
        // hit would. (Only reachable on non-disjoint workloads.)
        let stamp = self.next_stamp();
        self.policy.on_access(cell, page, stamp);
    }

    fn on_evict(&mut self, _page: PageId, cell: usize) {
        self.policy.on_remove(cell);
    }

    fn shrink_victims(&mut self, need: usize, _time: Time, cache: &Cache) -> Vec<usize> {
        // A capacity drop needs `need` victims at once. Ask the wrapped
        // policy one victim at a time — the same `choose_victim` entry
        // the fault path uses — masking out cells already chosen this
        // round, so the policy's own ordering decides the whole batch
        // (e.g. LRU sheds its `need` least-recent pages).
        let mut cells = Vec::with_capacity(need);
        shed_victims(&mut self.policy, cache, None, need, &mut cells);
        cells
    }
}

/// `S_FITF`: shared cache with the furthest-in-the-future heuristic
/// extended to multiple sequences.
///
/// For each resident page we estimate its next request time as the minimum
/// over cores of the number of that core's still-unserved requests before
/// the page's next occurrence (i.e. assuming no further delays); the page
/// with the largest estimate is evicted. For p = 1 this is exactly Belady.
/// The paper (end of Section 4) shows this strategy is *not* optimal in
/// the multicore setting once τ > K/p — experiment E09 reproduces that.
///
/// Distances are answered from precomputed next-occurrence tables (the
/// standard Belady trick, shared with [`crate::Belady`] and
/// [`crate::SacrificeOffline`]): each served request updates one slot in
/// O(1), each cell records its page's table slots when the fetch starts,
/// and a distance query reads only the sequences that request the page
/// (one on disjoint traffic), with no hash probe.
#[derive(Clone, Debug, Default)]
pub struct SharedFitf {
    /// One sequence per core, captured in [`CacheStrategy::begin`].
    next: NextUse,
}

impl SharedFitf {
    /// New FITF strategy; sequences are captured in [`CacheStrategy::begin`].
    pub fn new() -> Self {
        Self::default()
    }
}

impl CacheStrategy for SharedFitf {
    fn name(&self) -> String {
        "S_FITF".into()
    }

    fn begin(&mut self, workload: &Workload, _cfg: &SimConfig) {
        self.next = NextUse::new(workload.sequences());
    }

    fn on_hit(&mut self, core: usize, _page: PageId, _time: Time, _cell: usize, _cache: &Cache) {
        self.next.advance(core);
    }

    fn choose_cell(&mut self, core: usize, _page: PageId, _time: Time, cache: &Cache) -> usize {
        if let Some(cell) = cache.empty_cell() {
            return cell;
        }
        // The faulting request is still unserved while we choose; count it
        // as served for distance queries so "next use" looks strictly
        // ahead. (The faulting page itself is absent, so only the cursor
        // offset matters.) The key `(distance, cell)` is packed into one
        // `u64`, in the same order: a tuple key cost ~2.5x per victim.
        self.next.looking_past(core, |next| {
            let key = cache
                .victims()
                .iter()
                .map(|cell| (u64::from(next.distance_of(cell)) << 32) | cell as u64)
                .max()
                .expect("cache full implies a resident page");
            key as u32 as usize
        })
    }

    fn on_fault(&mut self, core: usize, page: PageId, _time: Time, cell: usize, _cache: &Cache) {
        self.next.place(cell, page);
        self.next.advance(core);
    }

    fn on_shared_fetch_miss(
        &mut self,
        core: usize,
        _page: PageId,
        _time: Time,
        _cell: usize,
        _cache: &Cache,
    ) {
        self.next.advance(core);
    }

    fn shrink_victims(&mut self, need: usize, _time: Time, cache: &Cache) -> Vec<usize> {
        // Shed the pages whose next use is furthest in the future — the
        // FITF rule applied `need` times at once. Cell index breaks
        // distance ties, matching the fault path.
        let mut cells: Vec<(u32, usize)> = cache
            .victims()
            .iter()
            .map(|cell| (self.next.distance_of(cell), cell))
            .collect();
        cells.sort_by(|a, b| b.cmp(a));
        cells.truncate(need);
        cells.into_iter().map(|(_, cell)| cell).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::lru::Lru;
    use mcp_core::{simulate, Workload};

    fn wl(seqs: &[&[u32]]) -> Workload {
        Workload::from_u32(seqs.iter().map(|s| s.to_vec())).unwrap()
    }

    #[test]
    fn shared_lru_names() {
        assert_eq!(Shared::new(Lru::new()).name(), "S_LRU");
    }

    #[test]
    fn shared_lru_sequential_classic() {
        // p=1, K=2, sequence 1 2 3 1 2 3: LRU faults on everything.
        let w = wl(&[&[1, 2, 3, 1, 2, 3]]);
        let r = simulate(&w, SimConfig::new(2, 0), Shared::new(Lru::new())).unwrap();
        assert_eq!(r.total_faults(), 6);
        // K=3: only 3 cold faults.
        let w3 = wl(&[&[1, 2, 3, 1, 2, 3], &[], &[]]);
        let r = simulate(&w3, SimConfig::new(3, 0), Shared::new(Lru::new())).unwrap();
        assert_eq!(r.total_faults(), 3);
    }

    #[test]
    fn shared_lru_cross_core_recency() {
        // K=3, tau=0. t=1: core0 faults on 1, core1 faults on 3. t=2:
        // core0 faults on 2, core1 hits 3 (refreshing it globally). t=3:
        // core0 requests 4 with the cache full {1,2,3}; the globally least
        // recently used page is 1, so it is evicted and core0's request of
        // 1 at t=4 faults again.
        let w = wl(&[&[1, 2, 4, 1], &[3, 3, 3, 3]]);
        let r = simulate(&w, SimConfig::new(3, 0), Shared::new(Lru::new())).unwrap();
        assert_eq!(r.faults[0], 4);
        assert_eq!(r.faults[1], 1);
    }

    #[test]
    fn shared_fetch_miss_refreshes_recency() {
        // Regression test: a request for a page mid-fetch by another core
        // is an access to that page and must reach the wrapped policy.
        // K=3, τ=2, three cores:
        //   t=1: core0 faults on 1 (LRU stamp 1), core1 faults on 2
        //        (stamp 2), core2 requests 1 mid-fetch → shared-fetch miss
        //        (stamp 3, with the forwarding in place).
        //   t=4: core0 faults on 3 into the last empty cell; core2 then
        //        faults on 5 with no cell free. With the shared-fetch
        //        access recorded, page 2 is least recent and is evicted,
        //        so core0's re-request of 1 at t=7 hits. Without the
        //        forwarding, 1 still carries stamp 1, gets evicted
        //        instead, and the re-request faults.
        let w = wl(&[&[1, 3, 1], &[2], &[1, 5]]);
        let r = simulate(&w, SimConfig::new(3, 2), Shared::new(Lru::new())).unwrap();
        assert_eq!(r.faults, vec![2, 1, 2]);
        assert_eq!(r.hits, vec![1, 0, 0]);
    }

    #[test]
    fn fitf_matches_belady_on_single_core() {
        let w = wl(&[&[1, 2, 3, 1, 2, 1, 3, 2, 1]]);
        let fitf = simulate(&w, SimConfig::new(2, 0), SharedFitf::new()).unwrap();
        // Belady on 1 2 3 1 2 1 3 2 1 with K=2:
        // fault 1, fault 2, fault 3 (evict 2? next use of 1 is pos 3, of 2
        // is pos 4 -> evict 2), fault... simulate by hand is error-prone;
        // instead assert it does not exceed LRU and at least universe size.
        let lru = simulate(&w, SimConfig::new(2, 0), Shared::new(Lru::new())).unwrap();
        assert!(fitf.total_faults() >= 3);
        assert!(fitf.total_faults() <= lru.total_faults());
    }

    #[test]
    fn shrink_sheds_least_recent_pages_first() {
        use mcp_core::{CapacitySchedule, SimConfig, Simulator};
        // K=4, τ=0, single core 1 2 3 4 2 3 4 1; capacity halves at t=5.
        // At the drop the requested page 2 is pinned; LRU must shed the
        // two least-recent evictable pages, 1 then 3, via repeated
        // choose_victim.
        let w = wl(&[&[1, 2, 3, 4, 2, 3, 4, 1]]);
        let schedule: CapacitySchedule = "4,2@5".parse().unwrap();
        let (r, trace) =
            Simulator::with_capacity(&w, SimConfig::new(4, 0), schedule, Shared::new(Lru::new()))
                .unwrap()
                .run_with_trace()
                .unwrap();
        let drop_step = trace.iter().find(|s| s.time == 5).unwrap();
        let shed: Vec<PageId> = drop_step.voluntary.iter().map(|&(_, p)| p).collect();
        assert_eq!(shed, vec![PageId(1), PageId(3)]);
        assert_eq!(r.total_faults(), 7); // 4 cold + re-faults on 3, 4, 1
        assert_eq!(r.total_hits(), 1); // only the pinned 2 at the drop
    }

    #[test]
    fn fitf_prefers_never_used_again() {
        // K=2: 1 2 1 2, then 3 once, then 1 2 1 2 again. On the fault for
        // 3, both 1 and 2 recur, 3 never does. FITF evicts whichever of
        // 1/2 is furthest; after 3 is brought in, 3 is the best victim.
        let w = wl(&[&[1, 2, 3, 1, 2]]);
        let r = simulate(&w, SimConfig::new(2, 0), SharedFitf::new()).unwrap();
        // Belady: faults 1,2,3 and then one of {1,2} faults once: total 4.
        assert_eq!(r.total_faults(), 4);
    }
}
