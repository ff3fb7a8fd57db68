//! Static-partition strategies `sP^B_A`: the cache is split once into `p`
//! fixed parts, each running its own instance of eviction policy `A`.

use crate::eviction::{shed_victims, stream_victim, EvictionPolicy};
use crate::partition::Partition;
use mcp_core::{Cache, CacheStrategy, FxHashMap, PageId, SimConfig, Time, Workload};

/// Builds a fresh per-part eviction policy for a core, given the workload
/// (so offline policies like per-part Belady can see their sequence).
pub type PolicyFactory<P> = Box<dyn Fn(usize, &Workload, &SimConfig) -> P + Send>;

/// `sP^B_A`: static partition `B` with per-part policy `A`.
///
/// Per-part policies are created in [`CacheStrategy::begin`] via the
/// factory, so offline per-part policies (Belady) receive their core's
/// sequence. Hits on a page are routed to the policy of the core that
/// *brought it in*, which for disjoint workloads is always the requesting
/// core.
pub struct StaticPartition<P> {
    partition: Partition,
    /// The partition as configured, before any capacity rescaling. Quota
    /// rescales always start from here so a capacity dip-and-recover
    /// restores the original quotas exactly instead of drifting through
    /// repeated roundings.
    base: Partition,
    factory: PolicyFactory<P>,
    policies: Vec<P>,
    /// Which core's part each cached page belongs to.
    page_part: FxHashMap<PageId, usize>,
    stamp: u64,
    label: String,
}

impl<P: EvictionPolicy> StaticPartition<P> {
    /// Build with an explicit per-core factory.
    pub fn with_factory(partition: Partition, factory: PolicyFactory<P>) -> Self {
        StaticPartition {
            base: partition.clone(),
            partition,
            factory,
            policies: Vec::new(),
            page_part: FxHashMap::default(),
            stamp: 0,
            label: String::new(),
        }
    }

    /// Build with one policy constructor used for every part (online
    /// policies that need no workload access).
    pub fn uniform(partition: Partition, make: impl Fn() -> P + Send + 'static) -> Self {
        Self::with_factory(partition, Box::new(move |_, _, _| make()))
    }

    /// The partition in force.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    fn next_stamp(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }
}

impl<P: EvictionPolicy> CacheStrategy for StaticPartition<P> {
    fn name(&self) -> String {
        if self.label.is_empty() {
            format!("sP{}_?", self.partition)
        } else {
            self.label.clone()
        }
    }

    fn begin(&mut self, workload: &Workload, cfg: &SimConfig) {
        self.partition = self.base.clone();
        self.partition
            .validate(cfg.cache_size, workload.num_cores())
            .expect("static partition must match cache size and core count");
        self.policies = (0..workload.num_cores())
            .map(|j| (self.factory)(j, workload, cfg))
            .collect();
        self.label = format!("sP{}_{}", self.partition, self.policies[0].name());
        self.page_part.clear();
        self.stamp = 0;
    }

    fn on_hit(&mut self, core: usize, page: PageId, _time: Time, _cache: &Cache) {
        let stamp = self.next_stamp();
        // Route to the part that holds the page (== `core` when disjoint).
        let part = *self.page_part.get(&page).unwrap_or(&core);
        self.policies[part].on_access(page, stamp);
    }

    fn choose_cell(&mut self, core: usize, _page: PageId, _time: Time, cache: &Cache) -> usize {
        if cache.owned_count(core) < self.partition.size(core) {
            if let Some(cell) = cache.empty_cell() {
                return cell;
            }
            // Non-disjoint edge case: an earlier borrow (below) let some
            // part overfill, so the cache can be full while this core is
            // under quota. Fall through to evicting like a full part.
        }
        // Part is full: evict from our own part. Pinned pages (read in
        // parallel this step) are excluded; on disjoint workloads no other
        // core can pin our pages, so candidates are never empty here.
        match stream_victim(&mut self.policies[core], cache, Some(core), &[]) {
            Some(victim) => cache.cell_of(victim).expect("victim is resident"),
            // Non-disjoint edge case: every own page is pinned by another
            // core's simultaneous read. Borrow any evictable cell — or an
            // empty one, when everything Present is pinned (the part can
            // be "full" by ownership while other parts are still empty).
            None => cache
                .evictable_cells()
                .next()
                .map(|(cell, _, _)| cell)
                .or_else(|| cache.empty_cell())
                .expect("pin discipline guarantees a free or evictable cell"),
        }
    }

    fn on_fault(&mut self, core: usize, page: PageId, _time: Time, _cell: usize, _cache: &Cache) {
        let stamp = self.next_stamp();
        self.page_part.insert(page, core);
        self.policies[core].on_insert(page, stamp);
    }

    fn on_evict(&mut self, page: PageId, _cell: usize) {
        if let Some(part) = self.page_part.remove(&page) {
            self.policies[part].on_remove(page);
        }
    }

    fn on_capacity_change(&mut self, _time: Time, new_k: usize, _cache: &Cache) {
        // Rescale quotas from the *configured* partition so the same K
        // always yields the same quotas, however the schedule got there.
        self.partition = self.base.rescaled(new_k);
    }

    fn shrink_victims(&mut self, need: usize, _time: Time, cache: &Cache) -> Vec<usize> {
        // Shed each part's over-quota pages under that part's own policy;
        // parts within quota are untouched (the engine falls back to
        // lowest-index evictable cells only if pinned/in-flight pages
        // leave the quota sweep short).
        let mut cells = Vec::with_capacity(need);
        for core in 0..self.partition.num_parts() {
            if cells.len() == need {
                break;
            }
            let owned = cache.owned_count(core);
            let quota = self.partition.size(core);
            if owned <= quota {
                continue;
            }
            let excess = (owned - quota).min(need - cells.len());
            shed_victims(
                &mut self.policies[core],
                cache,
                Some(core),
                excess,
                &mut cells,
            );
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::belady::Belady;
    use crate::policies::lru::Lru;
    use mcp_core::{simulate, Workload};

    fn wl(seqs: &[&[u32]]) -> Workload {
        Workload::from_u32(seqs.iter().map(|s| s.to_vec())).unwrap()
    }

    fn sp_lru(partition: Vec<usize>) -> StaticPartition<Lru> {
        StaticPartition::uniform(Partition::from_sizes(partition), Lru::new)
    }

    fn sp_belady(partition: Vec<usize>) -> StaticPartition<Belady> {
        StaticPartition::with_factory(
            Partition::from_sizes(partition),
            Box::new(|core, w, _| Belady::for_sequence(w.sequence(core))),
        )
    }

    #[test]
    fn parts_are_isolated() {
        // Core 1 thrashes its 1-cell part; core 0's 2-cell part must be
        // unaffected: its two pages stay resident after the cold misses.
        let w = wl(&[&[1, 2, 1, 2, 1, 2], &[7, 8, 7, 8, 7, 8]]);
        let r = simulate(&w, SimConfig::new(3, 0), sp_lru(vec![2, 1])).unwrap();
        assert_eq!(r.faults[0], 2); // cold only
        assert_eq!(r.faults[1], 6); // every request thrashes
    }

    #[test]
    fn within_part_lru_order() {
        // K=3 split [3]: single core, classic LRU behaviour inside part.
        let w = wl(&[&[1, 2, 3, 4, 1]]);
        let r = simulate(&w, SimConfig::new(3, 0), sp_lru(vec![3])).unwrap();
        // 1,2,3 cold; 4 evicts 1; 1 faults again.
        assert_eq!(r.faults[0], 5);
    }

    #[test]
    fn per_part_belady_beats_lru_on_cycles() {
        let cycle: Vec<u32> = (0..30).map(|i| i % 3).collect();
        let w = wl(&[&cycle]);
        let lru = simulate(&w, SimConfig::new(2, 0), sp_lru(vec![2])).unwrap();
        let opt = simulate(&w, SimConfig::new(2, 0), sp_belady(vec![2])).unwrap();
        assert_eq!(lru.total_faults(), 30); // LRU thrashes a 3-cycle in 2 cells
        assert!(opt.total_faults() < lru.total_faults());
        // Belady faults every other request after warmup: 3 + (27-?)/2-ish.
        assert!(opt.total_faults() <= 16);
    }

    #[test]
    fn capacity_drop_rescales_quotas_and_sheds_per_part() {
        use mcp_core::{CapacitySchedule, PageId, Simulator};
        // K=4 split [2,2], τ=0; capacity halves at t=5 → quotas become
        // [1,1] and each part sheds its own LRU page. Both cores then
        // thrash their 1-cell parts.
        let w = wl(&[&[1, 2, 1, 2, 1, 2], &[7, 8, 7, 8, 7, 8]]);
        let schedule: CapacitySchedule = "4,2@5".parse().unwrap();
        let (r, trace) =
            Simulator::with_capacity(&w, SimConfig::new(4, 0), schedule, sp_lru(vec![2, 2]))
                .unwrap()
                .run_with_trace()
                .unwrap();
        let drop_step = trace.iter().find(|s| s.time == 5).unwrap();
        let shed: Vec<PageId> = drop_step.voluntary.iter().map(|&(_, p)| p).collect();
        // The t=5 requests (1 and 7) are pinned before the shrink, so each
        // part sheds its only evictable page: 2 and 8.
        assert_eq!(shed, vec![PageId(2), PageId(8)]);
        // Cold faults t=1..2, hits t=3..5 (the drop step still hits its
        // pinned pages), then the shed pages re-fault at t=6.
        assert_eq!(r.faults, vec![3, 3]);
        assert_eq!(r.hits, vec![3, 3]);
    }

    #[test]
    fn rescale_restores_base_quotas_on_recovery() {
        use mcp_core::{CapacitySchedule, Simulator};
        // Drop 4→2 at t=4, recover 2→4 at t=8: after recovery the quotas
        // return to the configured [2,2], so both cores re-fill and finish
        // with hits, exactly as if the partition had never been touched.
        let w = wl(&[
            &[1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2],
            &[7, 8, 7, 8, 7, 8, 7, 8, 7, 8, 7, 8],
        ]);
        let schedule: CapacitySchedule = "4,2@4,4@8".parse().unwrap();
        let r = Simulator::with_capacity(&w, SimConfig::new(4, 0), schedule, sp_lru(vec![2, 2]))
            .unwrap()
            .run()
            .unwrap();
        // t=1..2 cold, t=3 hit, t=4 drop (the pinned requests still hit),
        // t=5..7 thrash the 1-cell parts, t=8 recovery refills, t=9..12
        // all hit again — the restored [2,2] quotas hold both pages.
        assert_eq!(r.faults, vec![6, 6]);
        assert_eq!(r.hits, vec![6, 6]);
    }

    #[test]
    fn name_includes_partition_and_policy() {
        let w = wl(&[&[1], &[2]]);
        let mut s = sp_lru(vec![2, 2]);
        let cfg = SimConfig::new(4, 0);
        s.begin(&w, &cfg);
        assert_eq!(s.name(), "sP[2,2]_LRU");
    }

    #[test]
    #[should_panic(expected = "static partition must match")]
    fn begin_rejects_bad_partition() {
        let w = wl(&[&[1], &[2]]);
        let mut s = sp_lru(vec![3, 2]);
        s.begin(&w, &SimConfig::new(4, 0));
    }
}
