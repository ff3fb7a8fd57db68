//! Dynamic-partition strategies `dP^D_A`: the part sizes `k(j, t)` may
//! change over time; shrinking a part evicts its excess pages under the
//! part's eviction policy (the model of Section 3).
//!
//! Two controllers from the paper are provided:
//!
//! * [`LruMimicPartition`] — Lemma 3's partition `D`, which re-assigns one
//!   cell on every fault (from the core owning the globally
//!   least-recently-used page to the faulting core) and is *exactly*
//!   equivalent to `S_LRU` on disjoint workloads;
//! * [`StagedPartition`] — a partition that changes only at prescribed
//!   times (the `o(n)`-stage strategies of Theorem 1.3).

use crate::eviction::{shed_victims, stream_victim, EvictionPolicy};
use crate::partition::Partition;
use crate::policies::lru::Lru;
use mcp_core::{Cache, CacheStrategy, PageId, SimConfig, Time, Workload};

/// Lemma 3's dynamic partition: start with an equal split; on each fault,
/// if the cache is full, shrink the part of the core owning the globally
/// least-recently-used page by one cell and grow the faulting core's part
/// into it, evicting that LRU page.
///
/// On disjoint workloads this serves every request exactly as `S_LRU`
/// does (Lemma 3) — the partition is pure bookkeeping. The experiment E07
/// and a property test assert bitwise-equal fault sequences.
///
/// Recency is kept by the cell-indexed intrusive [`Lru`] itself, so the
/// globally least-recently-used evictable page is a walk from its
/// least-recent end.
#[derive(Clone, Debug, Default)]
pub struct LruMimicPartition {
    recency: Lru,
    stamp: u64,
    /// Number of times a cell moved between parts (partition changes).
    pub reassignments: u64,
}

impl LruMimicPartition {
    /// New mimic strategy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current part sizes (cells owned per core), read from the cache.
    pub fn part_sizes(cache: &Cache, cores: usize) -> Vec<usize> {
        (0..cores).map(|j| cache.owned_count(j)).collect()
    }

    fn next_stamp(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }
}

impl CacheStrategy for LruMimicPartition {
    fn name(&self) -> String {
        "dP[LRU-mimic]_LRU".into()
    }

    fn on_hit(&mut self, _core: usize, _page: PageId, _time: Time, cell: usize, _cache: &Cache) {
        let stamp = self.next_stamp();
        self.recency.touch(cell, stamp);
    }

    fn choose_cell(&mut self, core: usize, _page: PageId, _time: Time, cache: &Cache) -> usize {
        if let Some(cell) = cache.empty_cell() {
            return cell;
        }
        let cell = self.recency.choose_victim(&cache.victims());
        if cache.owner(cell) != Some(core) {
            self.reassignments += 1;
        }
        cell
    }

    fn on_fault(&mut self, _core: usize, _page: PageId, _time: Time, cell: usize, _cache: &Cache) {
        let stamp = self.next_stamp();
        self.recency.touch(cell, stamp);
    }

    fn on_evict(&mut self, _page: PageId, cell: usize) {
        self.recency.forget(cell);
    }
}

/// A staged dynamic partition: the partition is a step function of time.
///
/// `stages` is a list of `(start_time, partition)` with strictly
/// increasing start times; the first stage must start at `t ≤ 1`. When a
/// stage boundary shrinks a part below its occupancy, excess pages are
/// evicted under the part's policy at the boundary (as the model
/// prescribes); in-flight fetches cannot be evicted, so enforcement
/// re-checks every timestep until occupancy matches.
pub struct StagedPartition<P> {
    stages: Vec<(Time, Partition)>,
    /// The stages as configured; capacity rescales always start from
    /// these, so a capacity dip-and-recover restores them exactly.
    base_stages: Vec<(Time, Partition)>,
    factory: crate::static_partition::PolicyFactory<P>,
    policies: Vec<P>,
    /// `cell_part[cell]`: the part of the page in an occupied cell (see
    /// [`crate::StaticPartition`]).
    cell_part: Vec<usize>,
    stamp: u64,
    label: String,
}

impl<P: EvictionPolicy> StagedPartition<P> {
    /// Build with a uniform policy constructor.
    pub fn uniform(stages: Vec<(Time, Partition)>, make: impl Fn() -> P + Send + 'static) -> Self {
        assert!(!stages.is_empty(), "need at least one stage");
        assert!(stages[0].0 <= 1, "first stage must cover t = 1");
        assert!(
            stages.windows(2).all(|w| w[0].0 < w[1].0),
            "stage start times must strictly increase"
        );
        StagedPartition {
            base_stages: stages.clone(),
            stages,
            factory: Box::new(move |_, _, _| make()),
            policies: Vec::new(),
            cell_part: Vec::new(),
            stamp: 0,
            label: String::new(),
        }
    }

    /// The partition in force at `time`.
    pub fn partition_at(&self, time: Time) -> &Partition {
        let idx = self.stages.partition_point(|(start, _)| *start <= time);
        &self.stages[idx.saturating_sub(1).min(self.stages.len() - 1)].1
    }

    /// Number of stages (Theorem 1.3 distinguishes `O(1)` vs `o(n)`).
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    fn next_stamp(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }
}

impl<P: EvictionPolicy> CacheStrategy for StagedPartition<P> {
    fn name(&self) -> String {
        if self.label.is_empty() {
            format!("dP[{} stages]_?", self.stages.len())
        } else {
            self.label.clone()
        }
    }

    fn begin(&mut self, workload: &Workload, cfg: &SimConfig) {
        self.stages = self.base_stages.clone();
        for (_, partition) in &self.stages {
            partition
                .validate(cfg.cache_size, workload.num_cores())
                .expect("every stage partition must match cache size and core count");
        }
        self.policies = (0..workload.num_cores())
            .map(|j| (self.factory)(j, workload, cfg))
            .collect();
        self.label = format!(
            "dP[{} stages]_{}",
            self.stages.len(),
            self.policies[0].name()
        );
        self.cell_part.clear();
        self.stamp = 0;
    }

    fn voluntary_evictions(&mut self, time: Time, cache: &Cache) -> Vec<usize> {
        let target = self.partition_at(time).clone();
        let mut evictions = Vec::new();
        for core in 0..target.num_parts() {
            let owned = cache.owned_count(core);
            if owned <= target.size(core) {
                continue;
            }
            let excess = owned - target.size(core);
            shed_victims(
                &mut self.policies[core],
                cache,
                Some(core),
                excess,
                &mut evictions,
            );
            // Any remaining excess is held by in-flight fetches or pages
            // pinned by this step's requests; it will be collected on a
            // later timestep.
        }
        evictions
    }

    fn on_hit(&mut self, core: usize, page: PageId, _time: Time, cell: usize, cache: &Cache) {
        let stamp = self.next_stamp();
        let part = cache.owner(cell).unwrap_or(core);
        self.policies[part].on_access(cell, page, stamp);
    }

    fn choose_cell(&mut self, core: usize, _page: PageId, time: Time, cache: &Cache) -> usize {
        let target = self.partition_at(time);
        // Only fill an empty cell while below the current quota — taking
        // any empty cell unconditionally would let a part over-fill past
        // its stage's size, silently growing the partition.
        if cache.owned_count(core) < target.size(core) {
            if let Some(cell) = cache.empty_cell() {
                return cell;
            }
        }
        // Prefer reclaiming from a core that exceeds its current quota
        // (possible right after a shrink while its fetch was in flight).
        let over = (0..target.num_parts())
            .filter(|&j| j != core && cache.owned_count(j) > target.size(j))
            .max_by_key(|&j| cache.owned_count(j) - target.size(j));
        let part = over.unwrap_or(core);
        match stream_victim(&mut self.policies[part], cache, Some(part), None) {
            Some(cell) => Some(cell),
            // The over-quota part is fully pinned or in flight: fall back
            // to the faulting core's own part.
            None if part != core => {
                stream_victim(&mut self.policies[core], cache, Some(core), None)
            }
            None => None,
        }
        // Non-disjoint edge case, as in `StaticPartition`: another core's
        // simultaneous reads pin every page of both parts. Borrow any
        // evictable cell — or an empty one, when everything Present is
        // pinned (a part can be full by ownership while others are empty).
        .or_else(|| cache.victims().first())
        .or_else(|| cache.empty_cell())
        .expect("pin discipline guarantees a free or evictable cell")
    }

    fn on_fault(&mut self, core: usize, page: PageId, _time: Time, cell: usize, cache: &Cache) {
        let stamp = self.next_stamp();
        if self.cell_part.len() < cache.len() {
            self.cell_part.resize(cache.len(), 0);
        }
        self.cell_part[cell] = core;
        self.policies[core].on_insert(cell, page, stamp);
    }

    fn on_evict(&mut self, _page: PageId, cell: usize) {
        self.policies[self.cell_part[cell]].on_remove(cell);
    }

    fn on_capacity_change(&mut self, _time: Time, new_k: usize, _cache: &Cache) {
        // Every stage rescales from its configured sizes, so the schedule
        // of *proportions* is preserved under the new capacity and a later
        // recovery restores the configured stages exactly.
        self.stages = self
            .base_stages
            .iter()
            .map(|(start, partition)| (*start, partition.rescaled(new_k)))
            .collect();
    }

    fn shrink_victims(&mut self, need: usize, time: Time, cache: &Cache) -> Vec<usize> {
        // Same per-part sweep as the stage-boundary enforcement in
        // `voluntary_evictions`, but capped at `need`: shed each part's
        // over-quota pages under that part's own policy.
        let target = self.partition_at(time).clone();
        let mut cells = Vec::with_capacity(need);
        for core in 0..target.num_parts() {
            if cells.len() == need {
                break;
            }
            let owned = cache.owned_count(core);
            let quota = target.size(core);
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
    use crate::policies::lru::Lru;
    use crate::shared::Shared;
    use mcp_core::{simulate, Workload};

    fn wl(seqs: &[&[u32]]) -> Workload {
        Workload::from_u32(seqs.iter().map(|s| s.to_vec())).unwrap()
    }

    #[test]
    fn lru_mimic_equals_shared_lru_small() {
        let w = wl(&[&[1, 2, 3, 1, 2, 3, 1], &[7, 8, 9, 7, 8, 9, 7]]);
        for tau in [0u64, 1, 3] {
            for k in [2usize, 3, 4, 5] {
                let a = simulate(&w, SimConfig::new(k, tau), Shared::new(Lru::new())).unwrap();
                let b = simulate(&w, SimConfig::new(k, tau), LruMimicPartition::new()).unwrap();
                assert_eq!(a.faults, b.faults, "K={k} tau={tau}");
                assert_eq!(a.fault_times, b.fault_times, "K={k} tau={tau}");
            }
        }
    }

    #[test]
    fn staged_single_stage_equals_static() {
        use crate::static_partition::StaticPartition;
        let w = wl(&[&[1, 2, 1, 2, 3, 1], &[7, 8, 7, 8, 7, 8]]);
        let part = Partition::from_sizes(vec![2, 2]);
        let s = simulate(
            &w,
            SimConfig::new(4, 1),
            StaticPartition::uniform(part.clone(), Lru::new),
        )
        .unwrap();
        let d = simulate(
            &w,
            SimConfig::new(4, 1),
            StagedPartition::uniform(vec![(1, part)], Lru::new),
        )
        .unwrap();
        assert_eq!(s.faults, d.faults);
    }

    #[test]
    fn shrink_evicts_excess_pages() {
        // Stage 1: [3,1]; stage 2 (from t=10): [1,3]. Core 0 holds 3 pages
        // by t=10; two must be evicted at the boundary, so its re-requests
        // fault again.
        let w = wl(&[&[1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3], &[7; 12]]);
        let stages = vec![
            (1, Partition::from_sizes(vec![3, 1])),
            (10, Partition::from_sizes(vec![1, 3])),
        ];
        let r = simulate(
            &w,
            SimConfig::new(4, 0),
            StagedPartition::uniform(stages, Lru::new),
        )
        .unwrap();
        // Before t=10: core 0 cold-faults 1,2,3 then hits. At t=10 its part
        // shrinks to 1: pages evicted, so requests at t=10.. fault anew.
        assert!(
            r.faults[0] > 3,
            "shrink must reintroduce faults, got {:?}",
            r.faults
        );
        assert_eq!(r.faults[1], 1);
    }

    #[test]
    fn partition_at_picks_correct_stage() {
        let s = StagedPartition::uniform(
            vec![
                (1, Partition::from_sizes(vec![2, 2])),
                (5, Partition::from_sizes(vec![3, 1])),
                (9, Partition::from_sizes(vec![1, 3])),
            ],
            Lru::new,
        );
        assert_eq!(s.partition_at(1).sizes(), &[2, 2]);
        assert_eq!(s.partition_at(4).sizes(), &[2, 2]);
        assert_eq!(s.partition_at(5).sizes(), &[3, 1]);
        assert_eq!(s.partition_at(8).sizes(), &[3, 1]);
        assert_eq!(s.partition_at(9).sizes(), &[1, 3]);
        assert_eq!(s.partition_at(100).sizes(), &[1, 3]);
        assert_eq!(s.num_stages(), 3);
    }
}
