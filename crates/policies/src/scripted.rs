//! Offline scripted strategies: the explicit constructions used inside the
//! paper's proofs, plus a deterministic replay harness for schedules
//! reconstructed by the offline dynamic programs.

use crate::next_use::NextUse;
use mcp_core::{Cache, CacheStrategy, PageId, SimConfig, Time, Workload};
use std::collections::{BTreeMap, HashMap};

/// The offline strategy from the proof of Lemma 4 (`S_OFF`).
///
/// One core is *sacrificed*: once the cache is full, every eviction takes a
/// page of the sacrificed core — on the sacrificed core's own faults, its
/// next-to-be-requested page ("SOFF evicts the next page to be requested in
/// R_p"), so it faults on every request while every other core retains its
/// full working set and never faults again. Once the other cores finish,
/// their dead pages are evicted instead and the sacrificed core's working
/// set is allowed to settle into the whole cache.
///
/// On the Lemma 4 workload (each core cycling `K/p + 1` disjoint pages)
/// this incurs `O(n/(p(τ+1)))` faults versus `S_LRU`'s `n`, exhibiting the
/// `Ω(p(τ+1))` competitive-ratio lower bound.
pub struct SacrificeOffline {
    victim_core: usize,
    /// One sequence per core, captured in [`CacheStrategy::begin`]; its
    /// cursors count each core's served requests.
    next: NextUse,
    seq_len: Vec<usize>,
}

impl SacrificeOffline {
    /// Sacrifice `victim_core` (the proof uses the last core, `p − 1`).
    pub fn new(victim_core: usize) -> Self {
        SacrificeOffline {
            victim_core,
            next: NextUse::default(),
            seq_len: Vec::new(),
        }
    }

    fn finished(&self, core: usize) -> bool {
        self.next.cursor(core) >= self.seq_len[core]
    }
}

impl CacheStrategy for SacrificeOffline {
    fn name(&self) -> String {
        format!("S_OFF[sacrifice={}]", self.victim_core)
    }

    fn begin(&mut self, workload: &Workload, _cfg: &SimConfig) {
        assert!(
            self.victim_core < workload.num_cores(),
            "victim core out of range"
        );
        debug_assert!(
            workload.is_disjoint(),
            "SacrificeOffline assumes disjoint sequences"
        );
        self.next = NextUse::new(workload.sequences());
        self.seq_len = workload.sequences().iter().map(Vec::len).collect();
    }

    fn on_hit(&mut self, core: usize, _page: PageId, _time: Time, _cache: &Cache) {
        self.next.advance(core);
    }

    fn choose_cell(&mut self, _core: usize, _page: PageId, _time: Time, cache: &Cache) -> usize {
        if let Some(cell) = cache.empty_cell() {
            return cell;
        }
        // One pass in cell order serves rules 1 and 2:
        // 1. Dead pages of finished cores are free real estate: the first
        //    one wins outright.
        // 2. Otherwise evict the sacrificed core's next-to-be-requested
        //    page (the first on ties). While serving the sacrificed core's
        //    own fault its cursor still points at the (absent) faulting
        //    page, so `next_use` naturally looks past it.
        let mut sacrificial: Option<(usize, usize)> = None;
        for (cell, page, owner) in cache.evictable_cells() {
            let Some(owner) = owner else { continue };
            if self.finished(owner) {
                return cell;
            }
            if owner == self.victim_core {
                let next = self.next.next_use(owner, page);
                if !matches!(sacrificial, Some((best, _)) if best <= next) {
                    sacrificial = Some((next, cell));
                }
            }
        }
        if let Some((_, cell)) = sacrificial {
            return cell;
        }
        // 3. Fallback (does not arise on the Lemma 4 workload): globally
        //    furthest-in-the-future page of the faulting core's view.
        let (cell, _, _) = cache
            .evictable_cells()
            .max_by_key(|(_, p, owner)| {
                owner
                    .map(|o| self.next.next_use(o, *p))
                    .unwrap_or(usize::MAX)
            })
            .expect("full cache has a resident page");
        cell
    }

    fn on_fault(&mut self, core: usize, _page: PageId, _time: Time, _cell: usize, _cache: &Cache) {
        self.next.advance(core);
    }

    fn on_shared_fetch_miss(&mut self, core: usize, _page: PageId, _time: Time, _cache: &Cache) {
        self.next.advance(core);
    }
}

/// One replayed placement decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayDecision {
    /// Fetch into any empty cell.
    UseEmpty,
    /// Evict this (resident) page and fetch into its cell.
    Evict(PageId),
}

/// Deterministic replay of a precomputed schedule.
///
/// Placement decisions are keyed by `(core, request_index)`; voluntary
/// (dishonest) evictions by timestep. Used to validate schedules
/// reconstructed by the offline DPs against the simulator: replaying an
/// Algorithm-1 schedule must reproduce its fault count exactly.
///
/// Missing or inconsistent decisions panic — this is a verification
/// harness, and silent divergence would defeat its purpose.
pub struct Replay {
    decisions: HashMap<(usize, usize), ReplayDecision>,
    voluntary: BTreeMap<Time, Vec<PageId>>,
    pos: Vec<usize>,
}

impl Replay {
    /// Build from per-request placement decisions.
    pub fn new(decisions: HashMap<(usize, usize), ReplayDecision>) -> Self {
        Replay {
            decisions,
            voluntary: BTreeMap::new(),
            pos: Vec::new(),
        }
    }

    /// Add voluntary evictions: `page` is evicted at the start of `time`.
    pub fn with_voluntary(mut self, voluntary: BTreeMap<Time, Vec<PageId>>) -> Self {
        self.voluntary = voluntary;
        self
    }
}

impl CacheStrategy for Replay {
    fn name(&self) -> String {
        "Replay".into()
    }

    fn begin(&mut self, workload: &Workload, _cfg: &SimConfig) {
        self.pos = vec![0; workload.num_cores()];
    }

    fn voluntary_evictions(&mut self, time: Time, cache: &Cache) -> Vec<usize> {
        // Consume every entry scheduled at or before `time`. The engine
        // steps at each scheduled time (see `next_voluntary_time`), so in
        // practice entries are consumed exactly on time; draining by `<=`
        // keeps the replay robust should a schedule start before t = 1.
        let rest = self.voluntary.split_off(&(time + 1));
        let due = std::mem::replace(&mut self.voluntary, rest);
        due.iter()
            .flat_map(|(at, pages)| pages.iter().map(move |p| (*at, p)))
            .map(|(at, p)| {
                cache
                    .cell_of(*p)
                    .unwrap_or_else(|| panic!("voluntary eviction of absent page {p} at t={at}"))
            })
            .collect()
    }

    fn next_voluntary_time(&self) -> Option<Time> {
        self.voluntary.keys().next().copied()
    }

    fn on_hit(&mut self, core: usize, _page: PageId, _time: Time, _cache: &Cache) {
        self.pos[core] += 1;
    }

    fn choose_cell(&mut self, core: usize, page: PageId, time: Time, cache: &Cache) -> usize {
        let index = self.pos[core];
        match self.decisions.get(&(core, index)) {
            None => {
                panic!("no replay decision for core {core} request {index} (page {page}, t={time})")
            }
            Some(ReplayDecision::UseEmpty) => cache
                .empty_cell()
                .unwrap_or_else(|| panic!("replay expected an empty cell at t={time}")),
            Some(ReplayDecision::Evict(victim)) => cache
                .cell_of(*victim)
                .unwrap_or_else(|| panic!("replay victim {victim} absent at t={time}")),
        }
    }

    fn on_fault(&mut self, core: usize, _page: PageId, _time: Time, _cell: usize, _cache: &Cache) {
        self.pos[core] += 1;
    }

    fn on_shared_fetch_miss(&mut self, core: usize, _page: PageId, _time: Time, _cache: &Cache) {
        self.pos[core] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcp_core::simulate;

    fn wl(seqs: &[&[u32]]) -> Workload {
        Workload::from_u32(seqs.iter().map(|s| s.to_vec())).unwrap()
    }

    #[test]
    fn replay_executes_explicit_schedule() {
        // K=2, one core: 1 2 3 2. Decisions: 1 -> empty, 2 -> empty,
        // 3 -> evict 1 (keeping 2 for the final hit).
        let w = wl(&[&[1, 2, 3, 2]]);
        let mut d = HashMap::new();
        d.insert((0, 0), ReplayDecision::UseEmpty);
        d.insert((0, 1), ReplayDecision::UseEmpty);
        d.insert((0, 2), ReplayDecision::Evict(PageId(1)));
        let r = simulate(&w, SimConfig::new(2, 0), Replay::new(d)).unwrap();
        assert_eq!(r.total_faults(), 3);
        assert_eq!(r.hits[0], 1);
    }

    #[test]
    #[should_panic(expected = "no replay decision")]
    fn replay_panics_on_missing_decision() {
        let w = wl(&[&[1]]);
        let _ = simulate(&w, SimConfig::new(1, 0), Replay::new(HashMap::new()));
    }

    #[test]
    fn replay_voluntary_evictions_force_faults() {
        // Evict page 1 at the start of t=2 (while page 2 is the request),
        // so the re-request of 1 at t=3 faults again.
        let w = wl(&[&[1, 2, 1]]);
        let mut d = HashMap::new();
        d.insert((0, 0), ReplayDecision::UseEmpty);
        d.insert((0, 1), ReplayDecision::UseEmpty);
        d.insert((0, 2), ReplayDecision::UseEmpty);
        let mut v = BTreeMap::new();
        v.insert(2u64, vec![PageId(1)]);
        let r = simulate(&w, SimConfig::new(2, 0), Replay::new(d).with_voluntary(v)).unwrap();
        assert_eq!(r.total_faults(), 3); // the forced eviction costs a refault
    }

    #[test]
    fn replay_voluntary_eviction_of_due_page_is_rejected() {
        // Page 1 is requested again at t=2; evicting it in that same step
        // violates R(x) ⊆ C' and must surface as EvictPinned.
        let w = wl(&[&[1, 1]]);
        let mut d = HashMap::new();
        d.insert((0, 0), ReplayDecision::UseEmpty);
        d.insert((0, 1), ReplayDecision::UseEmpty);
        let mut v = BTreeMap::new();
        v.insert(2u64, vec![PageId(1)]);
        let err = simulate(&w, SimConfig::new(2, 0), Replay::new(d).with_voluntary(v)).unwrap_err();
        assert_eq!(
            err,
            mcp_core::SimError::Cache(mcp_core::CacheError::EvictPinned { cell: 0 })
        );
    }

    #[test]
    fn sacrifice_offline_beats_lru_on_cyclic_workload() {
        use crate::policies::lru::Lru;
        use crate::shared::Shared;
        // p=2, K=4 (K >= p^2), each core cycles K/p+1 = 3 disjoint pages.
        let reps = 30;
        let c0: Vec<u32> = (0..reps).map(|i| i % 3).collect();
        let c1: Vec<u32> = (0..reps).map(|i| 10 + i % 3).collect();
        let w = wl(&[&c0, &c1]);
        let tau = 3;
        let lru = simulate(&w, SimConfig::new(4, tau), Shared::new(Lru::new())).unwrap();
        let off = simulate(&w, SimConfig::new(4, tau), SacrificeOffline::new(1)).unwrap();
        // LRU faults on every request; the offline strategy keeps core 0
        // fault-free after warmup and throttles core 1 to one fault per
        // tau+1 steps.
        assert_eq!(lru.total_faults(), 2 * reps as u64);
        assert!(
            off.total_faults() < lru.total_faults() / 2,
            "offline {} vs LRU {}",
            off.total_faults(),
            lru.total_faults()
        );
        assert_eq!(
            off.faults[0], 3,
            "non-sacrificed core faults only on cold misses"
        );
    }
}
