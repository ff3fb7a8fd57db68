//! Property tests of the differential layer itself: on arbitrary small
//! workloads — disjoint and overlapping — the optimized engine and the
//! naive reference engine must agree for every strategy family, and the
//! exhaustive offline oracles must agree with the dynamic programs and
//! the engine-driven brute-force searches.

use mcp_core::{
    simulate, Cache, CacheStrategy, CapacitySchedule, PageId, SimConfig, Simulator, Time, Workload,
};
use mcp_offline::{
    brute_force_faults_then_makespan, brute_force_makespan_then_faults, brute_force_min_faults,
    brute_force_min_makespan, ftf_min_faults, pif_decide, sched_min, Objective, PifOptions,
};
use mcp_oracle::{build_family, instance::family_applicable, Instance, FAMILIES};
use mcp_oracle::{
    oracle_min_faults, oracle_optima, oracle_pif_feasible, oracle_sched_min_faults,
    reference_simulate, reference_simulate_traced,
};
use mcp_policies::shared_lru;
use proptest::prelude::*;

/// Small disjoint workloads: per-core pages live in per-core namespaces.
fn small_disjoint() -> impl Strategy<Value = Workload> {
    prop::collection::vec(prop::collection::vec(0u32..5, 0..10), 1..=3).prop_map(|seqs| {
        let shifted: Vec<Vec<PageId>> = seqs
            .into_iter()
            .enumerate()
            .map(|(core, s)| {
                s.into_iter()
                    .map(|v| PageId(core as u32 * 100 + v))
                    .collect()
            })
            .collect();
        Workload::new(shifted).unwrap()
    })
}

/// Small overlapping workloads: every core draws from one tiny universe,
/// so shared hits and shared-fetch misses are common.
fn small_overlapping() -> impl Strategy<Value = Workload> {
    prop::collection::vec(prop::collection::vec(0u32..4, 1..10), 2..=3)
        .prop_map(|seqs| Workload::from_u32(seqs).unwrap())
}

/// Very small disjoint workloads, sized for the exhaustive oracles.
fn tiny_disjoint() -> impl Strategy<Value = Workload> {
    prop::collection::vec(prop::collection::vec(0u32..3, 0..4), 1..=2).prop_map(|seqs| {
        let shifted: Vec<Vec<PageId>> = seqs
            .into_iter()
            .enumerate()
            .map(|(core, s)| {
                s.into_iter()
                    .map(|v| PageId(core as u32 * 100 + v))
                    .collect()
            })
            .collect();
        Workload::new(shifted).unwrap()
    })
}

/// Very small overlapping workloads, sized for the exhaustive oracles.
fn tiny_overlapping() -> impl Strategy<Value = Workload> {
    prop::collection::vec(prop::collection::vec(0u32..3, 1..4), 2..=2)
        .prop_map(|seqs| Workload::from_u32(seqs).unwrap())
}

fn assert_engines_agree(w: &Workload, k: usize, tau: u64, seed: u64) {
    let cfg = SimConfig::new(k, tau);
    let instance = Instance::new(w.clone(), cfg);
    for family in FAMILIES {
        if !family_applicable(family, &instance) {
            continue;
        }
        let fast = simulate(w, cfg, build_family(family, &instance, seed).unwrap());
        let slow = reference_simulate(w, cfg, build_family(family, &instance, seed).unwrap());
        assert_eq!(fast, slow, "family {family} diverged on{instance:?}");
    }
}

/// A seeded strategy that defers due cores, picks victims and drops
/// resident pages on a coin — the decisions the defer path meets. Both
/// engines call it in the same order on the same cache, so the coin falls
/// the same way on each. At most `defers` deferrals, so every run ends.
struct Coin {
    state: u64,
    defers: usize,
}

impl Coin {
    /// One of `0..n`, xorshift64*.
    fn flip(&mut self, n: usize) -> usize {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        (self.state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
    }
}

impl CacheStrategy for Coin {
    fn name(&self) -> String {
        "coin".into()
    }
    fn choose_cell(&mut self, _core: usize, _page: PageId, _time: Time, cache: &Cache) -> usize {
        let victims: Vec<usize> = cache.evictable_cells().map(|(cell, _, _)| cell).collect();
        cache
            .empty_cell()
            .unwrap_or_else(|| victims[self.flip(victims.len())])
    }
    fn voluntary_evictions(&mut self, _time: Time, cache: &Cache) -> Vec<usize> {
        let cells: Vec<usize> = cache.evictable_cells().map(|(cell, _, _)| cell).collect();
        cells.into_iter().filter(|_| self.flip(4) == 0).collect()
    }
    fn defers(&self) -> bool {
        true
    }
    fn defer(&mut self, _core: usize, _page: PageId, _time: Time, _cache: &Cache) -> bool {
        let defer = self.defers > 0 && self.flip(3) == 0;
        self.defers -= usize::from(defer);
        defer
    }
}

/// [`Coin`] on the production engine and the reference: equal results
/// and equal step traces.
fn assert_defer_paths_agree(w: &Workload, cfg: SimConfig, capacity: CapacitySchedule, seed: u64) {
    let coin = || Coin {
        state: seed | 1,
        defers: 2 * w.total_len(),
    };
    let fast = Simulator::with_capacity(w, cfg, capacity.clone(), coin())
        .and_then(|sim| sim.run_with_trace());
    let slow = reference_simulate_traced(w, cfg, capacity.clone(), coin());
    assert_eq!(
        fast, slow,
        "diverged under {capacity} on {w:?} K={} tau={}",
        cfg.cache_size, cfg.tau
    );
}

/// A capacity schedule from `steps` of `(gap, k above p)`, kept at or
/// above the core count.
fn schedule(k: usize, p: usize, steps: &[(Time, usize)]) -> CapacitySchedule {
    let mut t = 0;
    let steps = steps
        .iter()
        .map(|&(gap, above)| {
            t += gap;
            (t, p + above)
        })
        .collect();
    CapacitySchedule::new(k, steps).unwrap()
}

/// All four objectives: the naive oracle against the brute-force search
/// that runs on the production engine.
fn assert_objectives_agree(w: &Workload, cfg: SimConfig) {
    const CAP: usize = 3_000_000;
    if let Some(optima) = oracle_optima(w, cfg, CAP) {
        assert_eq!(brute_force_min_faults(w, cfg, CAP).unwrap(), optima.faults);
        assert_eq!(
            brute_force_min_makespan(w, cfg, CAP).unwrap(),
            optima.makespan
        );
        assert_eq!(
            brute_force_faults_then_makespan(w, cfg, CAP).unwrap(),
            optima.faults_then_makespan
        );
        assert_eq!(
            brute_force_makespan_then_faults(w, cfg, CAP).unwrap(),
            optima.makespan_then_faults
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn engines_agree_on_disjoint_workloads(
        w in small_disjoint(),
        extra in 0usize..4,
        tau in 0u64..4,
        seed in 0u64..u64::MAX,
    ) {
        assert_engines_agree(&w, w.num_cores() + extra, tau, seed);
    }

    #[test]
    fn engines_agree_on_overlapping_workloads(
        w in small_overlapping(),
        extra in 0usize..3,
        tau in 0u64..4,
        seed in 0u64..u64::MAX,
    ) {
        assert_engines_agree(&w, w.num_cores() + extra, tau, seed);
    }

    #[test]
    fn deferring_strategy_agrees_on_both_engines(
        w in small_overlapping(),
        extra in 0usize..3,
        tau in 0u64..4,
        seed in 0u64..u64::MAX,
        steps in prop::collection::vec((1u64..6, 0usize..4), 0..4),
    ) {
        let cfg = SimConfig::new(w.num_cores() + extra, tau);
        let p = w.num_cores();
        assert_defer_paths_agree(&w, cfg, CapacitySchedule::fixed(cfg.cache_size), seed);
        assert_defer_paths_agree(&w, cfg, schedule(cfg.cache_size, p, &steps), seed);
    }

    #[test]
    fn exhaustive_ftf_oracle_matches_dp(
        w in tiny_disjoint(),
        extra in 0usize..3,
        tau in 0u64..3,
    ) {
        if w.total_len() == 0 {
            return;
        }
        let cfg = SimConfig::new(w.num_cores() + extra, tau);
        if let Some(brute) = oracle_min_faults(&w, cfg, 3_000_000) {
            prop_assert_eq!(ftf_min_faults(&w, cfg).unwrap(), brute);
        }
    }

    #[test]
    fn objective_oracles_match_engine_search_on_disjoint(
        w in tiny_disjoint(),
        extra in 0usize..3,
        tau in 0u64..3,
    ) {
        assert_objectives_agree(&w, SimConfig::new(w.num_cores() + extra, tau));
    }

    #[test]
    fn objective_oracles_match_engine_search_on_overlapping(
        w in tiny_overlapping(),
        extra in 0usize..3,
        tau in 0u64..3,
    ) {
        assert_objectives_agree(&w, SimConfig::new(w.num_cores() + extra, tau));
    }

    #[test]
    fn exhaustive_pif_oracle_matches_dp(
        w in tiny_disjoint(),
        extra in 0usize..2,
        tau in 0u64..3,
        slack in 0u64..2,
    ) {
        if w.total_len() == 0 || w.total_len() > 6 {
            return;
        }
        let cfg = SimConfig::new(w.num_cores() + extra, tau);
        let lru = simulate(&w, cfg, shared_lru()).unwrap();
        let checkpoint = (lru.makespan / 2).max(1);
        // Around what S_LRU achieves: slack 0 may be infeasible, slack 1
        // always feasible — both directions must agree with the DP.
        let bounds: Vec<u64> = lru
            .fault_vector_at(checkpoint)
            .into_iter()
            .map(|b| (b + slack).saturating_sub(1))
            .collect();
        if let Some(brute) = oracle_pif_feasible(&w, cfg, checkpoint, &bounds, 3_000_000) {
            let dp = pif_decide(&w, cfg, checkpoint, &bounds, PifOptions::default()).unwrap();
            prop_assert_eq!(dp, brute, "checkpoint {} bounds {:?}", checkpoint, bounds);
        }
    }

    #[test]
    fn exhaustive_sched_oracle_matches_search(
        w in tiny_disjoint(),
        extra in 0usize..2,
        tau in 0u64..2,
    ) {
        if w.total_len() == 0 || w.total_len() > 5 {
            return;
        }
        let cfg = SimConfig::new(w.num_cores() + extra, tau);
        let horizon = (w.total_len() as u64 + 4) * (cfg.tau + 1) + 4;
        if let Some(brute) = oracle_sched_min_faults(&w, cfg, horizon, 3_000_000) {
            if let Ok(dp) = sched_min(&w, cfg, Objective::Faults, horizon, None, 3_000_000) {
                prop_assert_eq!(dp, brute);
            }
        }
    }
}
