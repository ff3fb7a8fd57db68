//! Property tests of the differential layer itself: on arbitrary small
//! workloads — disjoint and overlapping — the optimized engine and the
//! naive reference engine must agree for every strategy family, and the
//! exhaustive offline oracles must agree with the dynamic programs and
//! the engine-driven brute-force searches.

use mcp_core::{simulate, PageId, SimConfig, Workload};
use mcp_offline::{
    brute_force_faults_then_makespan, brute_force_makespan_then_faults, brute_force_min_faults,
    brute_force_min_makespan, ftf_min_faults, pif_decide, sched_min, Objective, PifOptions,
};
use mcp_oracle::{build_family, instance::family_applicable, Instance, FAMILIES};
use mcp_oracle::{
    oracle_faults_then_makespan, oracle_makespan_then_faults, oracle_min_faults,
    oracle_min_makespan, oracle_pif_feasible, oracle_sched_min_faults, reference_simulate,
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

/// All four objectives: the naive oracle against the brute-force search
/// that runs on the production engine.
fn assert_objectives_agree(w: &Workload, cfg: SimConfig) {
    const CAP: usize = 3_000_000;
    if let Some(f) = oracle_min_faults(w, cfg, CAP) {
        assert_eq!(brute_force_min_faults(w, cfg, CAP).unwrap(), f);
    }
    if let Some(m) = oracle_min_makespan(w, cfg, CAP) {
        assert_eq!(brute_force_min_makespan(w, cfg, CAP).unwrap(), m);
    }
    if let Some(fm) = oracle_faults_then_makespan(w, cfg, CAP) {
        assert_eq!(brute_force_faults_then_makespan(w, cfg, CAP).unwrap(), fm);
    }
    if let Some(mf) = oracle_makespan_then_faults(w, cfg, CAP) {
        assert_eq!(brute_force_makespan_then_faults(w, cfg, CAP).unwrap(), mf);
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
