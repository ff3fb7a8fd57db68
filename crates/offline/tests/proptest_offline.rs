//! Property tests of the offline algorithms: the DP, the brute-force
//! search and Theorem 5's restricted class must agree on arbitrary tiny
//! disjoint instances; miss curves must be monotone and ordered; PIF
//! feasibility must be monotone in its bounds and antitone in time.

use mcp_core::{simulate, PageId, SimConfig, Workload};
use mcp_offline::{
    belady_faults, brute_force_min_faults, fitf_restricted_min_faults, ftf_min_faults, lru_curve,
    opt_curve, optimal_static_partition, pif_decide, Dedup, PartPolicy, PifOptions, StateArena,
};
use mcp_policies::static_partition_belady;
use proptest::prelude::*;

fn tiny_disjoint() -> impl Strategy<Value = Workload> {
    prop::collection::vec(prop::collection::vec(0u32..2, 1..5), 2..=2).prop_map(|seqs| {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dp_brute_and_restricted_agree(
        w in tiny_disjoint(),
        k in 2usize..4,
        tau in 0u64..3,
    ) {
        let cfg = SimConfig::new(k, tau);
        let dp = ftf_min_faults(&w, cfg).unwrap();
        let brute = brute_force_min_faults(&w, cfg, 50_000_000).unwrap();
        prop_assert_eq!(dp, brute);
        let restricted = fitf_restricted_min_faults(&w, cfg, 50_000_000).unwrap();
        prop_assert_eq!(dp, restricted);
    }

    #[test]
    fn single_core_dp_is_belady_for_all_tau(
        seq in prop::collection::vec(0u32..4, 1..8),
        k in 1usize..4,
        tau in 0u64..4,
    ) {
        let pages: Vec<PageId> = seq.iter().map(|&v| PageId(v)).collect();
        let w = Workload::new(vec![pages.clone()]).unwrap();
        let dp = ftf_min_faults(&w, SimConfig::new(k, tau)).unwrap();
        prop_assert_eq!(dp, belady_faults(&pages, k));
    }

    #[test]
    fn curves_are_monotone_and_ordered(
        seq in prop::collection::vec(0u32..8, 1..60),
        k_max in 1usize..9,
    ) {
        let pages: Vec<PageId> = seq.iter().map(|&v| PageId(v)).collect();
        let lru = lru_curve(&pages, k_max);
        let opt = opt_curve(&pages, k_max);
        for window in lru.windows(2) {
            prop_assert!(window[0] >= window[1], "LRU inclusion property");
        }
        for window in opt.windows(2) {
            prop_assert!(window[0] >= window[1], "OPT monotone");
        }
        for (l, o) in lru.iter().zip(&opt) {
            prop_assert!(o <= l, "OPT never worse than LRU");
        }
        // At k >= universe both equal the cold-miss count.
        let distinct = pages.iter().collect::<std::collections::HashSet<_>>().len() as u64;
        if k_max >= pages.iter().collect::<std::collections::HashSet<_>>().len() {
            prop_assert_eq!(lru[k_max - 1], distinct);
            prop_assert_eq!(opt[k_max - 1], distinct);
        }
    }

    #[test]
    fn optimal_partition_beats_every_enumerated_partition(
        seq0 in prop::collection::vec(0u32..4, 1..20),
        seq1 in prop::collection::vec(100u32..105, 1..20),
        k in 2usize..6,
    ) {
        let w = Workload::new(vec![
            seq0.iter().map(|&v| PageId(v)).collect(),
            seq1.iter().map(|&v| PageId(v)).collect(),
        ]).unwrap();
        let best = optimal_static_partition(&w, k, PartPolicy::Opt);
        for k0 in 1..k {
            let part = mcp_policies::Partition::from_sizes(vec![k0, k - k0]);
            let r = simulate(&w, SimConfig::new(k, 1), static_partition_belady(part)).unwrap();
            prop_assert!(best.faults <= r.total_faults(),
                "claimed optimum {} beaten by [{}, {}] = {}", best.faults, k0, k - k0, r.total_faults());
        }
    }

    #[test]
    fn pif_monotone_in_bounds_and_antitone_in_time(
        w in tiny_disjoint(),
        tau in 0u64..2,
        b0 in 0u64..4,
        b1 in 0u64..4,
        t in 1u64..12,
    ) {
        let cfg = SimConfig::new(2, tau);
        let opts = PifOptions::default();
        let feasible = pif_decide(&w, cfg, t, &[b0, b1], opts).unwrap();
        if feasible {
            // Relaxing any bound keeps feasibility.
            prop_assert!(pif_decide(&w, cfg, t, &[b0 + 1, b1], opts).unwrap());
            prop_assert!(pif_decide(&w, cfg, t, &[b0, b1 + 1], opts).unwrap());
            // Earlier checkpoints are weaker constraints.
            prop_assert!(pif_decide(&w, cfg, t - 1, &[b0, b1], opts).unwrap());
        } else {
            // Later checkpoints can only stay infeasible.
            prop_assert!(!pif_decide(&w, cfg, t + 1, &[b0, b1], opts).unwrap());
        }
    }

    #[test]
    fn packed_keys_roundtrip_in_both_representations(
        cores in 1usize..=6,
        tau in 0u64..=4,
        n in 1u64..=20,
        states in prop::collection::vec((0u64..u64::MAX, prop::collection::vec(0u32..200, 6)), 1..40),
    ) {
        // max_pos mirrors the DP's end positions: n(τ+1) + 1.
        let max_pos = n * (tau + 1) + 1;
        for force_spill in [false, true] {
            let mut arena = StateArena::new(cores, max_pos, force_spill);
            let mut dedup = Dedup::new();
            for (cfg, pos) in &states {
                let positions: Vec<u32> = pos[..cores]
                    .iter()
                    .map(|&x| 1 + x % (max_pos as u32))
                    .collect();
                let pp = arena.pack(&positions);
                let (id, _) = dedup.intern(&mut arena, *cfg, &pp);
                // Encode → intern → decode must reproduce the key exactly.
                prop_assert_eq!(
                    arena.key(id),
                    (*cfg, positions.clone().into_boxed_slice()),
                    "roundtrip (spill={})", force_spill
                );
                prop_assert_eq!(
                    arena.pos_sum(id),
                    positions.iter().map(|&x| u64::from(x)).sum::<u64>()
                );
            }
        }
    }

    #[test]
    fn packed_canonical_order_matches_state_key_order(
        cores in 1usize..=6,
        tau in 0u64..=4,
        n in 1u64..=20,
        states in prop::collection::vec((0u64..64, prop::collection::vec(0u32..200, 6)), 2..30),
    ) {
        // The packed engine must sort states exactly as the unpacked
        // (mask, positions) lexicographic StateKey order did.
        let max_pos = n * (tau + 1) + 1;
        for force_spill in [false, true] {
            let mut arena = StateArena::new(cores, max_pos, force_spill);
            let mut dedup = Dedup::new();
            let mut ids = Vec::new();
            for (cfg, pos) in &states {
                let positions: Vec<u32> = pos[..cores]
                    .iter()
                    .map(|&x| 1 + x % (max_pos as u32))
                    .collect();
                let pp = arena.pack(&positions);
                ids.push(dedup.intern(&mut arena, *cfg, &pp).0);
            }
            ids.sort_unstable();
            ids.dedup();
            let mut by_engine = ids.clone();
            arena.sort_ids(&mut by_engine);
            let mut by_key = ids.clone();
            by_key.sort_by_key(|&id| arena.key(id));
            prop_assert_eq!(by_engine, by_key, "order diverged (spill={})", force_spill);
        }
    }

    #[test]
    fn ftf_optimum_within_model_bounds(
        w in tiny_disjoint(),
        k in 2usize..4,
        tau in 0u64..3,
    ) {
        let opt = ftf_min_faults(&w, SimConfig::new(k, tau)).unwrap();
        prop_assert!(opt >= w.universe_size() as u64, "cold misses are unavoidable");
        prop_assert!(opt <= w.total_len() as u64);
    }
}
