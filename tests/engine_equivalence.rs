//! Property test: the event engine and the oracle crate's naive
//! tick-by-tick reference are bit-identical — full `SimResult` *and*
//! step-trace equality — across every registered strategy family,
//! τ ∈ {0, 1, large}, and both disjoint and non-disjoint workloads.
//!
//! This is the blanket guarantee behind the hot loop: whatever a policy
//! does (voluntary evictions, randomized tie-breaks, per-core partitions,
//! offline sacrifice schedules), the discrete-event scheduler must serve
//! exactly the same timesteps in exactly the same within-step order as a
//! literal transcription of the model.

use multicore_paging::oracle::{
    build_family, family_applicable, reference_simulate_traced, Instance, FAMILIES,
};
use multicore_paging::workloads::staggered_thrash;
use multicore_paging::{CapacitySchedule, PageId, SimConfig, Simulator, Workload};
use proptest::prelude::*;

/// Raw per-core sequences over a small shared universe, offset into
/// private per-core ranges when `disjoint` is demanded.
fn build_workload(raw: &[Vec<u32>], disjoint: bool) -> Workload {
    let offset = if disjoint { 100 } else { 0 };
    Workload::new(
        raw.iter()
            .enumerate()
            .map(|(core, s)| {
                s.iter()
                    .map(|&v| PageId(core as u32 * offset + v))
                    .collect()
            })
            .collect(),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn event_engine_is_bit_identical_to_reference(
        raw in prop::collection::vec(prop::collection::vec(0u32..8, 0..14), 1..=3),
        family_idx in 0usize..FAMILIES.len(),
        extra_k in 0usize..3,
        tau_tier in 0u64..3,
        tau_large in 64u64..300,
        disjoint_sel in 0u32..2,
        seed in 0u64..1_000_000,
    ) {
        // τ tiers: dense (0), unit (1), and large (the skip regime).
        let tau = match tau_tier {
            0 => 0,
            1 => 1,
            _ => tau_large,
        };
        let disjoint = disjoint_sel == 1;
        let family = FAMILIES[family_idx];
        let cores = raw.len();
        let cfg = SimConfig::new(cores + extra_k, tau);
        let mut instance = Instance::new(build_workload(&raw, disjoint), cfg);
        if !family_applicable(family, &instance) {
            // The offline sacrifice construction assumes disjoint
            // sequences; test it on the disjoint variant instead of
            // discarding the case.
            instance = Instance::new(build_workload(&raw, true), cfg);
        }
        let mk = || build_family(family, &instance, seed).expect("registered family");

        let (event_result, event_trace) = Simulator::new(&instance.workload, cfg, mk())
            .unwrap()
            .run_with_trace()
            .unwrap();
        let (ref_result, ref_trace) = reference_simulate_traced(
            &instance.workload,
            cfg,
            CapacitySchedule::fixed(cfg.cache_size),
            mk(),
        )
        .unwrap();

        prop_assert_eq!(&event_result, &ref_result, "family {}", family);
        prop_assert_eq!(&event_trace, &ref_trace, "family {}", family);

        // Trace sanity: every request is served exactly once, in step-time
        // order, with cores ascending within each step.
        let served: usize = event_trace.iter().map(|s| s.served.len()).sum();
        prop_assert_eq!(served, instance.workload.total_len());
        prop_assert!(event_trace.windows(2).all(|w| w[0].time < w[1].time));
        for step in &event_trace {
            prop_assert!(step.served.windows(2).all(|s| s[0].core < s[1].core));
        }
    }
}

/// The point of the event engine: on sparse large-τ workloads the number
/// of served steps is a small fraction of the makespan, and it still
/// agrees exactly with the reference, which walks every tick.
#[test]
fn skip_path_serves_few_steps_and_stays_identical() {
    let w = staggered_thrash(8, 50, 10, 8, 3);
    let cfg = SimConfig::new(2 * 8, 127);
    let mk = || build_family("lru", &Instance::new(w.clone(), cfg), 0).unwrap();
    let (event_result, event_trace) = Simulator::new(&w, cfg, mk())
        .unwrap()
        .run_with_trace()
        .unwrap();
    let (ref_result, ref_trace) =
        reference_simulate_traced(&w, cfg, CapacitySchedule::fixed(cfg.cache_size), mk()).unwrap();
    assert_eq!(event_result, ref_result);
    assert_eq!(event_trace, ref_trace);
    assert!(
        (event_trace.len() as u64) * 10 < event_result.makespan,
        "{} steps over a makespan of {} — the workload is not sparse",
        event_trace.len(),
        event_result.makespan
    );
}
