//! Property tests of [`CapacitySchedule`] itself: the CLI `SPEC` grammar
//! round-trips through `Display`/`parse`, `k_at` honors the
//! effective-at-its-time boundary semantics, and every engine rejects a
//! schedule that dips below one page per open core with the typed
//! [`ModelError::CapacityBelowCores`].

use mcp_core::online::OnlineSimulator;
use mcp_core::{
    simulate_with_capacity, Cache, CacheStrategy, CapacitySchedule, ModelError, PageId, SimConfig,
    SimError, Time, Workload,
};
use proptest::prelude::*;

/// Arbitrary canonical schedules: an initial capacity plus step deltas
/// with strictly increasing times. `CapacitySchedule::new` drops no-op
/// steps, so the constructed value is canonical by definition.
fn arb_schedule() -> impl Strategy<Value = CapacitySchedule> {
    (
        1usize..12,
        prop::collection::vec((1u64..6, 1usize..12), 0..5),
    )
        .prop_map(|(initial, deltas)| {
            let mut t: Time = 0;
            let steps: Vec<(Time, usize)> = deltas
                .into_iter()
                .map(|(dt, k)| {
                    t += dt;
                    (t, k)
                })
                .collect();
            CapacitySchedule::new(initial, steps).unwrap()
        })
}

/// A minimal legal strategy: first empty cell, else first evictable.
struct FirstFit;

impl CacheStrategy for FirstFit {
    fn name(&self) -> String {
        "FirstFit".into()
    }
    fn choose_cell(&mut self, _c: usize, _p: PageId, _t: Time, cache: &Cache) -> usize {
        cache
            .empty_cell()
            .or_else(|| cache.evictable_cells().map(|(i, _, _)| i).next())
            .expect("a legal cell exists")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn display_parse_round_trips(schedule in arb_schedule()) {
        let text = schedule.to_string();
        let back: CapacitySchedule = text.parse().unwrap();
        prop_assert_eq!(&back, &schedule, "{} did not round-trip", text);
        // And the canonical form is a fixed point of the round-trip.
        prop_assert_eq!(back.to_string(), text);
    }

    #[test]
    fn k_at_honors_step_boundaries(schedule in arb_schedule(), probe in 0u64..40) {
        // Walk the piecewise definition by hand: a step takes effect AT
        // its time and holds until the next one.
        let mut expected = schedule.initial_k();
        for &(time, k) in schedule.changes() {
            if time <= probe {
                expected = k;
            }
        }
        prop_assert_eq!(schedule.k_at(probe), expected);
        // Exact boundary semantics at every change point.
        for &(time, k) in schedule.changes() {
            prop_assert_eq!(schedule.k_at(time), k, "effective at its own tick");
            let before = schedule
                .changes()
                .iter()
                .take_while(|(t, _)| *t < time)
                .last()
                .map(|&(_, k)| k)
                .unwrap_or(schedule.initial_k());
            prop_assert_eq!(schedule.k_at(time - 1), before, "previous value holds at t-1");
        }
        prop_assert!(schedule.min_k() <= schedule.k_at(probe));
        prop_assert!(schedule.k_at(probe) <= schedule.max_k());
    }

    #[test]
    fn every_engine_rejects_capacity_below_cores(
        cores in 2usize..4,
        dip_raw in 1usize..4,
        at in 1u64..6,
    ) {
        let dip = dip_raw.min(cores - 1);
        let k = cores + 1;
        let schedule = CapacitySchedule::new(k, vec![(at, dip)]).unwrap();
        let w = Workload::new(
            (0..cores).map(|c| vec![PageId(c as u32); 3]).collect::<Vec<_>>(),
        )
        .unwrap();
        let cfg = SimConfig::new(k, 1);
        let expected = SimError::Model(ModelError::CapacityBelowCores { min_k: dip, cores });
        prop_assert_eq!(
            simulate_with_capacity(&w, cfg, schedule.clone(), FirstFit).unwrap_err(),
            expected.clone()
        );
        prop_assert_eq!(
            OnlineSimulator::with_capacity(cores, cfg, schedule, FirstFit)
                .err()
                .expect("online engine must reject too"),
            expected
        );
    }

    #[test]
    fn malformed_specs_are_typed_errors_not_panics(
        chars in prop::collection::vec(0usize..10, 0..12),
    ) {
        const CHARSET: [char; 10] = ['0', '1', '7', '9', '@', ',', ' ', 'x', 'k', '-'];
        let text: String = chars.into_iter().map(|i| CHARSET[i]).collect();
        // Whatever the outcome, parsing must be total: either a schedule
        // that round-trips or a CapacityError.
        if let Ok(schedule) = text.parse::<CapacitySchedule>() {
            let canon = schedule.to_string();
            prop_assert_eq!(canon.parse::<CapacitySchedule>().unwrap(), schedule);
        }
    }
}
