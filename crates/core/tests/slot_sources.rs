//! The engine's two slot sources give one behaviour.
//!
//! An offline run (`Simulator` over a borrowed workload) takes each
//! request's cache slot from the workload's dense page ids; the
//! incremental engine (`OnlineSimulator`) and the naive reference intern
//! pages as they meet them. Pages here carry large scrambled labels, so
//! neither a page id nor an interned slot equals a page number, and the
//! three engines must agree for every family on random shared and
//! disjoint workloads at τ ∈ 0..3, with and without a capacity schedule
//! `K(t)`. Relabelling the pages by a bijection must not change a result,
//! and a schedule replayed through the page-keyed `Cache` methods on an
//! offline cache must reproduce its run.

use mcp_core::{
    Cache, CacheStrategy, CapacitySchedule, Lookup, OnlineSimulator, Outcome, PageId, SimConfig,
    SimResult, Simulator, StepReport, Time, Workload,
};
use mcp_oracle::reference_simulate_traced;
use mcp_policies::{
    build_family, family_applicable, Replay, ReplayDecision, FAMILIES, OFFLINE_ONLY,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

/// The bijection `v ↦ v · mul + add` of `u32` (`mul` odd).
fn relabel(w: &Workload, mul: u32, add: u32) -> Workload {
    let mul = mul | 1;
    Workload::new(
        w.sequences()
            .iter()
            .map(|seq| {
                seq.iter()
                    .map(|p| PageId(p.0.wrapping_mul(mul).wrapping_add(add)))
                    .collect()
            })
            .collect(),
    )
    .unwrap()
}

/// Per-core draws from `0..5`, shifted into per-core namespaces when
/// `disjoint`, then scrambled.
fn workload(seqs: Vec<Vec<u32>>, disjoint: bool, mul: u32, add: u32) -> Workload {
    let seqs = seqs
        .into_iter()
        .enumerate()
        .map(|(core, s)| {
            let shift = if disjoint { core as u32 * 100 } else { 0 };
            s.into_iter().map(|v| shift + v).collect::<Vec<u32>>()
        })
        .collect::<Vec<_>>();
    relabel(&Workload::from_u32(seqs).unwrap(), mul, add)
}

/// Fixed `K`, or a schedule from `steps` of `(gap, k above p)`.
fn capacity(k: usize, p: usize, steps: &[(Time, usize)]) -> CapacitySchedule {
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

/// Stream `w` into an `OnlineSimulator`, `chunk` requests per core per
/// round with an `advance` after each round, then close and drain.
fn run_online<S: CacheStrategy>(
    w: &Workload,
    cfg: SimConfig,
    capacity: CapacitySchedule,
    strategy: S,
    chunk: usize,
) -> SimResult {
    let mut engine =
        OnlineSimulator::with_capacity(w.num_cores(), cfg, capacity, strategy).unwrap();
    let mut cursor = vec![0; w.num_cores()];
    while (0..w.num_cores()).any(|c| cursor[c] < w.len(c)) {
        for (core, at) in cursor.iter_mut().enumerate() {
            for &page in w.sequence(core)[*at..].iter().take(chunk) {
                engine.push(core, page).unwrap();
                *at += 1;
            }
        }
        engine.advance().unwrap();
    }
    engine.close_all();
    engine.advance().unwrap();
    assert!(engine.finished());
    engine.finish().0
}

/// Every family on the offline engine (dense ids) against the naive
/// reference (interning), full traces included, and the online-safe
/// families also streamed through `OnlineSimulator` (interning).
fn check_families(w: &Workload, cfg: SimConfig, capacity: &CapacitySchedule, chunk: usize) {
    for family in FAMILIES {
        if !family_applicable(family, w) {
            continue;
        }
        let make = || build_family(family, w, cfg, 7).unwrap();
        let offline = Simulator::with_capacity(w, cfg, capacity.clone(), make())
            .and_then(|sim| sim.run_with_trace())
            .unwrap();
        let reference = reference_simulate_traced(w, cfg, capacity.clone(), make()).unwrap();
        assert_eq!(offline, reference, "{family}: offline ≠ reference on {w:?}");
        if !OFFLINE_ONLY.contains(family) {
            let online = run_online(w, cfg, capacity.clone(), make(), chunk);
            assert_eq!(offline.0, online, "{family}: offline ≠ online on {w:?}");
        }
    }
}

/// `w` with its pages renumbered in the same order, by random gaps.
fn relabel_in_order(w: &Workload, seed: u32) -> Workload {
    let mut next = 0u32;
    let labels: HashMap<PageId, u32> = w
        .universe()
        .into_iter()
        .enumerate()
        .map(|(i, page)| {
            next += 1 + (seed ^ (i as u32).wrapping_mul(0x9E37_79B9)) % 1000;
            (page, next)
        })
        .collect();
    Workload::new(
        w.sequences()
            .iter()
            .map(|seq| seq.iter().map(|p| PageId(labels[p])).collect())
            .collect(),
    )
    .unwrap()
}

/// Every family's result on `w` and on two relabellings: one that keeps
/// the pages' order, for every family, and a scrambling one for every
/// family but `partition-opt`, whose per-part Belady breaks ties between
/// pages its core never requests again by page number, so on shared
/// workloads the order of the labels is part of its input.
fn check_relabelled(w: &Workload, cfg: SimConfig, capacity: &CapacitySchedule, mul: u32) {
    let in_order = relabel_in_order(w, mul);
    let scrambled = relabel(w, mul, mul.rotate_left(16));
    for family in FAMILIES {
        if !family_applicable(family, w) {
            continue;
        }
        let run = |w: &Workload| {
            let strategy = build_family(family, w, cfg, 7).unwrap();
            Simulator::with_capacity(w, cfg, capacity.clone(), strategy)
                .and_then(|sim| sim.run())
                .unwrap()
        };
        let result = run(w);
        assert_eq!(
            result,
            run(&in_order),
            "{family}: relabelling changed the result on {w:?}"
        );
        if *family != "partition-opt" {
            assert_eq!(
                result,
                run(&scrambled),
                "{family}: relabelling changed the result on {w:?}"
            );
        }
    }
}

/// A legal schedule driven by `seed`: voluntary evictions at some steps,
/// seeded victims on faults. At every decision it also checks the
/// page-keyed `Cache` methods against a scan of the cells.
struct Seeded {
    seed: u64,
    draws: u64,
    pages: Vec<PageId>,
}

impl Seeded {
    fn draw(&mut self) -> u64 {
        self.draws += 1;
        let mut x = self.seed ^ self.draws.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 29;
        x.wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 32
    }

    fn check_page_keyed(&self, cache: &Cache) {
        for &page in &self.pages {
            let scan = (0..cache.len()).find(|&c| cache.cell(c).page() == Some(page));
            assert_eq!(cache.cell_of(page), scan, "cell_of {page}");
            let want = match scan.map(|c| (c, cache.cell(c))) {
                None => Lookup::Absent,
                Some((cell, mcp_core::CellState::Present(_))) => Lookup::Present { cell },
                Some((cell, mcp_core::CellState::Fetching { ready_at, .. })) => {
                    Lookup::Fetching { cell, ready_at }
                }
                Some((_, mcp_core::CellState::Empty)) => {
                    unreachable!("an empty cell holds no page")
                }
            };
            assert_eq!(cache.lookup(page), want, "lookup {page}");
            let evictable = matches!(want, Lookup::Present { cell } if !cache.is_pinned(cell));
            assert_eq!(
                cache.is_evictable_page(page),
                evictable,
                "is_evictable_page {page}"
            );
        }
        cache.debug_validate().unwrap();
    }
}

impl CacheStrategy for Seeded {
    fn name(&self) -> String {
        "Seeded".into()
    }
    fn voluntary_evictions(&mut self, _time: Time, cache: &Cache) -> Vec<usize> {
        self.check_page_keyed(cache);
        let victims: Vec<usize> = cache.victims().iter().collect();
        if victims.is_empty() || !self.draw().is_multiple_of(3) {
            return Vec::new();
        }
        vec![victims[self.draw() as usize % victims.len()]]
    }
    fn choose_cell(&mut self, _core: usize, _page: PageId, _time: Time, cache: &Cache) -> usize {
        self.check_page_keyed(cache);
        if let Some(cell) = cache.empty_cell() {
            return cell;
        }
        let victims: Vec<usize> = cache.victims().iter().collect();
        victims[self.draw() as usize % victims.len()]
    }
}

/// `Replay` decisions and voluntary evictions that reproduce `trace`.
fn replay_of(trace: &[StepReport]) -> Replay {
    let mut decisions = HashMap::new();
    let mut voluntary: BTreeMap<Time, Vec<PageId>> = BTreeMap::new();
    for step in trace {
        for &(_, page) in &step.voluntary {
            voluntary.entry(step.time).or_default().push(page);
        }
        for served in &step.served {
            if let Outcome::Fault { evicted, .. } = served.outcome {
                let decision = evicted.map_or(ReplayDecision::UseEmpty, ReplayDecision::Evict);
                decisions.insert((served.core, served.index), decision);
            }
        }
    }
    Replay::new(decisions).with_voluntary(voluntary)
}

/// A seeded schedule on the offline engine, replayed there: `Replay`
/// finds every victim and voluntary eviction by page (`Cache::cell_of`).
fn check_replay(w: &Workload, cfg: SimConfig, seed: u64) {
    let seeded = Seeded {
        seed,
        draws: 0,
        pages: w.universe(),
    };
    let (result, trace) = Simulator::new(w, cfg, seeded)
        .and_then(|sim| sim.run_with_trace())
        .unwrap();
    let replayed = Simulator::new(w, cfg, replay_of(&trace))
        .and_then(|sim| sim.run_with_trace())
        .unwrap();
    // Shrink evictions would replay as voluntary ones, so fixed K only.
    assert_eq!(replayed.0, result, "replayed result on {w:?}");
    assert_eq!(replayed.1, trace, "replayed trace on {w:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn offline_ids_online_and_reference_interning_agree(
        seqs in prop::collection::vec(prop::collection::vec(0u32..5, 0..14), 1..=3),
        disjoint in 0u8..2,
        extra in 0usize..4,
        tau in 0u64..3,
        steps in prop::collection::vec((1u64..6, 0usize..4), 0..3),
        chunk in 1usize..4,
        mul in 0u32..u32::MAX,
        add in 0u32..u32::MAX,
    ) {
        let w = workload(seqs, disjoint == 1, mul, add);
        let k = w.num_cores() + extra;
        let cfg = SimConfig::new(k, tau);
        check_families(&w, cfg, &capacity(k, w.num_cores(), &[]), chunk);
        check_families(&w, cfg, &capacity(k, w.num_cores(), &steps), chunk);
    }

    #[test]
    fn relabelling_pages_leaves_every_result_alone(
        seqs in prop::collection::vec(prop::collection::vec(0u32..5, 0..14), 1..=3),
        disjoint in 0u8..2,
        extra in 0usize..4,
        tau in 0u64..3,
        steps in prop::collection::vec((1u64..6, 0usize..4), 0..3),
        mul in 0u32..u32::MAX,
        add in 0u32..u32::MAX,
    ) {
        let w = workload(seqs, disjoint == 1, mul, add);
        let k = w.num_cores() + extra;
        let cfg = SimConfig::new(k, tau);
        check_relabelled(&w, cfg, &capacity(k, w.num_cores(), &[]), mul);
        check_relabelled(&w, cfg, &capacity(k, w.num_cores(), &steps), mul);
    }

    #[test]
    fn replay_resolves_pages_on_an_offline_cache(
        seqs in prop::collection::vec(prop::collection::vec(0u32..5, 0..14), 1..=3),
        disjoint in 0u8..2,
        extra in 0usize..4,
        tau in 0u64..3,
        mul in 0u32..u32::MAX,
        add in 0u32..u32::MAX,
        seed in 0u64..u64::MAX,
    ) {
        let w = workload(seqs, disjoint == 1, mul, add);
        let cfg = SimConfig::new(w.num_cores() + extra, tau);
        check_replay(&w, cfg, seed);
    }
}
