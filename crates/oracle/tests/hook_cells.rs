//! Every engine hands `on_hit` and `on_shared_fetch_miss` the cell the
//! request's page occupies.
//!
//! Strategies take that cell as given and never re-probe the cache for
//! it, so a wrong cell would silently corrupt their recency or frequency
//! state. [`CellCheck`] wraps a strategy and asserts
//! `cache.cell_of(page) == Some(cell)` at every such call; the suites
//! below run it under the event engine, `OnlineSimulator` and the naive
//! reference, on random disjoint and shared workloads at τ ∈ {0..3},
//! with and without a capacity schedule `K(t)`.

use mcp_core::{
    Cache, CacheStrategy, CapacitySchedule, OnlineSimulator, PageId, SimConfig, SimResult,
    Simulator, Time, Workload,
};
use mcp_oracle::reference_simulate_with_capacity;
use mcp_policies::{
    build_family, family_applicable, Lru, Partition, StagedPartition, FAMILIES, OFFLINE_ONLY,
};
use proptest::prelude::*;

/// Forwards every hook to `inner`, checking the cell handed to the two
/// lookup hooks against the cache's own page map.
struct CellCheck<S> {
    inner: S,
    hits: u64,
    shared_misses: u64,
}

impl<S> CellCheck<S> {
    fn new(inner: S) -> Self {
        CellCheck {
            inner,
            hits: 0,
            shared_misses: 0,
        }
    }
}

/// The check itself: `cell` is where `page` sits in `cache`.
fn assert_resolved(hook: &str, cache: &Cache, core: usize, page: PageId, time: Time, cell: usize) {
    assert_eq!(
        cache.cell_of(page),
        Some(cell),
        "{hook}: core {core}, page {page}, t={time}"
    );
}

impl<S: CacheStrategy> CacheStrategy for CellCheck<S> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn begin(&mut self, workload: &Workload, cfg: &SimConfig) {
        self.inner.begin(workload, cfg)
    }
    fn on_hit(&mut self, core: usize, page: PageId, time: Time, cell: usize, cache: &Cache) {
        assert_resolved("on_hit", cache, core, page, time, cell);
        self.hits += 1;
        self.inner.on_hit(core, page, time, cell, cache)
    }
    fn choose_cell(&mut self, core: usize, page: PageId, time: Time, cache: &Cache) -> usize {
        self.inner.choose_cell(core, page, time, cache)
    }
    fn on_fault(&mut self, core: usize, page: PageId, time: Time, cell: usize, cache: &Cache) {
        self.inner.on_fault(core, page, time, cell, cache)
    }
    fn on_evict(&mut self, page: PageId, cell: usize) {
        self.inner.on_evict(page, cell)
    }
    fn on_shared_fetch_miss(
        &mut self,
        core: usize,
        page: PageId,
        time: Time,
        cell: usize,
        cache: &Cache,
    ) {
        assert_resolved("on_shared_fetch_miss", cache, core, page, time, cell);
        self.shared_misses += 1;
        self.inner
            .on_shared_fetch_miss(core, page, time, cell, cache)
    }
    fn voluntary_evictions(&mut self, time: Time, cache: &Cache) -> Vec<usize> {
        self.inner.voluntary_evictions(time, cache)
    }
    fn on_capacity_change(&mut self, time: Time, new_k: usize, cache: &Cache) {
        self.inner.on_capacity_change(time, new_k, cache)
    }
    fn shrink_victims(&mut self, need: usize, time: Time, cache: &Cache) -> Vec<usize> {
        self.inner.shrink_victims(need, time, cache)
    }
    fn next_voluntary_time(&self) -> Option<Time> {
        self.inner.next_voluntary_time()
    }
    fn defers(&self) -> bool {
        self.inner.defers()
    }
    fn defer(&mut self, core: usize, page: PageId, time: Time, cache: &Cache) -> bool {
        self.inner.defer(core, page, time, cache)
    }
}

/// How often each hook was checked, summed over engines.
#[derive(Default)]
struct Checked {
    hits: u64,
    shared_misses: u64,
}

impl Checked {
    fn add<S>(&mut self, run: &CellCheck<S>) {
        self.hits += run.hits;
        self.shared_misses += run.shared_misses;
    }
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

/// Run `make()` under all three engines, checking every hook's cell, and
/// require the three results to agree.
fn check_engines<S: CacheStrategy>(
    w: &Workload,
    cfg: SimConfig,
    capacity: &CapacitySchedule,
    online: bool,
    chunk: usize,
    make: impl Fn() -> S,
    checked: &mut Checked,
) {
    let mut event = CellCheck::new(make());
    let fast = Simulator::with_capacity(w, cfg, capacity.clone(), &mut event)
        .and_then(|sim| sim.run())
        .unwrap();
    checked.add(&event);
    let mut reference = CellCheck::new(make());
    let slow = reference_simulate_with_capacity(w, cfg, capacity.clone(), &mut reference).unwrap();
    checked.add(&reference);
    assert_eq!(fast, slow, "event and reference diverged on {w:?}");
    if online {
        let mut run = CellCheck::new(make());
        let streamed = run_online(w, cfg, capacity.clone(), &mut run, chunk);
        checked.add(&run);
        assert_eq!(fast, streamed, "event and online diverged on {w:?}");
    }
}

/// Every registered family on all three engines, plus a two-stage
/// dynamic partition, which on shared workloads must borrow a cell when a
/// shared page pins a whole part.
fn check_all(
    w: &Workload,
    cfg: SimConfig,
    capacity: &CapacitySchedule,
    chunk: usize,
    seed: u64,
) -> Checked {
    let mut checked = Checked::default();
    for family in FAMILIES {
        if !family_applicable(family, w) {
            continue;
        }
        let online = !OFFLINE_ONLY.contains(family);
        let make = || build_family(family, w, cfg, seed).unwrap();
        check_engines(w, cfg, capacity, online, chunk, make, &mut checked);
    }
    let p = w.num_cores();
    let staged = || {
        let mut skewed = vec![1; p];
        skewed[0] = cfg.cache_size - (p - 1);
        StagedPartition::uniform(
            vec![
                (1, Partition::equal(cfg.cache_size, p)),
                (6, Partition::from_sizes(skewed)),
            ],
            Lru::new,
        )
    };
    check_engines(w, cfg, capacity, true, chunk, staged, &mut checked);
    checked
}

/// Small disjoint workloads: per-core pages live in per-core namespaces.
fn disjoint() -> impl Strategy<Value = Workload> {
    prop::collection::vec(prop::collection::vec(0u32..5, 0..14), 1..=3).prop_map(|seqs| {
        let shifted: Vec<Vec<u32>> = seqs
            .into_iter()
            .enumerate()
            .map(|(core, s)| s.into_iter().map(|v| core as u32 * 100 + v).collect())
            .collect();
        Workload::from_u32(shifted).unwrap()
    })
}

/// Small shared workloads: every core draws from one tiny universe, so
/// shared hits and shared-fetch misses are common.
fn shared() -> impl Strategy<Value = Workload> {
    prop::collection::vec(prop::collection::vec(0u32..5, 1..14), 2..=3)
        .prop_map(|seqs| Workload::from_u32(seqs).unwrap())
}

/// Fixed `K`, or a schedule from `steps` of `(gap, k above p)`, kept at
/// or above the core count.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hooks_get_the_resolved_cell_on_disjoint_workloads(
        w in disjoint(),
        extra in 0usize..4,
        tau in 0u64..4,
        steps in prop::collection::vec((1u64..6, 0usize..4), 0..3),
        chunk in 1usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let k = w.num_cores() + extra;
        let cfg = SimConfig::new(k, tau);
        check_all(&w, cfg, &capacity(k, w.num_cores(), &[]), chunk, seed);
        check_all(&w, cfg, &capacity(k, w.num_cores(), &steps), chunk, seed);
    }

    #[test]
    fn hooks_get_the_resolved_cell_on_shared_workloads(
        w in shared(),
        extra in 0usize..4,
        tau in 0u64..4,
        steps in prop::collection::vec((1u64..6, 0usize..4), 0..3),
        chunk in 1usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let k = w.num_cores() + extra;
        let cfg = SimConfig::new(k, tau);
        check_all(&w, cfg, &capacity(k, w.num_cores(), &[]), chunk, seed);
        check_all(&w, cfg, &capacity(k, w.num_cores(), &steps), chunk, seed);
    }
}

/// The checks above are only as strong as the hooks they reach: on a
/// fixed shared workload every engine must call both hooks, with the
/// recency families reading the cell they are handed.
#[test]
fn every_engine_reaches_both_hooks() {
    // Cores 1 and 2 request page 1 while core 0's fetch of it is in
    // flight; later requests hit pages that sit in different cells.
    let w = Workload::from_u32([
        vec![1, 2, 3, 1, 2, 3, 4, 1],
        vec![9, 1, 2, 3, 2, 1, 4, 3],
        vec![8, 8, 1, 3, 2, 4, 1, 2],
    ])
    .unwrap();
    for tau in 1..4 {
        let cfg = SimConfig::new(5, tau);
        for cap in [capacity(5, 3, &[]), capacity(5, 3, &[(4, 0), (5, 2)])] {
            let checked = check_all(&w, cfg, &cap, 2, 7);
            assert!(checked.hits > 0, "no hit checked at tau={tau} under {cap}");
            assert!(
                checked.shared_misses > 0,
                "no shared-fetch miss checked at tau={tau} under {cap}"
            );
        }
    }
}
