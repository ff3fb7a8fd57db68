//! The naive reference engine: the paper's Section 3 model transcribed
//! as literally as possible, optimized for obviousness instead of speed.
//!
//! Where `mcp-core`'s engine fast-forwards between events, keeps a free-cell
//! bitset, an in-flight list and a pin dirty-list, this one walks time one
//! tick at a time (`t = 1, 2, 3, …`), re-derives the set of due cores by
//! scanning every core at every tick, and keeps a plain
//! `HashMap<PageId, ShadowSlot>` picture of the cache that it clones and
//! re-checks against the real [`Cache`] after every served step. Every
//! shortcut the optimized engine takes is one this engine deliberately does
//! not, so any bookkeeping bug on the fast path shows up as a divergence in
//! fault counts, fault times or makespan — or as a shadow-model assertion.
//!
//! The model rules being transcribed (Section 3 of the paper, as pinned
//! down in `mcp_core::sim`):
//!
//! 1. Core `j`'s first request issues at `t = 1`.
//! 2. Every core whose next request is due at `t` is served at `t`, in
//!    increasing core order; later cores observe the cache effects of
//!    earlier ones.
//! 3. A hit completes at `t`; the next request of that core issues at
//!    `t + 1`.
//! 4. A miss evicts its victim immediately, reserves the cell for the
//!    fetch (unusable and unevictable until done), completes at `t + τ`,
//!    and the core's next request issues at `t + τ + 1`.
//! 5. A request for a page mid-fetch for *another* core is a fault for the
//!    requester (delay `τ`) but allocates no second cell.
//! 6. All pages requested in a parallel step are pinned before the
//!    strategy's voluntary evictions run (`R(x) ⊆ C'` in Algorithms 1/2).
//! 7. A quiet tick (no request due) is served only when the strategy
//!    declares it via [`CacheStrategy::next_voluntary_time`]; otherwise
//!    nothing can change and the tick is skipped.
//! 8. A strategy that declares [`CacheStrategy::defers`] may stall any
//!    due core for one tick (the offline stall model only): the core is
//!    asked about in core order before the pins of rule 6, is then neither
//!    served nor pinned, and issues the same request again at `t + 1`.

use mcp_core::{
    Cache, CacheError, CacheStrategy, CapacitySchedule, CellState, Lookup, ModelError, Outcome,
    PageId, Served, SimConfig, SimError, SimResult, StepReport, Time, Workload,
};
use std::collections::HashMap;

/// Naive picture of one occupied cache cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ShadowSlot {
    /// Cell index in the real cache (only used for cross-checking).
    cell: usize,
    /// Core whose request started the fetch.
    owner: usize,
    /// `Some(r)` while the fetch is in flight (resident at `r`), `None`
    /// once the page is resident.
    ready_at: Option<Time>,
}

/// Environment variable enabling deliberate reference-engine skew, the
/// fault-injection hook for testing the fuzz harness's divergence path:
/// when set to anything but `0`/empty, the reference result gains one
/// phantom fault on core 0, so *every* differential comparison diverges.
pub const SKEW_ENV: &str = "MCP_ORACLE_SKEW";

fn skew_enabled() -> bool {
    match std::env::var(SKEW_ENV) {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    }
}

/// Run `strategy` on `workload` under `cfg` with the naive reference
/// engine and return the same [`SimResult`] surface as
/// [`mcp_core::simulate`]. Intended to disagree with the optimized engine
/// only when one of them is wrong.
///
/// Panics (rather than returning an error) if the naive shadow model ever
/// disagrees with the real [`Cache`] — that indicates a cache bookkeeping
/// bug, and the fuzz harness contains and reports the panic.
pub fn reference_simulate<S: CacheStrategy>(
    workload: &Workload,
    cfg: SimConfig,
    strategy: S,
) -> Result<SimResult, SimError> {
    reference_simulate_with_capacity(
        workload,
        cfg,
        CapacitySchedule::fixed(cfg.cache_size),
        strategy,
    )
}

/// [`reference_simulate`] under a dynamic capacity schedule `K(t)`: an
/// independent naive transcription of the shrink rules (Peserico-style
/// elastic capacity). At each capacity-change tick the limit moves, the
/// strategy is notified, and — while a full rescan of the cache counts
/// more occupied cells than the limit allows — the strategy's shrink
/// victims (or, failing that, the lowest-index evictable cells) are
/// evicted before any request of that tick is served. Requested pages are
/// pinned *before* the shrink, exactly as in the optimized engine.
pub fn reference_simulate_with_capacity<S: CacheStrategy>(
    workload: &Workload,
    cfg: SimConfig,
    capacity: CapacitySchedule,
    strategy: S,
) -> Result<SimResult, SimError> {
    reference_simulate_traced(workload, cfg, capacity, strategy).map(|(result, _)| result)
}

/// [`reference_simulate_with_capacity`], additionally returning one
/// [`StepReport`] per served tick — the same trace
/// [`mcp_core::Simulator::run_with_trace`] produces: shrink and voluntary
/// evictions in the order they happened, then the served requests in core
/// order.
pub fn reference_simulate_traced<S: CacheStrategy>(
    workload: &Workload,
    cfg: SimConfig,
    capacity: CapacitySchedule,
    mut strategy: S,
) -> Result<(SimResult, Vec<StepReport>), SimError> {
    cfg.validate(workload)?;
    let p = workload.num_cores();
    if capacity.initial_k() != cfg.cache_size {
        return Err(ModelError::CapacityMismatch {
            config_k: cfg.cache_size,
            initial_k: capacity.initial_k(),
        }
        .into());
    }
    if capacity.min_k() < p {
        return Err(ModelError::CapacityBelowCores {
            min_k: capacity.min_k(),
            cores: p,
        }
        .into());
    }
    strategy.begin(workload, &cfg);
    let may_defer = strategy.defers();

    let mut cache = Cache::new(capacity.max_k(), p);
    cache.set_limit(cfg.cache_size);
    let changes = capacity.changes();
    let mut cap_idx = 0usize;
    let mut shadow: HashMap<PageId, ShadowSlot> = HashMap::new();

    let mut pos = vec![0usize; p];
    let mut ready = vec![1 as Time; p];
    let mut faults = vec![0u64; p];
    let mut hits = vec![0u64; p];
    let mut fault_times = vec![Vec::<Time>::new(); p];
    let mut makespan: Time = 0;
    let mut trace: Vec<StepReport> = Vec::new();

    let mut t: Time = 1;
    while !(0..p).all(|c| pos[c] >= workload.len(c)) {
        // Promote fetches that completed by now — in the shadow first (on a
        // fresh clone, the per-step copy this engine is allowed to afford),
        // then in the real cache.
        let promoted: HashMap<PageId, ShadowSlot> = shadow
            .clone()
            .into_iter()
            .map(|(page, slot)| {
                let done = slot.ready_at.map(|r| r <= t).unwrap_or(false);
                (
                    page,
                    ShadowSlot {
                        ready_at: if done { None } else { slot.ready_at },
                        ..slot
                    },
                )
            })
            .collect();
        shadow = promoted;
        cache.promote_due(t);

        // Who issues a request at this tick? Re-scan every core.
        let mut due: Vec<usize> = (0..p)
            .filter(|&c| pos[c] < workload.len(c) && ready[c] == t)
            .collect();

        // A quiet tick is served only when the strategy declared it or a
        // capacity change lands on it (a change is observable even with no
        // request due: the shrink evictions happen *at* the change tick).
        let capacity_due = cap_idx < changes.len() && changes[cap_idx].0 <= t;
        if due.is_empty() && strategy.next_voluntary_time() != Some(t) && !capacity_due {
            t += 1;
            continue;
        }

        // This tick's trace entry: evictions (shrink, then voluntary) in
        // the order they happen, and the served requests.
        let mut evicted: Vec<(usize, PageId)> = Vec::new();
        let mut served: Vec<Served> = Vec::new();

        // Rule 8: deferred cores drop out of this tick altogether.
        due.retain(|&core| {
            let page = workload.sequence(core)[pos[core]];
            let deferred = may_defer && strategy.defer(core, page, t, &cache);
            if deferred {
                ready[core] = t + 1;
            }
            !deferred
        });

        // Rule 6: pin every page requested this parallel step before the
        // strategy may evict voluntarily.
        for &core in &due {
            cache.pin_page(workload.sequence(core)[pos[core]]);
        }

        // Capacity changes due at this tick: move the limit, notify the
        // strategy, then evict down to the new limit before anything else
        // happens. The occupancy is re-derived from a full cell scan every
        // round — no reliance on the cache's own over-limit accounting.
        while cap_idx < changes.len() && changes[cap_idx].0 <= t {
            let (_, k) = changes[cap_idx];
            cap_idx += 1;
            cache.set_limit(k);
            strategy.on_capacity_change(t, k, &cache);
        }
        loop {
            let occupied = (0..cache.len())
                .filter(|&cell| !matches!(cache.cell(cell), CellState::Empty))
                .count();
            let Some(need) = occupied.checked_sub(cache.limit()).filter(|&n| n > 0) else {
                break;
            };
            let victims = strategy.shrink_victims(need, t, &cache);
            let mut progress = false;
            for cell in victims.into_iter().take(need) {
                if !matches!(cache.cell(cell), CellState::Present(_)) {
                    return Err(SimError::BadShrinkEviction { cell });
                }
                let page = cache.evict(cell)?;
                strategy.on_evict(page, cell);
                shadow.remove(&page);
                evicted.push((cell, page));
                progress = true;
            }
            if !progress {
                // Strategy offered nothing: take the lowest-index
                // evictable cell, or give up if every over-limit cell is
                // pinned or in flight (they drain on later ticks).
                let Some((cell, _, _)) = cache.evictable_cells().next() else {
                    break;
                };
                let page = cache.evict(cell)?;
                strategy.on_evict(page, cell);
                shadow.remove(&page);
                evicted.push((cell, page));
            }
        }

        for cell in strategy.voluntary_evictions(t, &cache) {
            if !matches!(cache.cell(cell), CellState::Present(_)) {
                return Err(SimError::BadVoluntaryEviction { cell });
            }
            let page = cache.evict(cell)?;
            strategy.on_evict(page, cell);
            shadow.remove(&page);
            evicted.push((cell, page));
        }

        // Rule 2: serve due cores in increasing core order.
        for &core in &due {
            let page = workload.sequence(core)[pos[core]];
            let outcome = match cache.lookup(page) {
                Lookup::Present { cell } => {
                    // Rule 3: a hit completes at t.
                    hits[core] += 1;
                    strategy.on_hit(core, page, t, cell, &cache);
                    ready[core] = t + 1;
                    makespan = makespan.max(t);
                    Outcome::Hit
                }
                Lookup::Fetching { cell, .. } => {
                    // Rule 5: mid-fetch for another core — fault, no cell.
                    faults[core] += 1;
                    fault_times[core].push(t);
                    strategy.on_shared_fetch_miss(core, page, t, cell, &cache);
                    ready[core] = t + cfg.tau + 1;
                    makespan = makespan.max(t + cfg.tau);
                    Outcome::SharedFetchMiss
                }
                Lookup::Absent => {
                    // Rule 4: fault — evict a victim now, fetch until t + τ.
                    faults[core] += 1;
                    fault_times[core].push(t);
                    let cell = strategy.choose_cell(core, page, t, &cache);
                    let victim = match cache.cell(cell) {
                        CellState::Present(_) => {
                            let victim = cache.evict(cell)?;
                            strategy.on_evict(victim, cell);
                            shadow.remove(&victim);
                            Some(victim)
                        }
                        CellState::Empty => None,
                        CellState::Fetching { .. } => {
                            return Err(SimError::Cache(CacheError::EvictFetching { cell }));
                        }
                    };
                    cache.start_fetch(cell, page, core, t + cfg.tau + 1)?;
                    strategy.on_fault(core, page, t, cell, &cache);
                    shadow.insert(
                        page,
                        ShadowSlot {
                            cell,
                            owner: core,
                            ready_at: Some(t + cfg.tau + 1),
                        },
                    );
                    ready[core] = t + cfg.tau + 1;
                    makespan = makespan.max(t + cfg.tau);
                    Outcome::Fault {
                        cell,
                        evicted: victim,
                    }
                }
            };
            served.push(Served {
                core,
                index: pos[core],
                page,
                outcome,
            });
            pos[core] += 1;
        }
        cache.clear_pins();
        cross_check(&cache, &shadow);
        trace.push(StepReport {
            time: t,
            voluntary: evicted,
            served,
        });
        t += 1;
    }

    if skew_enabled() {
        faults[0] += 1;
        fault_times[0].push(makespan + 1);
    }

    let result = SimResult {
        faults,
        hits,
        makespan,
        fault_times,
        config: cfg,
    };
    Ok((result, trace))
}

/// Assert that the naive shadow map and the real cache describe the same
/// cache contents, and that the cache's own incremental bookkeeping is
/// internally consistent.
fn cross_check(cache: &Cache, shadow: &HashMap<PageId, ShadowSlot>) {
    if let Err(violation) = cache.debug_validate() {
        panic!("reference engine: cache invariant violated: {violation}");
    }
    let mut occupied = 0usize;
    for cell in 0..cache.len() {
        match cache.cell(cell) {
            CellState::Empty => {}
            CellState::Present(page) => {
                occupied += 1;
                let slot = shadow.get(&page).unwrap_or_else(|| {
                    panic!("reference engine: resident {page} missing from shadow")
                });
                assert_eq!(
                    (slot.cell, slot.ready_at, Some(slot.owner)),
                    (cell, None, cache.owner(cell)),
                    "reference engine: shadow disagrees on resident {page}"
                );
            }
            CellState::Fetching { page, ready_at } => {
                occupied += 1;
                let slot = shadow.get(&page).unwrap_or_else(|| {
                    panic!("reference engine: in-flight {page} missing from shadow")
                });
                assert_eq!(
                    (slot.cell, slot.ready_at, Some(slot.owner)),
                    (cell, Some(ready_at), cache.owner(cell)),
                    "reference engine: shadow disagrees on in-flight {page}"
                );
            }
        }
    }
    assert_eq!(
        shadow.len(),
        occupied,
        "reference engine: shadow has stale entries"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcp_core::simulate;
    use mcp_policies::{shared_lru, Partition};

    fn w(seqs: &[&[u32]]) -> Workload {
        Workload::from_u32(seqs.iter().map(|s| s.to_vec())).unwrap()
    }

    #[test]
    fn matches_engine_on_the_sim_rs_doc_examples() {
        for (wl, k, tau) in [
            (w(&[&[1, 2]]), 2, 3),
            (w(&[&[1, 1]]), 1, 3),
            (w(&[&[1, 2, 1, 2]]), 2, 0),
            (w(&[&[1, 2, 3]]), 3, 2),
            (w(&[&[1], &[1]]), 2, 4),
            (w(&[&[1], &[2, 1]]), 3, 2),
            (w(&[&[1, 1, 1], &[2, 2, 2]]), 2, 5),
            (w(&[&[], &[]]), 2, 3),
        ] {
            let cfg = SimConfig::new(k, tau);
            let fast = simulate(&wl, cfg, shared_lru()).unwrap();
            let slow = reference_simulate(&wl, cfg, shared_lru()).unwrap();
            assert_eq!(fast, slow, "diverged on {wl:?} K={k} tau={tau}");
        }
    }

    #[test]
    fn matches_engine_on_quiet_timestep_voluntary_evictions() {
        use mcp_policies::{Replay, ReplayDecision};
        use std::collections::BTreeMap;
        // A scripted strategy that evicts at a quiet timestep (t = 4, when
        // core 0 is between requests) exercises rule 7
        // (next_voluntary_time) in both engines: honest service of
        // [1, 2, 1] with K = 3 faults twice, the forced eviction makes the
        // final request of page 1 fault again.
        let wl = w(&[&[1, 2, 1]]);
        let cfg = SimConfig::new(3, 1);
        let volu: BTreeMap<Time, Vec<PageId>> = [(4, vec![PageId(1)])].into_iter().collect();
        let mk = || {
            let d = (0..3)
                .map(|i| ((0usize, i), ReplayDecision::UseEmpty))
                .collect();
            Replay::new(d).with_voluntary(volu.clone())
        };
        let fast = simulate(&wl, cfg, mk()).unwrap();
        let slow = reference_simulate(&wl, cfg, mk()).unwrap();
        assert_eq!(fast, slow);
        assert_eq!(fast.total_faults(), 3);
    }

    #[test]
    fn matches_engine_under_capacity_schedules() {
        use mcp_core::simulate_with_capacity;
        let workloads = [
            w(&[&[1, 2, 3, 1, 2, 4, 1, 3], &[7, 8, 9, 7, 8, 7, 9, 8]]),
            w(&[&[1, 2, 1, 2, 1, 2], &[5, 6, 7, 5, 6, 7]]),
            w(&[&[1, 2, 3, 1, 2], &[1, 3, 4, 1, 3]]), // shared pages
        ];
        for wl in &workloads {
            for tau in [0u64, 2] {
                for spec in ["4,2@3", "4,2@3,4@8", "4,3@2,2@5,4@9", "4,2@100"] {
                    let schedule: mcp_core::CapacitySchedule = spec.parse().unwrap();
                    let cfg = SimConfig::new(4, tau);
                    let fast =
                        simulate_with_capacity(wl, cfg, schedule.clone(), shared_lru()).unwrap();
                    let slow =
                        reference_simulate_with_capacity(wl, cfg, schedule, shared_lru()).unwrap();
                    assert_eq!(fast, slow, "diverged on {spec} tau={tau} {wl:?}");
                }
            }
        }
    }

    #[test]
    fn capacity_validation_matches_engine() {
        use mcp_core::simulate_with_capacity;
        let wl = w(&[&[1, 2], &[7, 8]]);
        let cfg = SimConfig::new(4, 0);
        for schedule in [
            "4,1@3".parse::<CapacitySchedule>().unwrap(), // min below p
            CapacitySchedule::fixed(5),                   // initial mismatch
        ] {
            let fast = simulate_with_capacity(&wl, cfg, schedule.clone(), shared_lru());
            let slow = reference_simulate_with_capacity(&wl, cfg, schedule, shared_lru());
            assert_eq!(fast.as_ref().err(), slow.as_ref().err());
            assert!(fast.is_err());
        }
    }

    #[test]
    fn partition_strategy_agrees_too() {
        let wl = w(&[&[1, 2, 1, 2], &[7, 8, 7, 8]]);
        let cfg = SimConfig::new(3, 2);
        let mk = || mcp_policies::static_partition_lru(Partition::equal(3, 2));
        assert_eq!(
            simulate(&wl, cfg, mk()).unwrap(),
            reference_simulate(&wl, cfg, mk()).unwrap()
        );
    }

    // The MCP_ORACLE_SKEW fault-injection hook is exercised end-to-end by
    // the CLI regression test (spawned process, so the env var cannot race
    // other in-process tests).
}
