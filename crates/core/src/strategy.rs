//! The [`CacheStrategy`] trait: the full decision surface the paper grants a
//! multicore paging algorithm.
//!
//! In this model the algorithm has **no scheduling power**: every active
//! request must be served the moment it arrives. The only genuine choice is
//! the victim on a fault. Two auxiliary hooks widen the trait just enough to
//! express everything the paper discusses:
//!
//! * [`CacheStrategy::voluntary_evictions`] lets *dishonest* strategies
//!   evict pages without a fault (used to probe Theorem 4, which proves
//!   honesty is WLOG for disjoint sequences);
//! * [`CacheStrategy::begin`] hands offline strategies the whole input
//!   before the run starts (online strategies simply ignore it).
//!
//! One hook steps outside the paper's model on purpose:
//! [`CacheStrategy::defer`] stalls a due core for one timestep, the
//! scheduling power of Hassidim's model. It exists only for the offline
//! stall-model comparison (experiment X04, `mcp_offline::sched_min`) and
//! its naive oracle; no online family defers, and a strategy that does
//! not opt in through [`CacheStrategy::defers`] costs the engine no call.

use crate::cache::Cache;
use crate::types::{PageId, SimConfig, Time, Workload};

/// A cache-management strategy: the combination of a (possibly trivial)
/// partition policy and an eviction policy, in the paper's terminology.
///
/// The simulator drives the strategy with callbacks in service order; within
/// one timestep, cores are served in increasing core index (the model's
/// fixed logical order), so a strategy that maintains its own recency
/// counter observes a deterministic total order of events.
///
/// Every hook about a cell receives it: [`CacheStrategy::on_hit`] and
/// [`CacheStrategy::on_shared_fetch_miss`] get the cell the engine
/// resolved for the request, [`CacheStrategy::on_fault`] the cell the
/// fetch went into, [`CacheStrategy::on_evict`] the cell just emptied.
/// Strategies must not re-probe the cache (`cache.cell_of(page)`) for a
/// cell they were handed: the engine resolves each request once, and on
/// hit-heavy traffic the hit hook runs on almost every request.
pub trait CacheStrategy {
    /// Human-readable name, e.g. `"S_LRU"` or `"sP[2,2]_FIFO"`.
    fn name(&self) -> String;

    /// Called once before the run. Online strategies must not read the
    /// future from `workload`; offline strategies may.
    fn begin(&mut self, workload: &Workload, cfg: &SimConfig) {
        let _ = (workload, cfg);
    }

    /// `core` requested `page` at `time` and it was resident in `cell`,
    /// the cell the engine's lookup resolved (`cache.cell_of(page) ==
    /// Some(cell)`).
    fn on_hit(&mut self, core: usize, page: PageId, time: Time, cell: usize, cache: &Cache) {
        let _ = (core, page, time, cell, cache);
    }

    /// `core` requested `page` at `time` and it was absent: return the cell
    /// to fetch into. The cell must be `Empty` or `Present`; if `Present`,
    /// the engine evicts its page first (reporting it via
    /// [`CacheStrategy::on_evict`]). Returning a `Fetching` cell is an error.
    fn choose_cell(&mut self, core: usize, page: PageId, time: Time, cache: &Cache) -> usize;

    /// A fetch of `page` for `core` has started into `cell` at `time`.
    fn on_fault(&mut self, core: usize, page: PageId, time: Time, cell: usize, cache: &Cache) {
        let _ = (core, page, time, cell, cache);
    }

    /// `page` was evicted from `cell` (forced by a fault placement or by a
    /// voluntary eviction). Strategies drop their metadata for `page` here.
    fn on_evict(&mut self, page: PageId, cell: usize) {
        let _ = (page, cell);
    }

    /// `core` requested `page` at `time` while `page` was already being
    /// fetched into `cell` for another core (non-disjoint workloads only).
    /// The request counts as a fault for `core` and the core is delayed by
    /// `τ`, but no new cell is consumed. As in [`CacheStrategy::on_hit`],
    /// `cell` is the engine's own lookup result.
    fn on_shared_fetch_miss(
        &mut self,
        core: usize,
        page: PageId,
        time: Time,
        cell: usize,
        cache: &Cache,
    ) {
        let _ = (core, page, time, cell, cache);
    }

    /// Cells to evict voluntarily at the start of timestep `time`, before
    /// any request is served. Each cell must be `Present`. Honest
    /// strategies (everything except Theorem-4 probes) keep the default.
    fn voluntary_evictions(&mut self, time: Time, cache: &Cache) -> Vec<usize> {
        let _ = (time, cache);
        Vec::new()
    }

    /// The capacity limit changed to `new_k` at `time` (dynamic-capacity
    /// runs only; see [`crate::CapacitySchedule`]). Called after the
    /// cache's limit moved but before any shrink eviction, so the
    /// strategy can re-derive internal sizing — partitioned families
    /// rescale their per-core quotas here. The default does nothing.
    fn on_capacity_change(&mut self, time: Time, new_k: usize, cache: &Cache) {
        let _ = (time, new_k, cache);
    }

    /// Cells to evict because a capacity drop left the cache `need` cells
    /// over its new limit (Peserico shrink semantics: evict down to
    /// `K(t)` before serving). Called after
    /// [`CacheStrategy::on_capacity_change`], with that step's requested
    /// pages already pinned; each returned cell must be `Present` and
    /// unpinned. The engine evicts the returned cells in order (reported
    /// via [`CacheStrategy::on_evict`] and traced like voluntary
    /// evictions) and, if the strategy returns fewer than `need`, evicts
    /// lowest-index evictable cells to cover the shortfall — so the
    /// capacity invariant never depends on strategy cooperation.
    ///
    /// The default matches that fallback: the `need` lowest-index
    /// evictable cells.
    fn shrink_victims(&mut self, need: usize, time: Time, cache: &Cache) -> Vec<usize> {
        let _ = time;
        cache
            .evictable_cells()
            .map(|(cell, _, _)| cell)
            .take(need)
            .collect()
    }

    /// The earliest future timestep at which the strategy wants
    /// [`CacheStrategy::voluntary_evictions`] consulted even if no request
    /// is due then. The engine normally fast-forwards over timesteps where
    /// every core is mid-fetch or finished; in the paper's model a
    /// (dishonest) strategy may still evict at such a timestep, so
    /// schedules that do — e.g. witnesses reconstructed from the full
    /// transition relation of Algorithm 2 — declare those timesteps here.
    ///
    /// # Boundary contract
    ///
    /// The engine ([`Simulator`]) and the oracle crate's naive reference
    /// implement exactly these semantics, with `last_time` the last served timestep (0 before
    /// the first step) and `next_request` the minimum ready time over
    /// unfinished cores:
    ///
    /// * **Stale** — a declared time `vt ≤ last_time` is ignored. The
    ///   engine never re-serves or rewinds to a past timestep; the
    ///   declaration is simply not an event.
    /// * **Quiet** — `last_time < vt < next_request`: the engine serves a
    ///   step at `vt` with no due requests (voluntary evictions only; the
    ///   [`StepReport::served`] list is empty).
    /// * **Coincident** — `vt == next_request`: the declaration folds into
    ///   the request step. [`CacheStrategy::voluntary_evictions`] is
    ///   consulted exactly once at `vt`, after pinning that step's
    ///   requested pages, as on every served step — no separate
    ///   voluntary-only step precedes it.
    /// * **Post-final** — a declared time after the last request has been
    ///   served is silently dropped: once every sequence is finished the
    ///   run ends and the declaration is never consulted. (Observable and
    ///   deliberate: makespans and traces must not grow because a strategy
    ///   keeps declaring times forever.)
    ///
    /// Implementations must be *monotone between steps*: the value may
    /// change only as a result of the engine invoking a `&mut self`
    /// callback (`voluntary_evictions` or a serve callback), since the
    /// engine samples it once per step boundary.
    ///
    /// [`Simulator`]: crate::sim::Simulator
    /// [`StepReport::served`]: crate::sim::StepReport
    fn next_voluntary_time(&self) -> Option<Time> {
        None
    }

    /// Whether [`CacheStrategy::defer`] may ever return `true`. The engine
    /// reads this once, when it is built, and never calls `defer` on a
    /// strategy that answers `false` (the default).
    fn defers(&self) -> bool {
        false
    }

    /// Stall `core`, whose request for `page` is due at `time`, for one
    /// timestep instead of serving it. A deferred core is not served at
    /// `time` and its page is not pinned there; the same request issues
    /// again at `time + 1`. Called for each due core in core order, after
    /// the fetches due by `time` completed and before pins, and only when
    /// [`CacheStrategy::defers`] is `true`. A strategy that defers a core
    /// forever never finishes the run.
    fn defer(&mut self, core: usize, page: PageId, time: Time, cache: &Cache) -> bool {
        let _ = (core, page, time, cache);
        false
    }
}

/// Blanket forwarding so `&mut S` and boxed strategies are strategies too.
impl<S: CacheStrategy + ?Sized> CacheStrategy for &mut S {
    fn name(&self) -> String {
        (**self).name()
    }
    fn begin(&mut self, workload: &Workload, cfg: &SimConfig) {
        (**self).begin(workload, cfg)
    }
    fn on_hit(&mut self, core: usize, page: PageId, time: Time, cell: usize, cache: &Cache) {
        (**self).on_hit(core, page, time, cell, cache)
    }
    fn choose_cell(&mut self, core: usize, page: PageId, time: Time, cache: &Cache) -> usize {
        (**self).choose_cell(core, page, time, cache)
    }
    fn on_fault(&mut self, core: usize, page: PageId, time: Time, cell: usize, cache: &Cache) {
        (**self).on_fault(core, page, time, cell, cache)
    }
    fn on_evict(&mut self, page: PageId, cell: usize) {
        (**self).on_evict(page, cell)
    }
    fn on_shared_fetch_miss(
        &mut self,
        core: usize,
        page: PageId,
        time: Time,
        cell: usize,
        cache: &Cache,
    ) {
        (**self).on_shared_fetch_miss(core, page, time, cell, cache)
    }
    fn voluntary_evictions(&mut self, time: Time, cache: &Cache) -> Vec<usize> {
        (**self).voluntary_evictions(time, cache)
    }
    fn on_capacity_change(&mut self, time: Time, new_k: usize, cache: &Cache) {
        (**self).on_capacity_change(time, new_k, cache)
    }
    fn shrink_victims(&mut self, need: usize, time: Time, cache: &Cache) -> Vec<usize> {
        (**self).shrink_victims(need, time, cache)
    }
    fn next_voluntary_time(&self) -> Option<Time> {
        (**self).next_voluntary_time()
    }
    fn defers(&self) -> bool {
        (**self).defers()
    }
    fn defer(&mut self, core: usize, page: PageId, time: Time, cache: &Cache) -> bool {
        (**self).defer(core, page, time, cache)
    }
}

impl<S: CacheStrategy + ?Sized> CacheStrategy for Box<S> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn begin(&mut self, workload: &Workload, cfg: &SimConfig) {
        (**self).begin(workload, cfg)
    }
    fn on_hit(&mut self, core: usize, page: PageId, time: Time, cell: usize, cache: &Cache) {
        (**self).on_hit(core, page, time, cell, cache)
    }
    fn choose_cell(&mut self, core: usize, page: PageId, time: Time, cache: &Cache) -> usize {
        (**self).choose_cell(core, page, time, cache)
    }
    fn on_fault(&mut self, core: usize, page: PageId, time: Time, cell: usize, cache: &Cache) {
        (**self).on_fault(core, page, time, cell, cache)
    }
    fn on_evict(&mut self, page: PageId, cell: usize) {
        (**self).on_evict(page, cell)
    }
    fn on_shared_fetch_miss(
        &mut self,
        core: usize,
        page: PageId,
        time: Time,
        cell: usize,
        cache: &Cache,
    ) {
        (**self).on_shared_fetch_miss(core, page, time, cell, cache)
    }
    fn voluntary_evictions(&mut self, time: Time, cache: &Cache) -> Vec<usize> {
        (**self).voluntary_evictions(time, cache)
    }
    fn on_capacity_change(&mut self, time: Time, new_k: usize, cache: &Cache) {
        (**self).on_capacity_change(time, new_k, cache)
    }
    fn shrink_victims(&mut self, need: usize, time: Time, cache: &Cache) -> Vec<usize> {
        (**self).shrink_victims(need, time, cache)
    }
    fn next_voluntary_time(&self) -> Option<Time> {
        (**self).next_voluntary_time()
    }
    fn defers(&self) -> bool {
        (**self).defers()
    }
    fn defer(&mut self, core: usize, page: PageId, time: Time, cache: &Cache) -> bool {
        (**self).defer(core, page, time, cache)
    }
}
