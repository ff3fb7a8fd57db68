//! The discrete-event simulation engine.
//!
//! Semantics (Section 3 of the paper, pinned down):
//!
//! * Time is discrete; core `j`'s first request issues at `t = 1`.
//! * All cores whose next request is due at `t` are served at `t`, in
//!   increasing core order (the fixed logical order); a request served
//!   later within the timestep observes the cache effects of earlier ones.
//! * A **hit** completes at `t`; the core's next request issues at `t + 1`.
//! * A **miss** evicts a victim immediately, reserves the cell for the
//!   fetch (unusable and unevictable until done), completes at `t + τ`,
//!   and the core's next request issues at `t + τ + 1`. Thus a miss delays
//!   all remaining requests of that core by the additive term `τ`.
//! * A request for a page that is mid-fetch for *another* core (possible
//!   only for non-disjoint workloads) counts as a fault for the requesting
//!   core and delays it by `τ`, but allocates no second cell.
//! * All pages requested in a parallel step are read in parallel, so none
//!   of them may be evicted during that step (they are *pinned*). This
//!   mirrors the `R(x) ⊆ C'` constraint of the paper's Algorithms 1 and 2
//!   and makes DP optima exactly achievable by the engine. Pins are placed
//!   before the strategy's voluntary evictions run, so a voluntary
//!   eviction of a currently requested page is rejected too.
//! * Strategies cannot reorder requests, and cannot delay them unless they
//!   opt into [`crate::CacheStrategy::defers`] (the offline stall model
//!   only): a deferred core is neither served nor pinned, and re-issues
//!   the same request at `t + 1`.
//! * The engine fast-forwards over timesteps at which no request is due,
//!   except those a strategy declares via
//!   [`crate::CacheStrategy::next_voluntary_time`]: the paper's model
//!   permits voluntary evictions at any timestep, including ones where
//!   every core is mid-fetch.
//!
//! # The event engine
//!
//! [`Simulator`] realizes these semantics as a discrete-event scheduler
//! rather than a per-step core scan (DESIGN §11). Every core has exactly
//! one queued **wake-up** `(time, core)` — the time its next request
//! issues — until it is closed with nothing left to serve. A served
//! request re-issues its core at exactly `t + 1` (a hit, or a fault when
//! `τ = 0`) or `t + τ + 1` (a fault), so the engine *creates* its
//! wake-ups already sorted and keeps them in two plain lists:
//!
//! * `issue_next` — the cores due at `last_time + 1`, in core order;
//! * `issue_later` — a FIFO of the `t + τ + 1` wake-ups. Each step appends
//!   its faulting cores in core order at one time, and step times
//!   increase, so the FIFO stays sorted by `(time, core)` with no
//!   comparisons.
//!
//! The due set of step `t` is `issue_next` merged with the FIFO's run at
//! `t` — exactly the due cores in increasing core order, the model's
//! fixed logical order — so within-step semantics (promote due fetches,
//! then pins, then voluntary evictions, then service in core order with
//! shared-fetch-miss charging) are preserved *by construction*, and the
//! engine is bit-identical to the oracle crate's naive tick-by-tick
//! reference. A fetch completes exactly when the faulting core's next
//! wake-up fires, so its completion rides that wake-up
//! (`pending_promote`) and is applied when the core enters a due run,
//! still before pins. Strategy-declared voluntary times
//! ([`crate::CacheStrategy::next_voluntary_time`]) and capacity changes
//! are re-read before each step rather than queued. Cost is `O(events)`
//! instead of a per-step core scan's `O(steps · p)` — on sparse or
//! large-τ workloads, where most timesteps are idle and served steps
//! touch one core, that is the difference between `O(n·p)` and `O(n)`
//! total.
//!
//! # Incremental runs and the safe-horizon rule
//!
//! The same engine serves a workload that is still growing — the
//! [`crate::online::OnlineSimulator`] behind `mcp serve` owns its workload
//! and appends requests at the tail. Each core is then *open* (more
//! requests may arrive) until it is closed. In the model a core's issue
//! times depend only on its own hit/fault history, so cores couple only
//! through the shared cache. Call an open core **starved** when every
//! admitted request of it has been served. Step `t` is safe to commit iff
//! every starved core `j` has `ready_j > t`: a request pushed to `j` later
//! issues at `ready_j`, strictly after `t`, so it cannot join — or
//! reorder — the step. (Ties block: within a step cores are served in
//! increasing core order, so a late arrival with `ready_j == t` would have
//! been served in that very step.) Under this rule the committed trace is
//! always a prefix of the offline run on whatever the final log turns out
//! to be, and a drained run is bit-identical to [`simulate`] on it.
//!
//! A served core queues its wake-up also after its last admitted request,
//! so a starved core is simply a queued core with no unserved request:
//! the gate is a check of the due run at `t`, and a push touches no
//! queue. A closed core with nothing left to serve has a *dead* wake-up,
//! which is dropped when it reaches the front (completing the fetch it
//! carries) and never creates a step.

use crate::cache::{Cache, CacheError, Lookup};
use crate::capacity::CapacitySchedule;
use crate::online::OnlineError;
use crate::strategy::CacheStrategy;
use crate::types::{ModelError, PageId, SimConfig, Time, Workload};
use std::borrow::Borrow;
use std::collections::VecDeque;
use std::marker::PhantomData;

/// Tags a due-run entry whose core has no unserved request: starved if
/// the core is open, dead if it is closed.
const IDLE: u32 = 1 << 31;

/// Errors surfaced by a simulation run.
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum SimError {
    /// The workload/config combination is malformed.
    Model(ModelError),
    /// The strategy performed an illegal cache manipulation.
    Cache(CacheError),
    /// The strategy asked to voluntarily evict a cell that is not `Present`.
    BadVoluntaryEviction { cell: usize },
    /// The strategy's [`CacheStrategy::shrink_victims`] named a cell that
    /// is not `Present` (capacity-schedule runs only).
    BadShrinkEviction { cell: usize },
}

impl From<ModelError> for SimError {
    fn from(e: ModelError) -> Self {
        SimError::Model(e)
    }
}

impl From<CacheError> for SimError {
    fn from(e: CacheError) -> Self {
        SimError::Cache(e)
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Model(e) => write!(f, "model error: {e}"),
            SimError::Cache(e) => write!(f, "cache error: {e}"),
            SimError::BadVoluntaryEviction { cell } => {
                write!(f, "voluntary eviction of non-present cell {cell}")
            }
            SimError::BadShrinkEviction { cell } => {
                write!(f, "capacity-shrink eviction of non-present cell {cell}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// How a single request was served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum Outcome {
    /// Resident page: served from cache.
    Hit,
    /// Absent page: fetch started into `cell`, possibly after evicting
    /// `evicted` from it.
    Fault {
        cell: usize,
        evicted: Option<PageId>,
    },
    /// Page was mid-fetch for another core: fault, but no cell consumed.
    SharedFetchMiss,
}

/// One served request, for step-wise inspection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Served {
    /// Core that issued the request.
    pub core: usize,
    /// Index of the request within the core's sequence (0-based).
    pub index: usize,
    /// The requested page.
    pub page: PageId,
    /// How it was served.
    pub outcome: Outcome,
}

/// Everything that happened in one simulated timestep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepReport {
    /// The timestep.
    pub time: Time,
    /// Voluntary evictions applied at the start of the step: `(cell, page)`.
    pub voluntary: Vec<(usize, PageId)>,
    /// Requests served this step, in logical (core) order.
    pub served: Vec<Served>,
}

/// Aggregate result of a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimResult {
    /// Per-core fault counts.
    pub faults: Vec<u64>,
    /// Per-core hit counts.
    pub hits: Vec<u64>,
    /// Completion time of the last request (0 for an empty workload).
    pub makespan: Time,
    /// Issue times of each core's faults, ascending.
    pub fault_times: Vec<Vec<Time>>,
    /// The configuration the run used.
    pub config: SimConfig,
}

impl SimResult {
    /// Total faults across all cores (the FTF objective).
    pub fn total_faults(&self) -> u64 {
        self.faults.iter().sum()
    }

    /// Total hits across all cores.
    pub fn total_hits(&self) -> u64 {
        self.hits.iter().sum()
    }

    /// Number of faults core `core` had incurred by time `t` (inclusive of
    /// faults issued at `t`) — the quantity PARTIAL-INDIVIDUAL-FAULTS bounds.
    pub fn faults_at(&self, core: usize, t: Time) -> u64 {
        self.fault_times[core].partition_point(|&ft| ft <= t) as u64
    }

    /// The whole fault vector at time `t`.
    pub fn fault_vector_at(&self, t: Time) -> Vec<u64> {
        (0..self.fault_times.len())
            .map(|c| self.faults_at(c, t))
            .collect()
    }
}

/// A stepping simulator: drive it with [`Simulator::step`] or run it to
/// completion with [`Simulator::run`] / the [`simulate`] convenience.
///
/// This is the event-driven engine (see the module docs): per-core clocks
/// live in two sorted lists of `(next_time, core)` wake-ups, fetch
/// completions ride them, and idle time is skipped outright.
pub struct Simulator<'w, S: CacheStrategy, W: Borrow<Workload> = &'w Workload> {
    /// Borrowed (`&'w Workload`) for offline runs; owned, and growing at
    /// the tail, for incremental ones ([`crate::online::OnlineSimulator`]).
    /// A type parameter rather than a `Cow`, so neither kind pays a
    /// branch per request to reach its sequences.
    workload: W,
    /// Ties `'w` to the default, borrowed storage.
    borrow: PhantomData<&'w Workload>,
    cfg: SimConfig,
    /// The capacity schedule `K(t)` ([`CapacitySchedule::fixed`] for
    /// constant-K runs — then `cap_idx` never advances and every
    /// capacity branch is a no-op, so the fixed path is the pre-capacity
    /// engine verbatim). Capacity-change times are first-class events:
    /// [`Simulator::next_step`] mins the next change into the step time,
    /// so idle-gap skipping stays exact and shrink evictions land exactly
    /// at the change time.
    capacity: CapacitySchedule,
    /// Cursor into `capacity.changes()`: changes before it are applied.
    cap_idx: usize,
    strategy: S,
    cache: Cache,
    pos: Vec<usize>,
    ready: Vec<Time>,
    /// Cores whose wake-up is at exactly `last_time + 1`, in core order:
    /// every hit, every fault when `τ = 0`, and every deferred core
    /// re-arms here. A non-empty list makes the next step exactly
    /// `last_time + 1` (see [`Simulator::next_step`]), which drains it.
    issue_next: Vec<u32>,
    /// Whether every core in `issue_next` has an unserved request (it had
    /// one when queued, and requests are never taken back). Then the
    /// list, when no FIFO wake-up coincides, *is* the next due set.
    issue_next_live: bool,
    /// The wake-ups later than `last_time + 1`, as `(time, core)` — one
    /// per fault at `t + τ + 1`, appended in core order by each step, so
    /// sorted. With `issue_next`, exactly one wake-up per core that is
    /// open or has an unserved request; a closed core's wake-up may
    /// outlive its last request (it is dead, and dropped when due).
    issue_later: VecDeque<(Time, u32)>,
    /// `pending_promote[core]` is the cell whose fetch — started by this
    /// core's last served request — completes exactly when the core's
    /// next wake-up fires (`u32::MAX` when none). The completion needs no
    /// event of its own: the core is in the due run of the first step at
    /// or past its ready time, which is precisely where a completion
    /// event would have promoted the cell, so promoting when the core
    /// enters the due set — still ahead of pins, voluntary evictions, and
    /// service — is observably identical. A dead wake-up promotes its
    /// cell when it is dropped.
    pending_promote: Vec<u32>,
    /// [`CacheStrategy::defers`], read once at construction: only then is
    /// [`CacheStrategy::defer`] consulted, so the serve path of every
    /// other strategy pays one branch per step for the stall model.
    defers: bool,
    /// `due_slot[core]`: the cache slot ([`Cache::intern`]) of the page
    /// the core requests in the step being served, set by the pin loop.
    due_slot: Vec<usize>,
    /// `closed[core]`: no more requests may arrive for `core`. Offline
    /// runs close every core up front.
    closed: Vec<bool>,
    /// Number of open cores.
    open: usize,
    /// Requests admitted so far, all cores (the offline workload's length).
    admitted: usize,
    faults: Vec<u64>,
    hits: Vec<u64>,
    fault_times: Vec<Vec<Time>>,
    makespan: Time,
    last_time: Time,
    // Persistent per-step buffers so the hot path ([`Simulator::run`])
    // allocates nothing per timestep.
    voluntary_buf: Vec<(usize, PageId)>,
    served_buf: Vec<Served>,
    due_buf: Vec<u32>,
    /// Requests served so far, all cores.
    served: usize,
}

impl<S: CacheStrategy> Simulator<'static, S, Workload> {
    /// An incremental engine over `num_cores` open cores with empty
    /// sequences: the strategy's [`CacheStrategy::begin`] sees those
    /// empty sequences. Validation matches [`Simulator::with_capacity`].
    pub(crate) fn open(
        num_cores: usize,
        cfg: SimConfig,
        capacity: CapacitySchedule,
        strategy: S,
    ) -> Result<Self, SimError> {
        let empty = Workload::new(vec![Vec::new(); num_cores])?;
        Simulator::build(empty, cfg, capacity, strategy, true)
    }

    /// Admit one request at the tail of open core `core`'s sequence. The
    /// core's wake-up is already queued at its ready time (a starved core
    /// keeps it), and the safe-horizon gate kept every committed step
    /// strictly before it, so no queue changes.
    #[inline]
    pub(crate) fn push(&mut self, core: usize, page: PageId) -> Result<(), OnlineError> {
        let cores = self.closed.len();
        if core >= cores {
            return Err(OnlineError::UnknownCore { core, cores });
        }
        if self.closed[core] {
            return Err(OnlineError::CoreClosed { core });
        }
        self.workload.push(core, page);
        self.admitted += 1;
        Ok(())
    }

    /// Declare `core`'s sequence final: no more pushes, and the horizon
    /// stops waiting on it. Idempotent.
    pub(crate) fn close(&mut self, core: usize) -> Result<(), OnlineError> {
        let cores = self.closed.len();
        if core >= cores {
            return Err(OnlineError::UnknownCore { core, cores });
        }
        if !self.closed[core] {
            self.closed[core] = true;
            self.open -= 1;
        }
        Ok(())
    }

    /// Close every core (end of stream).
    pub(crate) fn close_all(&mut self) {
        self.closed.fill(true);
        self.open = 0;
    }
}

impl<'w, S: CacheStrategy> Simulator<'w, S> {
    /// Create a simulator; calls the strategy's [`CacheStrategy::begin`].
    pub fn new(workload: &'w Workload, cfg: SimConfig, strategy: S) -> Result<Self, SimError> {
        Simulator::with_capacity(
            workload,
            cfg,
            CapacitySchedule::fixed(cfg.cache_size),
            strategy,
        )
    }

    /// Create a simulator whose cache capacity follows `capacity`. The
    /// schedule's initial capacity must equal `cfg.cache_size` and its
    /// minimum must stay at or above the core count; the cache is
    /// allocated at the schedule's maximum and its limit moved at each
    /// change. [`CapacitySchedule::fixed`]`(cfg.cache_size)` reproduces
    /// [`Simulator::new`] exactly.
    pub fn with_capacity(
        workload: &'w Workload,
        cfg: SimConfig,
        capacity: CapacitySchedule,
        strategy: S,
    ) -> Result<Self, SimError> {
        Simulator::build(workload, cfg, capacity, strategy, false)
    }
}

impl<'w, S: CacheStrategy, W: Borrow<Workload>> Simulator<'w, S, W> {
    fn build(
        storage: W,
        cfg: SimConfig,
        capacity: CapacitySchedule,
        mut strategy: S,
        open: bool,
    ) -> Result<Self, SimError> {
        let workload = storage.borrow();
        cfg.validate(workload)?;
        if capacity.initial_k() != cfg.cache_size {
            return Err(ModelError::CapacityMismatch {
                config_k: cfg.cache_size,
                initial_k: capacity.initial_k(),
            }
            .into());
        }
        if capacity.min_k() < workload.num_cores() {
            return Err(ModelError::CapacityBelowCores {
                min_k: capacity.min_k(),
                cores: workload.num_cores(),
            }
            .into());
        }
        strategy.begin(workload, &cfg);
        let p = workload.num_cores();
        let admitted = workload.total_len();
        let mut cache = Cache::new(capacity.max_k(), p);
        cache.set_limit(cfg.cache_size);
        let defers = strategy.defers();
        Ok(Simulator {
            workload: storage,
            borrow: PhantomData,
            cfg,
            capacity,
            cap_idx: 0,
            strategy,
            cache,
            pos: vec![0; p],
            ready: vec![1; p],
            // Every core's first request issues at t = 1. Cores with none
            // are starved (open) or dead (closed) there.
            issue_next: (0..p as u32).collect(),
            issue_next_live: false,
            issue_later: VecDeque::with_capacity(p),
            pending_promote: vec![u32::MAX; p],
            defers,
            due_slot: vec![0; p],
            closed: vec![!open; p],
            open: if open { p } else { 0 },
            admitted,
            faults: vec![0; p],
            hits: vec![0; p],
            fault_times: vec![Vec::new(); p],
            makespan: 0,
            last_time: 0,
            voluntary_buf: Vec::new(),
            served_buf: Vec::with_capacity(p),
            due_buf: Vec::with_capacity(p),
            served: 0,
        })
    }

    /// The shared cache, for inspection between steps.
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Next request index of each core.
    pub fn positions(&self) -> &[usize] {
        &self.pos
    }

    /// Time at which each core's next request issues.
    pub fn ready_times(&self) -> &[Time] {
        &self.ready
    }

    /// The workload: for an incremental run, the requests admitted so far.
    pub(crate) fn workload(&self) -> &Workload {
        self.workload.borrow()
    }

    /// Faults so far, per core.
    pub(crate) fn faults(&self) -> &[u64] {
        &self.faults
    }

    /// Hits so far, per core.
    pub(crate) fn hits(&self) -> &[u64] {
        &self.hits
    }

    /// Issue times of the faults so far, per core, ascending.
    pub(crate) fn fault_times(&self) -> &[Vec<Time>] {
        &self.fault_times
    }

    /// Completion time of the last request served so far.
    pub(crate) fn makespan(&self) -> Time {
        self.makespan
    }

    /// `true` once every core is closed and every sequence has been fully
    /// served (offline runs close every core up front).
    pub fn finished(&self) -> bool {
        self.open == 0 && self.served == self.admitted
    }

    /// Whether `core` is closed.
    pub(crate) fn is_closed(&self, core: usize) -> bool {
        self.closed[core]
    }

    /// Commit every step the safe horizon allows; returns the number of
    /// requests served.
    pub(crate) fn advance(&mut self) -> Result<usize, SimError> {
        let before = self.served;
        while self.step_inner::<false>()?.is_some() {}
        Ok(self.served - before)
    }

    /// Pick the next timestep to serve and gather its due cores, in core
    /// order, into `due_buf`. `None` when every admitted request has been
    /// served, or when the safe horizon blocks the step.
    ///
    /// The step time is the earliest queued wake-up, unless the strategy
    /// declares an earlier non-stale voluntary time or a capacity change
    /// comes first. This implements the boundary contract documented on
    /// [`CacheStrategy::next_voluntary_time`]: stale declarations (at or
    /// before the last served timestep) are ignored so each step strictly
    /// advances time; a declaration coinciding with the next request folds
    /// into that step; and once no admitted request is left any
    /// declaration is dropped and the run ends.
    ///
    /// A starved core's wake-up takes part in the minimum, which gives
    /// the safe-horizon gate exactly: if it is due no later than the next
    /// request and the other events, the step time reaches it and the
    /// step is blocked; if an earlier event comes first, that event is
    /// the step, as it would be without the starved core.
    fn next_step(&mut self) -> Option<Time> {
        if self.served == self.admitted {
            return None;
        }
        let mut other = Time::MAX;
        if let Some(vt) = self.strategy.next_voluntary_time() {
            if vt > self.last_time {
                other = vt;
            }
        }
        if let Some((ct, _)) = self.capacity.next_change_after(self.last_time) {
            other = other.min(ct);
        }
        loop {
            // Every FIFO wake-up lies past `last_time`, so a non-empty
            // `issue_next` holds the earliest ones.
            let wake = if self.issue_next.is_empty() {
                self.issue_later
                    .front()
                    .map_or(Time::MAX, |&(time, _)| time)
            } else {
                self.last_time + 1
            };
            let t = wake.min(other);
            assert!(t != Time::MAX, "an unserved request has a wake-up");
            if !self.collect_due(t) {
                return None;
            }
            if !self.due_buf.is_empty() || t == other {
                return Some(t);
            }
            // Only dead wake-ups were due at `t`: they create no step.
        }
    }

    /// Gather the wake-ups due at `t` into `due_buf`, in core order:
    /// `issue_next` (due iff `t == last_time + 1`, and then entirely)
    /// merged with the FIFO's run at `t`. Returns `false`, and consumes
    /// nothing, when a starved open core is due: the safe horizon blocks
    /// the step.
    fn collect_due(&mut self, t: Time) -> bool {
        self.due_buf.clear();
        let later_due = matches!(self.issue_later.front(), Some(&(time, _)) if time == t);
        if self.issue_next_live && !later_due {
            // The due set is `issue_next` verbatim. `due_buf` was just
            // cleared, so the swap leaves `issue_next` empty.
            std::mem::swap(&mut self.due_buf, &mut self.issue_next);
            return true;
        }
        let workload: &Workload = self.workload.borrow();
        let (mut next, mut later) = (0, 0);
        let mut idle = false;
        loop {
            let from_later = match self.issue_later.get(later) {
                Some(&(time, core)) if time == t => Some(core),
                _ => None,
            };
            let core = match (self.issue_next.get(next), from_later) {
                (Some(&a), Some(b)) if a < b => {
                    next += 1;
                    a
                }
                (_, Some(b)) => {
                    later += 1;
                    b
                }
                (Some(&a), None) => {
                    next += 1;
                    a
                }
                (None, None) => break,
            };
            if self.pos[core as usize] < workload.len(core as usize) {
                self.due_buf.push(core);
            } else {
                idle = true;
                self.due_buf.push(core | IDLE);
            }
        }
        if idle && !self.settle_idle(t) {
            return false;
        }
        self.issue_next.clear();
        self.issue_later.drain(..later);
        true
    }

    /// Sort the [`IDLE`] cores out of a due run. A starved one blocks the
    /// step (the run is discarded); otherwise every one is dead, and its
    /// wake-up is dropped after completing the fetch riding it.
    #[cold]
    #[inline(never)]
    fn settle_idle(&mut self, t: Time) -> bool {
        let closed = &self.closed;
        let starved = |core: u32| core & IDLE != 0 && !closed[(core & !IDLE) as usize];
        if self.due_buf.iter().any(|&core| starved(core)) {
            self.due_buf.clear();
            return false;
        }
        for &core in &self.due_buf {
            if core & IDLE != 0 {
                let pending = &mut self.pending_promote[(core & !IDLE) as usize];
                if *pending != u32::MAX {
                    self.cache.promote_cell(*pending as usize, t);
                    *pending = u32::MAX;
                }
            }
        }
        self.due_buf.retain(|&core| core & IDLE == 0);
        true
    }

    /// Serve one timestep (the next time at which any request is due).
    /// Returns `Ok(None)` when every sequence is finished — or, in an
    /// incremental run, when the safe horizon forbids the next step.
    pub fn step(&mut self) -> Result<Option<StepReport>, SimError> {
        match self.step_inner::<true>()? {
            None => Ok(None),
            Some(t) => Ok(Some(StepReport {
                time: t,
                voluntary: std::mem::take(&mut self.voluntary_buf),
                served: std::mem::take(&mut self.served_buf),
            })),
        }
    }

    /// Serve one timestep into the persistent buffers, returning the time
    /// served (`None` once every sequence is finished, or when the safe
    /// horizon blocks). [`Simulator::run`] drives this directly, so the
    /// hot path performs no per-step allocation; [`Simulator::step`]
    /// wraps the buffers into a [`StepReport`] for callers that want the
    /// trace. Only `TRACE` steps record [`Served`] entries: untraced runs
    /// never read them, and on dense traffic writing one per request cost
    /// about 1.5 ns of a ~27 ns request.
    fn step_inner<const TRACE: bool>(&mut self) -> Result<Option<Time>, SimError> {
        let Some(t) = self.next_step() else {
            return Ok(None);
        };
        self.last_time = t;
        self.voluntary_buf.clear();
        if TRACE {
            self.served_buf.clear();
        }

        if self.defers {
            self.defer_due(t);
        }

        // Pin every page requested this parallel step *before* the strategy
        // gets to evict voluntarily: parallel reads require `R(x) ⊆ C'`
        // (Algorithms 1 and 2), so evicting a page that is requested at `t`
        // must fail even when the eviction is voluntary.
        // Detach the due list so the loops below can iterate it while
        // borrowing `self` mutably (restored before returning).
        let due = std::mem::take(&mut self.due_buf);
        let workload: &Workload = self.workload.borrow();
        for &core in &due {
            let core = core as usize;
            // Entering the due set consumes the core's own completed
            // fetch, if one was riding its wake-up (see
            // [`Simulator::pending_promote`]); promotion order across
            // cells is immaterial and pinning does not read cell states,
            // so interleaving with the pin loop is unobservable.
            let pending = self.pending_promote[core];
            if pending != u32::MAX {
                self.cache.promote_cell(pending as usize, t);
                self.pending_promote[core] = u32::MAX;
            }
            // Resolve the request's cache slot once: the lookup and the
            // fetch below reuse it instead of probing the page map again.
            let slot = self.cache.intern(workload.sequence(core)[self.pos[core]]);
            self.cache.pin_slot(slot);
            self.due_slot[core] = slot;
        }

        // Capacity changes due at `t` apply after pinning (the pages
        // requested this step stay in the configuration, `R(x) ⊆ C'`) and
        // before the strategy's own voluntary evictions; shrink evictions
        // are traced like voluntary ones.
        apply_capacity_step(
            t,
            &self.capacity,
            &mut self.cap_idx,
            &mut self.cache,
            &mut self.strategy,
            &mut self.voluntary_buf,
        )?;

        for cell in self.strategy.voluntary_evictions(t, &self.cache) {
            if !matches!(self.cache.cell(cell), crate::cache::CellState::Present(_)) {
                return Err(SimError::BadVoluntaryEviction { cell });
            }
            let page = self.cache.evict(cell)?;
            self.strategy.on_evict(page, cell);
            self.voluntary_buf.push((cell, page));
        }

        // Serve in due (= increasing core) order. Every served core
        // queues its wake-up, also after its last admitted request (a
        // starved core waits in the queue; a dead one is dropped when
        // due). Re-arming for `t + 1` — every hit, and every fault when
        // τ = 0 — is the overwhelmingly common case on dense workloads,
        // so it is not queued per core: if EVERY due core re-armed for
        // `t + 1`, the next `issue_next` is the due list verbatim (same
        // cores, same order) and is installed by one swap after the loop;
        // only `t + τ + 1` wake-ups are appended inline, and the mixed
        // case rebuilds `issue_next` by filtering `due`.
        let mut all_next = true;
        let mut all_live = true;
        for &core in &due {
            let core = core as usize;
            let seq = workload.sequence(core);
            let index = self.pos[core];
            let page = seq[index];
            let slot = self.due_slot[core];
            let outcome = match self.cache.lookup_slot(slot) {
                Lookup::Present { cell } => {
                    self.hits[core] += 1;
                    debug_assert_eq!(self.cache.cell_of(page), Some(cell));
                    self.strategy.on_hit(core, page, t, cell, &self.cache);
                    self.ready[core] = t + 1;
                    self.makespan = self.makespan.max(t);
                    Outcome::Hit
                }
                Lookup::Fetching { cell, .. } => {
                    // In flight for another core (same core cannot be
                    // mid-fetch while issuing). Fault, no new cell.
                    self.faults[core] += 1;
                    self.fault_times[core].push(t);
                    debug_assert_eq!(self.cache.cell_of(page), Some(cell));
                    self.strategy
                        .on_shared_fetch_miss(core, page, t, cell, &self.cache);
                    self.ready[core] = t + self.cfg.tau + 1;
                    self.makespan = self.makespan.max(t + self.cfg.tau);
                    Outcome::SharedFetchMiss
                }
                Lookup::Absent => {
                    self.faults[core] += 1;
                    self.fault_times[core].push(t);
                    let cell = self.strategy.choose_cell(core, page, t, &self.cache);
                    let evicted = match self.cache.cell(cell) {
                        crate::cache::CellState::Present(_) => {
                            let victim = self.cache.evict(cell)?;
                            self.strategy.on_evict(victim, cell);
                            Some(victim)
                        }
                        crate::cache::CellState::Empty => None,
                        crate::cache::CellState::Fetching { .. } => {
                            return Err(SimError::Cache(CacheError::EvictFetching { cell }));
                        }
                    };
                    self.cache
                        .start_fetch_slot(cell, slot, core, t + self.cfg.tau + 1)?;
                    // The completion coincides with this core's next
                    // wake-up, which is always queued: it rides that.
                    self.pending_promote[core] = cell as u32;
                    self.strategy.on_fault(core, page, t, cell, &self.cache);
                    self.ready[core] = t + self.cfg.tau + 1;
                    self.makespan = self.makespan.max(t + self.cfg.tau);
                    Outcome::Fault { cell, evicted }
                }
            };
            self.pos[core] += 1;
            all_live &= index + 1 < seq.len();
            // Re-arm the core's clock: its next request issues at the
            // just-computed ready time (t + 1 on a hit, t + τ + 1 on
            // either kind of fault), always strictly after t. Every step
            // appends its `t + τ + 1` wake-ups in core order, and step
            // times increase, so the FIFO stays sorted.
            let ready = self.ready[core];
            if ready != t + 1 {
                all_next = false;
                debug_assert!(
                    self.issue_later.back() <= Some(&(ready, core as u32)),
                    "wake-up FIFO out of order"
                );
                self.issue_later.push_back((ready, core as u32));
            }
            if TRACE {
                self.served_buf.push(Served {
                    core,
                    index,
                    page,
                    outcome,
                });
            }
        }
        self.served += due.len();
        // Deferred cores (stall model only) already wait in `issue_next`;
        // otherwise it was drained by due collection.
        let deferred = !self.issue_next.is_empty();
        if all_next && !deferred {
            // The swap leaves `due_buf` empty for the next step.
            self.due_buf = std::mem::replace(&mut self.issue_next, due);
        } else {
            for &core in &due {
                if self.ready[core as usize] == t + 1 {
                    self.issue_next.push(core);
                }
            }
            if deferred {
                self.issue_next.sort_unstable();
            }
            self.due_buf = due;
        }
        self.issue_next_live = all_live;
        self.cache.clear_pins();
        Ok(Some(t))
    }

    /// Ask the strategy, in core order, whether to defer each due core
    /// (stall-model strategies only). Every fetch due by `t` completes
    /// first, so the strategy sees the cache the step will serve from.
    /// A deferred core leaves the due set before pins, and its wake-up
    /// moves to `t + 1`: into `issue_next`, in core order.
    #[cold]
    #[inline(never)]
    fn defer_due(&mut self, t: Time) {
        for &core in &self.due_buf {
            let pending = std::mem::replace(&mut self.pending_promote[core as usize], u32::MAX);
            if pending != u32::MAX {
                self.cache.promote_cell(pending as usize, t);
            }
        }
        let workload: &Workload = self.workload.borrow();
        let mut kept = 0;
        for i in 0..self.due_buf.len() {
            let core = self.due_buf[i] as usize;
            let page = workload.sequence(core)[self.pos[core]];
            if self.strategy.defer(core, page, t, &self.cache) {
                self.ready[core] = t + 1;
                self.issue_next.push(core as u32);
            } else {
                self.due_buf[kept] = core as u32;
                kept += 1;
            }
        }
        self.due_buf.truncate(kept);
    }

    /// Run to completion and return the aggregate result.
    pub fn run(mut self) -> Result<SimResult, SimError> {
        while self.step_inner::<false>()?.is_some() {}
        Ok(self.into_result())
    }

    /// Run to completion, additionally collecting every [`StepReport`]
    /// (one per non-empty timestep) — the full event trace.
    pub fn run_with_trace(mut self) -> Result<(SimResult, Vec<StepReport>), SimError> {
        let mut trace = Vec::new();
        while let Some(report) = self.step()? {
            trace.push(report);
        }
        Ok((self.into_result(), trace))
    }

    fn into_result(self) -> SimResult {
        self.into_parts().0
    }

    /// The aggregate result so far, plus the workload (for an incremental
    /// run: the admitted log).
    pub(crate) fn into_parts(self) -> (SimResult, W) {
        let result = SimResult {
            faults: self.faults,
            hits: self.hits,
            makespan: self.makespan,
            fault_times: self.fault_times,
            config: self.cfg,
        };
        (result, self.workload)
    }
}

/// Apply every capacity change due at `t` and evict down to the limit —
/// the per-step capacity transition of the engine (the oracle crate's
/// naive reference re-implements it independently, as it does every
/// rule).
///
/// Ordering within the step: the limit moves and
/// [`CacheStrategy::on_capacity_change`] fires for each change due by
/// `t` (in schedule order), then shrink evictions bring occupancy back
/// to the limit, strategy-chosen first
/// ([`CacheStrategy::shrink_victims`]) with a lowest-index-evictable
/// fallback covering any shortfall. Pinned and in-flight cells cannot be
/// evicted; if they alone exceed the limit, the remaining debt carries
/// into subsequent steps (this function also settles such debt on steps
/// with no change of their own). Shrink evictions are appended to
/// `voluntary_buf`, so they are charged and traced exactly like
/// voluntary evictions.
///
/// Under [`CapacitySchedule::fixed`] both loops are dead: the fixed path
/// costs two comparisons per step and changes no behavior.
fn apply_capacity_step<S: CacheStrategy>(
    t: Time,
    capacity: &CapacitySchedule,
    cap_idx: &mut usize,
    cache: &mut Cache,
    strategy: &mut S,
    voluntary_buf: &mut Vec<(usize, PageId)>,
) -> Result<(), SimError> {
    let changes = capacity.changes();
    while *cap_idx < changes.len() && changes[*cap_idx].0 <= t {
        let (_, k) = changes[*cap_idx];
        *cap_idx += 1;
        cache.set_limit(k);
        strategy.on_capacity_change(t, k, cache);
    }
    while cache.over_limit() > 0 {
        let need = cache.over_limit();
        let victims = strategy.shrink_victims(need, t, cache);
        let mut progress = false;
        for cell in victims.into_iter().take(need) {
            if cache.over_limit() == 0 {
                break;
            }
            if !matches!(cache.cell(cell), crate::cache::CellState::Present(_)) {
                return Err(SimError::BadShrinkEviction { cell });
            }
            let page = cache.evict(cell)?;
            strategy.on_evict(page, cell);
            voluntary_buf.push((cell, page));
            progress = true;
        }
        if !progress {
            // The strategy under-delivered: cover the shortfall with the
            // lowest-index evictable cell, or carry the debt if nothing
            // is evictable (every occupied cell pinned or mid-fetch).
            let Some(cell) = cache.evictable_cells().map(|(i, _, _)| i).next() else {
                break;
            };
            let page = cache.evict(cell)?;
            strategy.on_evict(page, cell);
            voluntary_buf.push((cell, page));
        }
    }
    Ok(())
}

/// Run `strategy` on `workload` under `cfg` and return the result.
pub fn simulate<S: CacheStrategy>(
    workload: &Workload,
    cfg: SimConfig,
    strategy: S,
) -> Result<SimResult, SimError> {
    Simulator::new(workload, cfg, strategy)?.run()
}

/// Run `strategy` on `workload` under `cfg` with cache capacity following
/// `capacity` (see [`CapacitySchedule`]).
pub fn simulate_with_capacity<S: CacheStrategy>(
    workload: &Workload,
    cfg: SimConfig,
    capacity: CapacitySchedule,
    strategy: S,
) -> Result<SimResult, SimError> {
    Simulator::with_capacity(workload, cfg, capacity, strategy)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Evicts the lowest-indexed present cell; uses empty cells first.
    struct FirstFit;
    impl CacheStrategy for FirstFit {
        fn name(&self) -> String {
            "FirstFit".into()
        }
        fn choose_cell(&mut self, _c: usize, _p: PageId, _t: Time, cache: &Cache) -> usize {
            cache
                .empty_cell()
                .or_else(|| cache.evictable_cells().map(|(i, _, _)| i).next())
                .expect("a victim always exists when K >= p")
        }
    }

    fn w(seqs: &[&[u32]]) -> Workload {
        Workload::from_u32(seqs.iter().map(|s| s.to_vec())).unwrap()
    }

    #[test]
    fn single_core_timing_with_tau() {
        // [a, b] with K=2, tau=3: a faults at 1 (done 4), b at 5 (done 8).
        let wl = w(&[&[1, 2]]);
        let r = simulate(&wl, SimConfig::new(2, 3), FirstFit).unwrap();
        assert_eq!(r.faults, vec![2]);
        assert_eq!(r.hits, vec![0]);
        assert_eq!(r.fault_times[0], vec![1, 5]);
        assert_eq!(r.makespan, 8);
    }

    #[test]
    fn refetch_becomes_hit_exactly_when_ready() {
        // [a, a] with K=1, tau=3: fault at 1, page ready at 5; second
        // request issues at 5 and hits.
        let wl = w(&[&[1, 1]]);
        let r = simulate(&wl, SimConfig::new(1, 3), FirstFit).unwrap();
        assert_eq!(r.faults, vec![1]);
        assert_eq!(r.hits, vec![1]);
        assert_eq!(r.makespan, 5);
    }

    #[test]
    fn tau_zero_means_unit_time_faults() {
        let wl = w(&[&[1, 2, 1, 2]]);
        let r = simulate(&wl, SimConfig::new(2, 0), FirstFit).unwrap();
        assert_eq!(r.total_faults(), 2);
        assert_eq!(r.total_hits(), 2);
        assert_eq!(r.makespan, 4);
    }

    #[test]
    fn fault_delays_accumulate() {
        // Three distinct pages, K=3, tau=2: faults at t = 1, 4, 7.
        let wl = w(&[&[1, 2, 3]]);
        let r = simulate(&wl, SimConfig::new(3, 2), FirstFit).unwrap();
        assert_eq!(r.fault_times[0], vec![1, 4, 7]);
        assert_eq!(r.makespan, 9);
    }

    #[test]
    fn logical_order_within_timestep() {
        // Both cores request page 1 at t=1 (non-disjoint). Core 0 faults
        // and starts the fetch; core 1 sees the in-flight fetch and takes a
        // shared-fetch miss without consuming a second cell.
        let wl = w(&[&[1], &[1]]);
        let mut sim = Simulator::new(&wl, SimConfig::new(2, 4), FirstFit).unwrap();
        let report = sim.step().unwrap().unwrap();
        assert_eq!(report.served.len(), 2);
        assert!(matches!(report.served[0].outcome, Outcome::Fault { .. }));
        assert_eq!(report.served[1].outcome, Outcome::SharedFetchMiss);
        assert_eq!(sim.cache().occupied(), 1);
        let r = sim.run().unwrap();
        assert_eq!(r.faults, vec![1, 1]);
    }

    #[test]
    fn later_core_hits_page_fetched_long_before() {
        // Core 0 brings page 1 in at t=1 (ready at 3, tau=2). Core 1 first
        // requests its own page (fault, delayed to t=4), then page 1 at
        // t=4, by which time it is resident: a hit.
        let wl = w(&[&[1], &[2, 1]]);
        let r = simulate(&wl, SimConfig::new(3, 2), FirstFit).unwrap();
        assert_eq!(r.faults, vec![1, 1]);
        assert_eq!(r.hits, vec![0, 1]);
    }

    #[test]
    fn parallel_service_no_cross_core_delay() {
        // Disjoint single-page loops: each core faults once then hits.
        // Faults on one core must not delay the other.
        let wl = w(&[&[1, 1, 1], &[2, 2, 2]]);
        let r = simulate(&wl, SimConfig::new(2, 5), FirstFit).unwrap();
        assert_eq!(r.faults, vec![1, 1]);
        assert_eq!(r.hits, vec![2, 2]);
        // Fault at 1, hits at 7 and 8 on both cores.
        assert_eq!(r.makespan, 8);
    }

    #[test]
    fn faults_at_checkpoints() {
        let wl = w(&[&[1, 2, 3]]);
        let r = simulate(&wl, SimConfig::new(3, 2), FirstFit).unwrap();
        // Fault issue times: 1, 4, 7.
        assert_eq!(r.faults_at(0, 0), 0);
        assert_eq!(r.faults_at(0, 1), 1);
        assert_eq!(r.faults_at(0, 3), 1);
        assert_eq!(r.faults_at(0, 4), 2);
        assert_eq!(r.faults_at(0, 100), 3);
        assert_eq!(r.fault_vector_at(4), vec![2]);
    }

    #[test]
    fn empty_workload_is_trivial() {
        let wl = w(&[&[], &[]]);
        let r = simulate(&wl, SimConfig::new(2, 3), FirstFit).unwrap();
        assert_eq!(r.total_faults(), 0);
        assert_eq!(r.makespan, 0);
    }

    /// Voluntarily evicts page 1 at `at`, wherever it is resident (a
    /// dishonest strategy used to probe voluntary-eviction semantics);
    /// with `defer`, also defers the request for page 1 due at `at`.
    struct ForcingEvict {
        at: Time,
        defer: bool,
    }
    impl CacheStrategy for ForcingEvict {
        fn name(&self) -> String {
            "ForcingEvict".into()
        }
        fn choose_cell(&mut self, _c: usize, _p: PageId, _t: Time, cache: &Cache) -> usize {
            cache
                .empty_cell()
                .or_else(|| cache.evictable_cells().map(|(i, _, _)| i).next())
                .unwrap()
        }
        fn voluntary_evictions(&mut self, time: Time, cache: &Cache) -> Vec<usize> {
            if time == self.at {
                cache
                    .present_cells()
                    .filter(|(_, p, _)| *p == PageId(1))
                    .map(|(i, _, _)| i)
                    .collect()
            } else {
                Vec::new()
            }
        }
        fn defers(&self) -> bool {
            self.defer
        }
        fn defer(&mut self, _core: usize, page: PageId, time: Time, _cache: &Cache) -> bool {
            page == PageId(1) && time == self.at
        }
    }

    #[test]
    fn voluntary_evictions_apply_before_service() {
        // [1, 2, 1] K=3 tau=0: honest would fault twice; evicting page 1
        // at t=2 (while page 2 is being served) forces a third fault at t=3.
        let wl = w(&[&[1, 2, 1]]);
        let forcing = ForcingEvict {
            at: 2,
            defer: false,
        };
        let r = simulate(&wl, SimConfig::new(3, 0), forcing).unwrap();
        assert_eq!(r.total_faults(), 3);
    }

    #[test]
    fn same_step_voluntary_eviction_of_requested_page_is_rejected() {
        // Page 1 is requested again at t=3; a voluntary eviction of it in
        // that very step would violate R(x) ⊆ C', so the engine pins due
        // pages first and surfaces the attempt as EvictPinned.
        let wl = w(&[&[1, 2, 1]]);
        let forcing = ForcingEvict {
            at: 3,
            defer: false,
        };
        let err = simulate(&wl, SimConfig::new(3, 0), forcing).unwrap_err();
        assert_eq!(err, SimError::Cache(CacheError::EvictPinned { cell: 0 }));
    }

    #[test]
    fn deferred_core_leaves_its_page_unpinned() {
        // Page 1 is resident at t=2, when core 1 requests it again. Served,
        // core 1 would pin it and the voluntary eviction would fail (as in
        // the test above); deferred, it pins nothing, the eviction goes
        // through, and the request re-issues at t=3 as a fault.
        let wl = w(&[&[2, 2, 2], &[1, 1]]);
        let forcing = ForcingEvict { at: 2, defer: true };
        let mut sim = Simulator::new(&wl, SimConfig::new(3, 0), forcing).unwrap();
        sim.step().unwrap();
        let step2 = sim.step().unwrap().unwrap();
        assert_eq!(step2.voluntary, vec![(1, PageId(1))]);
        assert_eq!(step2.served.len(), 1, "only core 0 is served at t=2");
        assert_eq!(sim.ready_times()[1], 3);
        let r = sim.run().unwrap();
        assert_eq!((r.faults, r.hits), (vec![1, 2], vec![2, 0]));
        assert_eq!(r.fault_times[1], vec![1, 3]);
    }

    #[test]
    fn invalid_voluntary_eviction_is_an_error() {
        struct Bad;
        impl CacheStrategy for Bad {
            fn name(&self) -> String {
                "Bad".into()
            }
            fn choose_cell(&mut self, _c: usize, _p: PageId, _t: Time, cache: &Cache) -> usize {
                cache.empty_cell().unwrap()
            }
            fn voluntary_evictions(&mut self, _t: Time, _c: &Cache) -> Vec<usize> {
                vec![0] // cell 0 is empty at t=1
            }
        }
        let wl = w(&[&[1]]);
        assert_eq!(
            simulate(&wl, SimConfig::new(1, 0), Bad).unwrap_err(),
            SimError::BadVoluntaryEviction { cell: 0 }
        );
    }

    #[test]
    fn choosing_a_fetching_cell_is_an_error() {
        struct Bad;
        impl CacheStrategy for Bad {
            fn name(&self) -> String {
                "Bad".into()
            }
            fn choose_cell(&mut self, _c: usize, _p: PageId, _t: Time, _cache: &Cache) -> usize {
                0 // always cell 0, even when it is mid-fetch
            }
        }
        // Two cores fault simultaneously; core 1's placement targets the
        // cell core 0 is fetching into.
        let wl = w(&[&[1], &[2]]);
        let err = simulate(&wl, SimConfig::new(2, 3), Bad).unwrap_err();
        assert_eq!(err, SimError::Cache(CacheError::EvictFetching { cell: 0 }));
    }

    #[test]
    fn trace_matches_aggregate_result() {
        let wl = w(&[&[1, 2, 1, 2], &[7, 7, 8, 8]]);
        let cfg = SimConfig::new(3, 2);
        let sim = Simulator::new(&wl, cfg, FirstFit).unwrap();
        let (result, trace) = sim.run_with_trace().unwrap();
        let baseline = simulate(&wl, cfg, FirstFit).unwrap();
        assert_eq!(result, baseline);
        // Every served request appears exactly once in the trace.
        let served: usize = trace.iter().map(|s| s.served.len()).sum();
        assert_eq!(served, wl.total_len());
        // Trace times strictly increase and faults in the trace agree.
        assert!(trace.windows(2).all(|w| w[0].time < w[1].time));
        let traced_faults = trace
            .iter()
            .flat_map(|s| &s.served)
            .filter(|s| !matches!(s.outcome, Outcome::Hit))
            .count() as u64;
        assert_eq!(traced_faults, result.total_faults());
    }

    #[test]
    fn finished_cores_wake_ups_create_no_step() {
        // τ = 2. Core 0's last request hits at t = 4, so its wake-up at
        // t = 5 is dead: no step at 5. Core 1 is next due at 7.
        let wl = w(&[&[1, 1], &[2, 3, 2]]);
        let (r, trace) = Simulator::new(&wl, SimConfig::new(3, 2), FirstFit)
            .unwrap()
            .run_with_trace()
            .unwrap();
        let times: Vec<Time> = trace.iter().map(|s| s.time).collect();
        assert_eq!(times, vec![1, 4, 7]);
        assert_eq!((r.faults, r.hits), (vec![1, 2], vec![1, 1]));

        // Core 0's last request faults at t = 4 on page 5; the fetch rides
        // its dead wake-up at t = 7, which creates no step but completes
        // the fetch, so core 1's request for page 5 at t = 8 hits.
        let wl = w(&[&[1, 5], &[2, 2, 3, 5]]);
        let (r, trace) = Simulator::new(&wl, SimConfig::new(4, 2), FirstFit)
            .unwrap()
            .run_with_trace()
            .unwrap();
        let times: Vec<Time> = trace.iter().map(|s| s.time).collect();
        assert_eq!(times, vec![1, 4, 5, 8]);
        assert_eq!(trace[3].served[0].outcome, Outcome::Hit);
        assert_eq!((r.faults, r.hits), (vec![2, 2], vec![0, 2]));
    }

    #[test]
    fn makespan_counts_trailing_fetch() {
        // Last request is a miss at t=1 with tau=4: completes at 5.
        let wl = w(&[&[1]]);
        let r = simulate(&wl, SimConfig::new(1, 4), FirstFit).unwrap();
        assert_eq!(r.makespan, 5);
    }

    #[test]
    fn capacity_drop_evicts_before_serving() {
        // [1, 2, 3, 1] with K=3, tau=0 and a drop to K=2 at t=4: pages
        // 1..3 are resident after t=3; the shrink at t=4 evicts the
        // lowest-index evictable cell not pinned by the t=4 request.
        // Page 1 is requested (and pinned) at t=4, so the shrink evicts
        // page 2 (cell 1) and page 1 still hits.
        let wl = w(&[&[1, 2, 3, 1]]);
        let cap: CapacitySchedule = "3,2@4".parse().unwrap();
        let (r, trace) = Simulator::with_capacity(&wl, SimConfig::new(3, 0), cap, FirstFit)
            .unwrap()
            .run_with_trace()
            .unwrap();
        assert_eq!(r.total_faults(), 3);
        assert_eq!(r.total_hits(), 1);
        let step4 = trace.iter().find(|s| s.time == 4).unwrap();
        assert_eq!(step4.voluntary, vec![(1, PageId(2))]);
        assert!(matches!(step4.served[0].outcome, Outcome::Hit));
    }

    #[test]
    fn capacity_drop_at_quiet_time_is_observable() {
        // [1, 2, 1] with tau=2, K=3 dropping to 1 at t=5. The core is
        // mid-fetch over 4..7 (page 2), so t=5 is a quiet timestep the
        // engine would normally skip — but the capacity change forces a
        // served step there, and the shrink evicts the resident page 1
        // (page 2 is mid-fetch, unevictable). The third request then
        // misses where a skipped shrink would have hit.
        let wl = w(&[&[1, 2, 1]]);
        let cap: CapacitySchedule = "3,1@5".parse().unwrap();
        let (r, trace) = Simulator::with_capacity(&wl, SimConfig::new(3, 2), cap, FirstFit)
            .unwrap()
            .run_with_trace()
            .unwrap();
        let step5 = trace.iter().find(|s| s.time == 5).unwrap();
        assert!(step5.served.is_empty());
        assert_eq!(step5.voluntary, vec![(0, PageId(1))]);
        assert_eq!(r.total_faults(), 3);
        assert_eq!(r.total_hits(), 0);
    }

    #[test]
    fn capacity_growth_reopens_cells() {
        // K=2 shrunk... rather grown: [1,2,3,1] K=2 grows to 3 at t=3.
        // Fixed K=2 would evict page 1 on page 3's fault; with growth the
        // empty third cell absorbs page 3 and page 1 still hits.
        let wl = w(&[&[1, 2, 3, 1]]);
        let cap: CapacitySchedule = "2,3@3".parse().unwrap();
        let r = simulate_with_capacity(&wl, SimConfig::new(2, 0), cap, FirstFit).unwrap();
        assert_eq!(r.total_faults(), 3);
        assert_eq!(r.total_hits(), 1);
        let fixed = simulate(&wl, SimConfig::new(2, 0), FirstFit).unwrap();
        assert_eq!(fixed.total_faults(), 4);
    }

    #[test]
    fn fixed_capacity_schedule_is_bit_identical() {
        let wl = w(&[&[1, 2, 1, 2, 3, 1], &[7, 7, 8, 8, 7, 9]]);
        let cfg = SimConfig::new(3, 2);
        let (plain, plain_trace) = Simulator::new(&wl, cfg, FirstFit)
            .unwrap()
            .run_with_trace()
            .unwrap();
        let (fixed, fixed_trace) =
            Simulator::with_capacity(&wl, cfg, CapacitySchedule::fixed(3), FirstFit)
                .unwrap()
                .run_with_trace()
                .unwrap();
        assert_eq!(plain, fixed);
        assert_eq!(plain_trace, fixed_trace);
    }

    #[test]
    fn capacity_validation_errors() {
        let wl = w(&[&[1], &[2]]);
        let cfg = SimConfig::new(4, 0);
        let err = Simulator::with_capacity(&wl, cfg, "4,1@5".parse().unwrap(), FirstFit)
            .err()
            .unwrap();
        assert_eq!(
            err,
            SimError::Model(ModelError::CapacityBelowCores { min_k: 1, cores: 2 })
        );
        let err = Simulator::with_capacity(&wl, cfg, CapacitySchedule::fixed(5), FirstFit)
            .err()
            .unwrap();
        assert_eq!(
            err,
            SimError::Model(ModelError::CapacityMismatch {
                config_k: 4,
                initial_k: 5
            })
        );
    }

    #[test]
    fn post_final_capacity_changes_are_dropped() {
        let wl = w(&[&[1, 2]]);
        let cfg = SimConfig::new(2, 0);
        let cap: CapacitySchedule = "2,3@100".parse().unwrap();
        let (r, trace) = Simulator::with_capacity(&wl, cfg, cap, FirstFit)
            .unwrap()
            .run_with_trace()
            .unwrap();
        let (pr, pt) = Simulator::new(&wl, cfg, FirstFit)
            .unwrap()
            .run_with_trace()
            .unwrap();
        assert_eq!(r, pr);
        assert_eq!(trace, pt);
    }
}
