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
//! rather than a per-step core scan (DESIGN §11). Wake-ups live in
//! min-queues keyed by `(next_time, component_id)`:
//!
//! * **request-issue events** — exactly one live entry per unfinished
//!   core, keyed by the core's clock (the time its next request issues);
//! * **fetch-completion events** — drained at the start of each served
//!   step so every fetch due by `t` reads as `Present` before pins,
//!   voluntary evictions, and service (exactly the old lazy
//!   `promote_due`). A fetch completes exactly when its core's next
//!   request issues, so for non-final requests the completion rides the
//!   core's own issue wake-up (`pending_promote`); only fetches started
//!   by a core's final request get their own heap entry;
//! * **strategy-declared voluntary times** — consulted from
//!   [`crate::CacheStrategy::next_voluntary_time`] before each step (the
//!   declaration may move after every step, so it is re-read rather than
//!   queued; the boundary contract is documented on the trait method).
//!
//! Popping `(time, core)` pairs from a min-heap yields, for a given
//! timestep, exactly the due cores in increasing core order — the model's
//! fixed logical order — so within-step semantics (promote due fetches,
//! then pins, then voluntary evictions, then service in core order with
//! shared-fetch-miss charging) are preserved *by construction*, and the
//! engine is bit-identical to the oracle crate's naive tick-by-tick
//! reference. Cost is `O(events · log p)` instead of a per-step core
//! scan's `O(steps · p)` — on sparse or large-τ workloads, where most
//! timesteps are idle and served steps touch one core, that is the
//! difference between `O(n·p)` and `O(n·log p)` total.
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
//! Starved cores wait in a min-queue keyed `(ready, core)` with lazy
//! deletion, so the gate costs `O(log p)` amortized; offline runs close
//! every core up front, and the gate is one branch.

use crate::cache::{Cache, CacheError, Lookup};
use crate::capacity::CapacitySchedule;
use crate::online::OnlineError;
use crate::strategy::CacheStrategy;
use crate::types::{ModelError, PageId, SimConfig, Time, Workload};
use std::borrow::Borrow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::marker::PhantomData;

/// Pack a `(time, component_id)` wake-up into one `u128` heap key:
/// time in the high 96 bits, id in the low 32. Integer order on the
/// packed key is exactly lexicographic `(time, id)` order, so a min-heap
/// of packed keys pops wake-ups time-ascending and, within a timestep,
/// id-ascending — while comparisons and sift moves touch a single
/// scalar instead of a two-field tuple.
#[inline]
fn pack(time: Time, id: u32) -> u128 {
    ((time as u128) << 32) | id as u128
}

/// The `time` half of a packed wake-up key.
#[inline]
fn key_time(key: u128) -> Time {
    (key >> 32) as Time
}

/// The `component_id` half of a packed wake-up key.
#[inline]
fn key_id(key: u128) -> u32 {
    key as u32
}

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
/// live in a min-queue of `(next_time, core)` wake-ups, fetch completions
/// are first-class events, and idle time is skipped outright.
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
    /// [`Simulator::next_event_time_with`] mins the next change into the
    /// step time, so idle-gap skipping stays exact and shrink evictions
    /// land exactly at the change time.
    capacity: CapacitySchedule,
    /// Cursor into `capacity.changes()`: changes before it are applied.
    cap_idx: usize,
    strategy: S,
    cache: Cache,
    pos: Vec<usize>,
    ready: Vec<Time>,
    /// Request-issue wake-ups, keyed [`pack`]`(issue_time, core)`.
    /// Invariant: exactly one live entry per core with an unserved
    /// request — an entry is popped only when its core is due at that
    /// time, serving pushes the core's next wake-up (if any remain),
    /// deferring pushes the same request's at `t + 1`, and
    /// [`Simulator::push`] re-arms a starved core — so no entry is ever
    /// stale.
    issue: BinaryHeap<Reverse<u128>>,
    /// Cores whose next request issues at exactly `last_time + 1` — the
    /// dense fast path. A hit (and any fault when `τ = 0`) re-arms for
    /// the immediately following timestep, so in dense regimes every
    /// wake-up would be pushed and re-popped with the same key; instead
    /// such cores are appended here (in serve order, hence ascending core
    /// order) and merged with the heap's due entries at the next step.
    /// Invariant: non-empty only until the next served step, which (see
    /// [`Simulator::next_event_time_with`]) is then exactly
    /// `last_time + 1` and drains it entirely.
    issue_next: Vec<u32>,
    /// Fetch-completion wake-ups, keyed [`pack`]`(ready_at, cell)` — one
    /// per in-flight fetch started by a core's last admitted request (all
    /// others ride the core's own issue wake-up, see
    /// [`Simulator::pending_promote`]). A fetching cell cannot be
    /// evicted, and a cell is re-fetched only after its previous
    /// completion was drained (residency precedes eviction), so no entry
    /// is ever stale here either.
    completions: BinaryHeap<Reverse<u128>>,
    /// `pending_promote[core]` is the cell whose fetch — started by this
    /// core's *non-final* request — completes exactly when the core's
    /// next request issues (`u32::MAX` when none). Such a completion
    /// needs no heap entry: the core is in the due set of the first
    /// served step at or past its ready time (that is what its issue
    /// wake-up means), which is precisely the step where the heap drain
    /// would have promoted the cell, so promoting when the core enters
    /// the due set — still ahead of pins, voluntary evictions, and
    /// service — is observably identical. Only a fetch started by a
    /// core's last admitted request (no wake-up yet) goes through the
    /// [`Simulator::completions`] heap.
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
    /// Number of open cores; while it is zero the safe-horizon gate is
    /// skipped outright.
    open: usize,
    /// Starved open cores (module docs), keyed [`pack`]`(ready, core)`.
    /// An entry goes stale once its core is closed, receives a request,
    /// or is served again (which moves `ready`); stale entries are popped
    /// when they reach the top, see [`Simulator::horizon_blocked`].
    starved: BinaryHeap<Reverse<u128>>,
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

    /// Admit one request at the tail of open core `core`'s sequence. A
    /// starved core gets its issue wake-up back at its ready time, which
    /// the safe-horizon gate keeps strictly after every committed step.
    #[inline]
    pub(crate) fn push(&mut self, core: usize, page: PageId) -> Result<(), OnlineError> {
        let cores = self.closed.len();
        if core >= cores {
            return Err(OnlineError::UnknownCore { core, cores });
        }
        if self.closed[core] {
            return Err(OnlineError::CoreClosed { core });
        }
        let index = self.workload.push(core, page);
        if self.pos[core] == index {
            self.issue
                .push(Reverse(pack(self.ready[core], core as u32)));
        }
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
        self.starved.clear();
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
        let mut issue = BinaryHeap::with_capacity(p);
        let mut starved = BinaryHeap::new();
        for core in 0..p {
            if workload.len(core) > 0 {
                issue.push(Reverse(pack(1, core as u32)));
            } else if open {
                starved.push(Reverse(pack(1, core as u32)));
            }
        }
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
            issue,
            issue_next: Vec::with_capacity(p),
            completions: BinaryHeap::with_capacity(p),
            pending_promote: vec![u32::MAX; p],
            defers,
            due_slot: vec![0; p],
            closed: vec![!open; p],
            open: if open { p } else { 0 },
            starved,
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
        self.open == 0
            && self
                .pos
                .iter()
                .zip(self.workload().sequences())
                .all(|(&pos, seq)| pos >= seq.len())
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

    /// Would committing a step at `t` be unsafe, because a starved open
    /// core could still receive a request issuing at or before `t`?
    /// Stale entries met on the way are dropped.
    fn horizon_blocked(&mut self, t: Time) -> bool {
        while let Some(&Reverse(key)) = self.starved.peek() {
            let (ready, core) = (key_time(key), key_id(key) as usize);
            if ready > t {
                return false;
            }
            if !self.closed[core]
                && self.pos[core] == self.workload().len(core)
                && self.ready[core] == ready
            {
                return true;
            }
            self.starved.pop();
        }
        false
    }

    /// The next timestep to serve: the earliest queued request-issue
    /// wake-up, unless the strategy declares an earlier non-stale
    /// voluntary time. `heap_min` is the already-peeked issue-heap top
    /// (an `O(1)` peek — no core scan), passed in so
    /// [`Simulator::step_inner`] reads the heap top once per step and
    /// reuses it for due-event collection.
    ///
    /// This implements the boundary contract documented on
    /// [`CacheStrategy::next_voluntary_time`]: stale declarations (at or
    /// before the last served timestep) are ignored so each step strictly
    /// advances time; a declaration coinciding with `next_request` folds
    /// into that step; and once the issue queue is empty (every sequence
    /// finished) any declaration is dropped and the run ends.
    fn next_event_time_with(&self, heap_min: Option<u128>) -> Option<Time> {
        // A deferred core is due at `last_time + 1`, which no queued heap
        // entry beats (every entry's time is strictly past its push step),
        // so the deferred list short-circuits the peek.
        let next_request = if self.issue_next.is_empty() {
            key_time(heap_min?)
        } else {
            self.last_time + 1
        };
        let mut t = next_request;
        if let Some(vt) = self.strategy.next_voluntary_time() {
            if vt > self.last_time && vt < t {
                t = vt;
            }
        }
        // A capacity change is a first-class event: serve a (possibly
        // quiet) step at the change time so shrink evictions land exactly
        // there. The `heap_min?` above already dropped post-final changes:
        // once every sequence is finished the run ends.
        if let Some((ct, _)) = self.capacity.next_change_after(self.last_time) {
            if ct < t {
                t = ct;
            }
        }
        Some(t)
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
        let heap_min = self.issue.peek().map(|&Reverse(key)| key);
        let Some(t) = self.next_event_time_with(heap_min) else {
            return Ok(None);
        };
        if self.open > 0 && self.horizon_blocked(t) {
            return Ok(None);
        }
        self.last_time = t;
        // Fetch completions are first-class events: drain every completion
        // due by `t` so the strategy and the serve loop observe those
        // pages as `Present` — exactly what the lazy `promote_due(t)` scan
        // produced, but in O(completions due · log K).
        while let Some(&Reverse(key)) = self.completions.peek() {
            if key_time(key) > t {
                break;
            }
            self.completions.pop();
            self.cache.promote_cell(key_id(key) as usize, t);
        }
        self.voluntary_buf.clear();
        if TRACE {
            self.served_buf.clear();
        }

        // Collect this step's request-issue events. Every queued heap
        // entry has time ≥ t (ready times are always pushed strictly in
        // the future and t is the queue minimum or earlier), so popping
        // while time = t yields exactly the due heap cores in increasing
        // core order. Deferred cores (`issue_next`) are all due too — a
        // non-empty deferred list forces t = last step + 1 — and are
        // already core-ascending (they were appended in serve order), so
        // a two-way merge restores the model's fixed logical order. A
        // core is never in both (one live wake-up per unfinished core).
        self.due_buf.clear();
        if !matches!(heap_min, Some(key) if key_time(key) <= t) {
            // Nothing due in the heap: the due set is the deferred list
            // verbatim, so take it wholesale (due_buf was just cleared,
            // so the swap leaves issue_next empty, as draining requires).
            std::mem::swap(&mut self.due_buf, &mut self.issue_next);
        } else {
            let mut deferred = 0;
            while let Some(&Reverse(key)) = self.issue.peek() {
                if key_time(key) > t {
                    break;
                }
                let core = key_id(key);
                while deferred < self.issue_next.len() && self.issue_next[deferred] < core {
                    self.due_buf.push(self.issue_next[deferred]);
                    deferred += 1;
                }
                self.issue.pop();
                self.due_buf.push(core);
            }
            self.due_buf.extend_from_slice(&self.issue_next[deferred..]);
            self.issue_next.clear();
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

        // Serve in due (= increasing core) order. Re-arming for `t + 1` —
        // every hit, and every fault when τ = 0 — is the overwhelmingly
        // common case on dense workloads, so it is not pushed per core:
        // if EVERY due core re-armed for `t + 1`, the next deferred list
        // is the due list verbatim (same cores, same order) and is
        // installed by one swap after the loop; only heap-bound re-arms
        // (ready later than `t + 1`) are pushed inline, and the mixed /
        // finished cases rebuild the deferred list by filtering `due`.
        let mut all_deferred = true;
        for &core in &due {
            let core = core as usize;
            let seq = workload.sequence(core);
            let index = self.pos[core];
            let page = seq[index];
            let slot = self.due_slot[core];
            let outcome = match self.cache.lookup_slot(slot) {
                Lookup::Present { .. } => {
                    self.hits[core] += 1;
                    self.strategy.on_hit(core, page, t, &self.cache);
                    self.ready[core] = t + 1;
                    self.makespan = self.makespan.max(t);
                    Outcome::Hit
                }
                Lookup::Fetching { .. } => {
                    // In flight for another core (same core cannot be
                    // mid-fetch while issuing). Fault, no new cell.
                    self.faults[core] += 1;
                    self.fault_times[core].push(t);
                    self.strategy
                        .on_shared_fetch_miss(core, page, t, &self.cache);
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
                    if index + 1 < seq.len() {
                        // The completion coincides with this core's next
                        // wake-up: let it ride that event instead of
                        // paying for a heap entry.
                        self.pending_promote[core] = cell as u32;
                    } else {
                        self.completions
                            .push(Reverse(pack(t + self.cfg.tau + 1, cell as u32)));
                    }
                    self.strategy.on_fault(core, page, t, cell, &self.cache);
                    self.ready[core] = t + self.cfg.tau + 1;
                    self.makespan = self.makespan.max(t + self.cfg.tau);
                    Outcome::Fault { cell, evicted }
                }
            };
            self.pos[core] += 1;
            if self.pos[core] < seq.len() {
                // Re-arm the core's clock: its next request issues at the
                // just-computed ready time (t + 1 on a hit, t + τ + 1 on
                // either kind of fault), always strictly after t. The
                // t + 1 case defers to `issue_next` (installed after the
                // loop): it is served at the very next step, so a heap
                // push/re-pop with the same key would be pure churn.
                if self.ready[core] != t + 1 {
                    all_deferred = false;
                    self.issue
                        .push(Reverse(pack(self.ready[core], core as u32)));
                }
            } else {
                all_deferred = false;
                if !self.closed[core] {
                    self.starved
                        .push(Reverse(pack(self.ready[core], core as u32)));
                }
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
        if all_deferred {
            // `issue_next` was drained during due collection, so the swap
            // leaves `due_buf` empty for the next step.
            self.due_buf = std::mem::replace(&mut self.issue_next, due);
        } else {
            for &core in &due {
                let c = core as usize;
                if self.pos[c] < workload.len(c) && self.ready[c] == t + 1 {
                    self.issue_next.push(core);
                }
            }
            self.due_buf = due;
        }
        self.cache.clear_pins();
        Ok(Some(t))
    }

    /// Ask the strategy, in core order, whether to defer each due core
    /// (stall-model strategies only). Every fetch due by `t` completes
    /// first, so the strategy sees the cache the step will serve from.
    /// A deferred core leaves the due set before pins, and its issue
    /// wake-up moves to `t + 1`.
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
                self.issue.push(Reverse(pack(t + 1, core as u32)));
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
