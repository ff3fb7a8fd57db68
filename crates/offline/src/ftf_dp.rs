//! Algorithm 1 of the paper: exact minimum total faults
//! (FINAL-TOTAL-FAULTS) by dynamic programming over
//! `(configuration, position-vector)` states — polynomial in the sequence
//! lengths, exponential in `K` and `p`.
//!
//! States are processed in increasing order of total position (every
//! timestep strictly advances every unfinished sequence, so position sum
//! is a topological order). Optionally reconstructs a replayable schedule
//! witnessing the optimum, which integration tests replay on the
//! simulator to the same fault count. With [`FtfOptions::bound`] (the
//! default) a successor edge is cut when the faults so far plus an
//! admissible lower bound exceed a feasible upper bound, so the search
//! skips states that provably lie on no optimal path. A run that wants no
//! witness also cuts the edges that can at best tie the upper bound: it
//! only has to prove the optimum, and the upper bound is achievable.
//!
//! Each position-sum bucket is one layer of the frontier driver
//! (`crate::frontier`): a successor's position sum strictly exceeds its
//! parent's, and every cut depends only on a state's final fault count,
//! so the result is the same for every worker count.

use crate::checkpoint::{check_fingerprint, instance_fingerprint, FtfCheckpoint};
use crate::frontier::{walk, Frontier, Step};
use crate::intern::{Dedup, PackedPos, StateArena, StateId, NO_STATE};
use crate::state::{
    greedy_completion_faults, step_effect, successor_count, suffix_masks, voluntary_mask, DpError,
    DpInstance, DpStats, StateKey,
};
use mcp_core::{Budget, PageId, SimConfig, Time, TripReason, Workload};
use mcp_policies::{ReplayDecision, SharedFitf};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::ControlFlow;

/// Options for the FTF dynamic program.
#[derive(Clone, Copy, Debug)]
pub struct FtfOptions {
    /// Evict only the overflow on each transition (the honest/lazy
    /// regime). Setting `false` explores the paper's full transition
    /// relation including voluntary (dishonest) evictions — exponentially
    /// more successors; used to probe Theorem 4.
    pub lazy: bool,
    /// Reconstruct a replayable optimal schedule.
    pub reconstruct: bool,
    /// Cut every successor edge that provably lies on no optimal path:
    /// faults so far plus an admissible lower bound on the faults still
    /// to come exceed a feasible upper bound computed once per solve (see
    /// DESIGN §9). Without `reconstruct` the cut also takes the edges that
    /// can at best reach the upper bound, which is then the optimum when
    /// no terminal survives. The optimum and the reconstructed witness
    /// are the same either way; only the explored state space shrinks.
    /// Disable to measure Algorithm 1 as published.
    pub bound: bool,
    /// Abort with [`DpError::TooLarge`] beyond this many states.
    pub max_states: usize,
    /// Worker threads for successor expansion (0 = the process-wide
    /// setting, see [`mcp_exec::resolved_jobs`]). Any value yields the
    /// same result, states count included.
    pub jobs: usize,
    /// Force the state arena onto its spilled (unpacked) representation
    /// even when the instance fits the inline `u128` packing. Testing
    /// hook: both representations are observationally identical, and the
    /// cross-representation tests prove it. Not part of the checkpoint
    /// fingerprint — snapshots are interchangeable across this flag.
    #[doc(hidden)]
    pub force_spill: bool,
}

impl Default for FtfOptions {
    fn default() -> Self {
        FtfOptions {
            lazy: true,
            reconstruct: false,
            bound: true,
            max_states: 4_000_000,
            jobs: 0,
            force_spill: false,
        }
    }
}

/// A replayable optimal schedule: placement decisions per
/// `(core, request_index)` plus (only in non-lazy mode) voluntary
/// evictions per timestep.
#[derive(Clone, Debug, Default)]
pub struct FtfSchedule {
    /// Placement decisions for [`mcp_policies::Replay`].
    pub decisions: HashMap<(usize, usize), ReplayDecision>,
    /// Voluntary evictions by timestep (empty in lazy mode).
    pub voluntary: BTreeMap<Time, Vec<PageId>>,
}

/// Result of the FTF dynamic program.
#[derive(Clone, Debug)]
pub struct FtfResult {
    /// The minimum total number of faults to serve the workload.
    pub min_faults: u64,
    /// Number of distinct states explored.
    pub states: usize,
    /// A witnessing schedule, if requested.
    pub schedule: Option<FtfSchedule>,
}

/// Outcome of a budget-governed FTF run: either the exact optimum or a
/// truncated anytime result with a valid bracket on it.
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)] // Truncated is the rare exit path
pub enum FtfOutcome {
    /// The DP ran to completion: `min_faults` is exact.
    Complete(FtfResult),
    /// The budget tripped at a layer boundary; the bracket
    /// `[lower_bound, incumbent]` contains the exact optimum and
    /// `checkpoint` resumes the run exactly where it stopped.
    Truncated(FtfTruncated),
}

/// An anytime result from a truncated FTF run.
#[derive(Clone, Debug)]
pub struct FtfTruncated {
    /// Why the budget tripped.
    pub reason: TripReason,
    /// A sound lower bound on the optimum: no completion of any
    /// unexplored path can beat it (the minimum fault count across the
    /// frontier, capped by the incumbent).
    pub lower_bound: u64,
    /// An achievable upper bound: the best terminal found, or a greedy
    /// lazy completion of the cheapest frontier state.
    pub incumbent: u64,
    /// States discovered so far.
    pub states: usize,
    /// States on the unexpanded frontier.
    pub frontier_states: usize,
    /// Snapshot that resumes this run bit-for-bit (see
    /// [`crate::checkpoint`]).
    pub checkpoint: FtfCheckpoint,
}

/// Fingerprint option bits for FTF snapshots: the options that shape the
/// explored state space. Bit 1 held an incumbent-pruning option that
/// could never fire and was on by default; it stays set so snapshots
/// taken before its removal still resume. Bit 3 marks the witness-free
/// cut, so such a snapshot never resumes a witness run.
fn ftf_option_bits(options: &FtfOptions) -> u64 {
    u64::from(options.lazy)
        | (1 << 1)
        | (u64::from(options.bound) << 2)
        | (u64::from(options.bound && !options.reconstruct) << 3)
}

/// Exact minimum total faults (Algorithm 1). See [`FtfOptions`].
///
/// This is the ungoverned entry point: it runs under a state-count
/// budget of `options.max_states` only, and maps truncation to
/// [`DpError::TooLarge`] (carrying the incumbent found so far). For
/// deadlines, cancellation, and checkpoint/resume use
/// [`ftf_dp_governed`].
///
/// ```
/// use mcp_core::{SimConfig, Workload};
/// use mcp_offline::{ftf_dp, FtfOptions};
///
/// // Two cores alternating private page pairs, K = 3, tau = 1.
/// let w = Workload::from_u32([vec![1, 2, 1, 2], vec![7, 8, 7, 8]]).unwrap();
/// let r = ftf_dp(&w, SimConfig::new(3, 1), FtfOptions::default()).unwrap();
/// assert_eq!(r.min_faults, 6); // one core keeps both pages, the other thrashes
/// ```
pub fn ftf_dp(
    workload: &Workload,
    cfg: SimConfig,
    options: FtfOptions,
) -> Result<FtfResult, DpError> {
    let budget = Budget::unlimited().with_max_states(options.max_states);
    match ftf_dp_governed(workload, cfg, options, &budget, None)? {
        FtfOutcome::Complete(r) => Ok(r),
        FtfOutcome::Truncated(t) => Err(DpError::TooLarge {
            states: t.states,
            cap: options.max_states,
            incumbent: Some(t.incumbent),
        }),
    }
}

/// The resume fingerprint a snapshot must carry to be compatible with
/// this `(workload, config, options)` triple. The CLI probes this before
/// resuming so a stale `--checkpoint` file degrades to a warning and a
/// fresh start instead of a hard error deep inside the solver.
pub fn ftf_fingerprint(
    workload: &Workload,
    cfg: SimConfig,
    options: &FtfOptions,
) -> Result<u64, DpError> {
    let inst = DpInstance::build(workload, &cfg)?;
    Ok(instance_fingerprint(&inst, ftf_option_bits(options)))
}

/// Budget-governed, resumable FTF (Algorithm 1, anytime form).
///
/// The budget is checked only at bucket (layer) boundaries, so a governed
/// run that completes returns exactly the ungoverned result. On a trip
/// the run stops *at the boundary* with a [`FtfOutcome::Truncated`]
/// carrying a valid bracket `lower_bound ≤ OPT ≤ incumbent` and a
/// checkpoint, from which a resume — on any `jobs` setting — reproduces
/// the full run's result bit-for-bit.
///
/// `options.max_states` is ignored here; cap states via
/// [`Budget::with_max_states`] instead. Note the state cap is enforced
/// at boundaries, so the final count may overshoot the cap by up to one
/// bucket's worth of successors.
///
/// `resume` must be a snapshot from the same workload, config, and
/// options (fingerprint-validated; mismatch is a [`DpError::Model`]).
pub fn ftf_dp_governed(
    workload: &Workload,
    cfg: SimConfig,
    options: FtfOptions,
    budget: &Budget,
    resume: Option<&FtfCheckpoint>,
) -> Result<FtfOutcome, DpError> {
    ftf_dp_governed_with_stats(workload, cfg, options, budget, resume).map(|(o, _)| o)
}

/// [`ftf_dp_governed`] plus engine statistics ([`DpStats`]): states,
/// expansions, peak arena bytes, and dedup-table load factor. The
/// outcome is identical to [`ftf_dp_governed`]; the stats are
/// diagnostics only (the `--stats` surface of `mcp opt`).
pub fn ftf_dp_governed_with_stats(
    workload: &Workload,
    cfg: SimConfig,
    options: FtfOptions,
    budget: &Budget,
    resume: Option<&FtfCheckpoint>,
) -> Result<(FtfOutcome, DpStats), DpError> {
    let inst = DpInstance::build(workload, &cfg)?;
    let fingerprint = instance_fingerprint(&inst, ftf_option_bits(&options));
    // A feasible total (so at least the optimum) when the bound is on: the
    // lazy greedy completion from the start and, on disjoint workloads
    // only, one S_FITF engine run — there every engine run is a lazy DP
    // path.
    let ub = options.bound.then(|| {
        let greedy = greedy_completion_faults(&inst, &(0, inst.start_positions()));
        let fitf = || mcp_core::simulate(workload, cfg, SharedFitf::new()).ok();
        let fitf = workload.is_disjoint().then(fitf).flatten();
        fitf.map_or(greedy, |run| run.total_faults().min(greedy))
    });
    let mut dp = Ftf::new(&inst, ub, &options);
    check_fingerprint(fingerprint, resume.map(|ck| ck.fingerprint))?;
    dp.start(resume)?;
    let trip = walk(&inst, &mut dp, options.jobs, budget)?;
    // The arena and the ring tables only grow within a run, so their
    // final size is the peak.
    dp.stats.states = dp.arena.len();
    dp.stats.peak_arena_bytes = dp.engine_bytes();
    dp.stats.dedup_load_factor = dp.ring.iter().map(Dedup::peak_load).fold(0.0, f64::max);
    if let Some(reason) = trip {
        let truncated = dp.truncate(fingerprint, reason);
        return Ok((FtfOutcome::Truncated(truncated), dp.stats));
    }
    // A witness-free run cuts every path that only ties the upper bound,
    // so when no terminal survives, the achievable upper bound is the
    // optimum. A witness run keeps every optimal path and always ends on
    // a terminal.
    let terminal = dp.best_terminal.map(|(f, _)| f);
    let min_faults = terminal.into_iter().chain(ub).min();
    let schedule = options.reconstruct.then(|| {
        let (_, mut id) = dp.best_terminal.expect("a witness run ends on a terminal");
        // Walk parents back to the start, then replay forward.
        let mut chain = Vec::new();
        while id != NO_STATE {
            chain.push(dp.arena.key(id));
            id = dp.parent[id as usize];
        }
        chain.reverse();
        schedule_from_chain(&inst, &chain)
    });
    let result = FtfResult {
        min_faults: min_faults.expect("a run without the bound reaches a terminal state"),
        states: dp.arena.len(),
        schedule,
    };
    Ok((FtfOutcome::Complete(result), dp.stats))
}

/// Algorithm 1's side of the frontier driver. Every state lives once in
/// the arena; the per-state tables are flat `Vec`s indexed by [`StateId`].
///
/// With [`FtfOptions::bound`], an admissible lower bound cuts edges. A
/// page enters a configuration only through a fault, and a step's faults
/// are counted once per page, so every page that some core still
/// requests from its position on and that is missing from the
/// configuration costs at least one more fault: `LB(C, x) = |(∪ᵢ
/// suffix[i][x_i]) \ C|`. This holds under the DP's own semantics, shared
/// pages and the full transition relation included.
struct Ftf<'a> {
    inst: &'a DpInstance,
    voluntary: u64,
    /// `suffix[i][j]`: the pages core `i` requests at index `j` or later.
    suffix: Vec<Vec<u64>>,
    /// The feasible total the bound cuts against, if on.
    ub: Option<u64>,
    /// Cut the edges that can at best tie `ub` too: set when no witness
    /// is wanted, so only a path that beats `ub` needs to survive.
    strict: bool,
    arena: StateArena,
    faults: Vec<u64>,
    parent: Vec<StateId>,
    /// The bucket of position sum s holds the unexpanded states of that
    /// sum. Every transition strictly increases the sum of every
    /// unfinished sequence's position, so an ascending sweep is a
    /// topological order and each state enters exactly one bucket exactly
    /// once (it can only be improved while its bucket is still pending).
    /// Buckets are intrusive chains — `bucket_head[s]` starts a list
    /// threaded through `next_in_bucket[id]` — so enqueueing a state costs
    /// two stores and no allocation. Chain order is irrelevant: the driver
    /// sorts each bucket canonically.
    bucket_head: Vec<StateId>,
    next_in_bucket: Vec<StateId>,
    /// Bucket-local dedup: one step advances each core by at most τ + 1
    /// positions, so a successor of a bucket-s state lands in
    /// s + 1 ..= s + p·(τ+1). Keys in different buckets differ in their
    /// position sums and never collide, so bucket s dedups through
    /// `ring[s % ring.len()]` alone; while bucket s expands, the pending
    /// buckets s ..= s + p·(τ+1) own distinct tables.
    ring: Vec<Dedup>,
    /// The bucket after the open one.
    next_bucket: usize,
    best_terminal: Option<(u64, StateId)>,
    stats: DpStats,
}

/// The edge out of one FTF state: its successors' fault count, position
/// sum and ring slot, and the bound's cut. An edge into configuration `C'` is
/// cut when `|needed \ C'|` exceeds the faults the bound leaves, `slack`.
/// A witness run leaves `UB − faults`, so every optimal path survives; a
/// witness-free run leaves one fault fewer, so every path that beats `UB`
/// survives. Without the bound, `needed` is empty and nothing is cut.
#[derive(Default)]
struct FtfEdge {
    faults: u64,
    sum: usize,
    slot: usize,
    needed: u64,
    slack: u64,
}

impl FtfEdge {
    fn cuts(&self, config: u64) -> bool {
        u64::from((self.needed & !config).count_ones()) > self.slack
    }
}

impl<'a> Ftf<'a> {
    fn new(inst: &'a DpInstance, ub: Option<u64>, options: &FtfOptions) -> Self {
        let ring = inst.num_cores() * inst.period() as usize + 1;
        Ftf {
            inst,
            voluntary: voluntary_mask(options.lazy),
            suffix: suffix_masks(inst),
            ub,
            strict: !options.reconstruct,
            arena: inst.arena(options.force_spill),
            faults: Vec::new(),
            parent: Vec::new(),
            bucket_head: vec![NO_STATE; inst.end_sum() as usize + 1],
            next_in_bucket: Vec::new(),
            ring: (0..ring).map(|_| Dedup::new()).collect(),
            next_bucket: 0,
            best_terminal: None,
            stats: DpStats::default(),
        }
    }

    /// Open the walk at the start state, with no faults, or where the
    /// snapshot `resume` stopped. Its discovered states get ids in the
    /// snapshot's canonical order; parent, frontier and terminal keys
    /// resolve by binary search over it. Frontier states join their
    /// bucket chains and their buckets' ring tables — the only states a
    /// resumed run can rediscover.
    fn start(&mut self, resume: Option<&FtfCheckpoint>) -> Result<(), DpError> {
        let Some(ck) = resume else {
            let (start, mut edge) = (self.inst.start_positions(), FtfEdge::default());
            edge.sum = start.iter().map(|&x| x as usize).sum();
            edge.slot = edge.sum % self.ring.len();
            let pp = self.arena.pack(&start);
            self.merge(NO_STATE, &edge, 0, &pp);
            return Ok(());
        };
        let inst = self.inst;
        let bad = |what: &str| DpError::Model(format!("malformed checkpoint: {what}"));
        let in_range = |key: &StateKey| {
            let mut positions = key.1.iter().enumerate();
            key.1.len() == inst.num_cores()
                && positions.all(|(i, &x)| x >= 1 && u64::from(x) <= inst.end_pos(i))
        };
        if !ck.best.iter().all(|(key, _, _)| in_range(key)) {
            return Err(bad("a state lies outside the instance"));
        }
        if !ck.best.windows(2).all(|w| w[0].0 < w[1].0)
            || !ck.frontier.windows(2).all(|w| w[0] < w[1])
        {
            return Err(bad("states are not in strict canonical order"));
        }
        let lookup = |key: &StateKey| {
            ck.best
                .binary_search_by(|(k, _, _)| k.cmp(key))
                .map(|i| i as StateId)
                .map_err(|_| bad("a referenced state is not among the discovered states"))
        };
        for (key, faults, parent) in &ck.best {
            self.arena.push_key(key);
            self.faults.push(*faults);
            self.parent
                .push(parent.as_ref().map_or(Ok(NO_STATE), lookup)?);
            self.next_in_bucket.push(NO_STATE);
        }
        let (mut lo, mut hi) = (usize::MAX, 0);
        for key in &ck.frontier {
            let id = lookup(key)?;
            let s = self.arena.pos_sum(id) as usize;
            (lo, hi) = (lo.min(s), hi.max(s));
            self.next_in_bucket[id as usize] = self.bucket_head[s];
            self.bucket_head[s] = id;
            let slot = s % self.ring.len();
            self.ring[slot].insert_id(&self.arena, id);
        }
        if hi >= lo.saturating_add(self.ring.len()) {
            return Err(bad("the frontier spans more buckets than one step reaches"));
        }
        if let Some((f, key)) = &ck.best_terminal {
            self.best_terminal = Some((*f, lookup(key)?));
        }
        Ok(())
    }

    /// Push the states of bucket `s` onto `ids`.
    fn push_bucket(&self, s: usize, ids: &mut Vec<StateId>) {
        let mut cur = self.bucket_head[s];
        while cur != NO_STATE {
            ids.push(cur);
            cur = self.next_in_bucket[cur as usize];
        }
    }

    /// The pages some core still requests from `positions` on.
    fn needed(&self, positions: &[u32]) -> u64 {
        let index = |x: u32| self.inst.page_index(u64::from(x));
        let masks = positions.iter().zip(&self.suffix);
        masks.fold(0, |acc, (&x, masks)| acc | masks[index(x)])
    }

    /// Approximate engine footprint: the arena payload plus the ring
    /// tables.
    fn engine_bytes(&self) -> usize {
        self.arena.approx_bytes() + self.ring.iter().map(Dedup::approx_bytes).sum::<usize>()
    }

    /// Assemble the anytime bracket and checkpoint for a run tripped at
    /// the open bucket. The checkpoint materializes canonical
    /// [`StateKey`]s from the arena, so its bytes are identical to what
    /// the unpacked engine wrote — the on-disk format is
    /// representation-independent.
    fn truncate(&self, fingerprint: u64, reason: TripReason) -> FtfTruncated {
        let (inst, arena, faults) = (self.inst, &self.arena, &self.faults);
        let mut frontier_ids = Vec::new();
        for s in self.next_bucket - 1..self.bucket_head.len() {
            self.push_bucket(s, &mut frontier_ids);
        }
        arena.sort_ids(&mut frontier_ids);
        // The cheapest frontier state in canonical (faults, key) order
        // seeds the greedy completion (the first of equals has the
        // smallest key); the incumbent is the better of that and any
        // terminal already found. The walk only trips while the frontier
        // is non-empty, so at least one bound always exists.
        let cheapest = frontier_ids.iter().map(|&id| (faults[id as usize], id));
        let seed = cheapest.min_by_key(|&(f, _)| f);
        let greedy_ub = seed.map(|(g, id)| g + greedy_completion_faults(inst, &arena.key(id)));
        let terminal_ub = self.best_terminal.map(|(f, _)| f);
        let incumbent = [self.ub, greedy_ub, terminal_ub]
            .into_iter()
            .flatten()
            .min()
            .expect("truncated with empty frontier and no terminal");
        // Every optimal path either passes a frontier state — costing at
        // least its faults so far plus the admissible lower bound from it —
        // or was cut, which takes `UB ≤ OPT`; then the incumbent, which is at
        // most `UB` and achievable, is the optimum. Either way OPT is at least
        // the cheapest frontier bound capped by the incumbent.
        let mut pos = Vec::new();
        let frontier_min = frontier_ids.iter().map(|&id| {
            arena.positions_into(id, &mut pos);
            faults[id as usize] + u64::from((self.needed(&pos) & !arena.cfg(id)).count_ones())
        });
        let mut all_ids: Vec<StateId> = (0..arena.len() as StateId).collect();
        arena.sort_ids(&mut all_ids);
        let best = all_ids.iter().map(|&id| {
            let parent = self.parent[id as usize];
            let parent = (parent != NO_STATE).then(|| arena.key(parent));
            (arena.key(id), faults[id as usize], parent)
        });
        let frontier: Vec<StateKey> = frontier_ids.iter().map(|&id| arena.key(id)).collect();
        FtfTruncated {
            reason,
            lower_bound: frontier_min.min().unwrap_or(u64::MAX).min(incumbent),
            incumbent,
            states: arena.len(),
            frontier_states: frontier.len(),
            checkpoint: FtfCheckpoint {
                fingerprint,
                best: best.collect(),
                frontier,
                best_terminal: self.best_terminal.map(|(f, id)| (f, arena.key(id))),
            },
        }
    }
}

impl Frontier for Ftf<'_> {
    type Edge = FtfEdge;

    fn arena(&self) -> &StateArena {
        &self.arena
    }

    fn open(&mut self, ids: &mut Vec<StateId>) -> bool {
        let mut buckets = self.next_bucket..self.bucket_head.len();
        let Some(s) = buckets.find(|&s| self.bucket_head[s] != NO_STATE) else {
            return false;
        };
        self.next_bucket = s + 1;
        // No state joins bucket s any more: recycle its table for bucket
        // s + ring size.
        let slot = s % self.ring.len();
        self.ring[slot].clear();
        self.push_bucket(s, ids);
        true
    }

    fn usage(&self) -> (usize, usize) {
        let tables = self.faults.capacity() * 8
            + (self.parent.capacity() + self.next_in_bucket.capacity()) * 4;
        (self.arena.len(), self.engine_bytes() + tables)
    }

    fn enter(&mut self, ids: &[StateId]) -> bool {
        if self.next_bucket < self.bucket_head.len() {
            self.stats.expansions += ids.len();
            return false;
        }
        // Terminals live exclusively in the final bucket (sum == end_sum
        // forces every sequence to its end). Scanning them in canonical
        // order keeps the best terminal independent of the worker count.
        let found = ids.iter().map(|&id| (self.faults[id as usize], id));
        let best = self.best_terminal.into_iter().chain(found);
        self.best_terminal = best.min_by_key(|&(f, _)| f);
        true
    }

    fn edge(&self, step: &Step, edge: &mut FtfEdge) -> ControlFlow<usize, u64> {
        let faults = self.faults[step.id as usize] + u64::from(step.fault_mask.count_ones());
        let sum = step.next.iter().map(|&x| x as usize).sum::<usize>();
        let slot = sum % self.ring.len();
        (edge.faults, edge.sum, edge.slot, edge.needed, edge.slack) = (faults, sum, slot, 0, 0);
        if let Some(ub) = self.ub {
            // Every successor is cut when no fault is left to spend, or
            // when the bound over `C ∪ rx` itself, which no successor's
            // exceeds, overshoots.
            let slack = ub.checked_sub(u64::from(self.strict));
            let slack = slack.and_then(|limit| limit.checked_sub(faults));
            (edge.needed, edge.slack) = (self.needed(&step.next), slack.unwrap_or(0));
            if slack.is_none() || edge.cuts(step.cfg | step.rx) {
                let cut = successor_count(self.inst, step.cfg, step.rx, self.voluntary);
                return ControlFlow::Break(cut);
            }
        }
        ControlFlow::Continue(self.voluntary)
    }

    fn merge(&mut self, src: StateId, edge: &FtfEdge, cfg: u64, pp: &PackedPos) {
        if edge.cuts(cfg) {
            self.stats.bound_pruned += 1;
            return;
        }
        let (id, is_new) = self.ring[edge.slot].intern(&mut self.arena, cfg, pp);
        if is_new {
            self.faults.push(edge.faults);
            self.parent.push(src);
            self.next_in_bucket.push(self.bucket_head[edge.sum]);
            self.bucket_head[edge.sum] = id;
        } else if edge.faults < self.faults[id as usize] {
            self.faults[id as usize] = edge.faults;
            self.parent[id as usize] = src;
        }
    }

    fn merged(&mut self, cut: usize) -> Result<(), DpError> {
        self.stats.bound_pruned += cut;
        Ok(())
    }
}

/// Convenience: just the number.
pub fn ftf_min_faults(workload: &Workload, cfg: SimConfig) -> Result<u64, DpError> {
    ftf_dp(workload, cfg, FtfOptions::default()).map(|r| r.min_faults)
}

/// Convert a chain of consecutive DP states (one transition per timestep,
/// starting at the initial state) into a replayable schedule.
pub(crate) fn schedule_from_chain(inst: &DpInstance, chain: &[StateKey]) -> FtfSchedule {
    let mut schedule = FtfSchedule::default();
    for (step_idx, pair) in chain.windows(2).enumerate() {
        let time = step_idx as Time + 1; // transition k serves timestep k
        let (cfg, pos) = &pair[0];
        let (next_cfg, _) = &pair[1];
        let effect = step_effect(inst, *cfg, pos);

        // Pages leaving the configuration this step.
        let mut evicted: Vec<u16> = (0..inst.pages.len() as u16)
            .filter(|b| (cfg & !next_cfg) & (1u64 << b) != 0)
            .collect();

        // Faulting cores in logical order; per distinct page only the
        // lowest core places (later cores join the fetch in flight).
        let mut placed_pages: HashSet<u16> = HashSet::new();
        for core in 0..inst.num_cores() {
            if !effect.seq_faulted[core] {
                continue;
            }
            let x = pos[core] as u64;
            let page = inst.pointed_page(core, x);
            if !placed_pages.insert(page) {
                continue; // shared in-flight fetch: no placement decision
            }
            let index = inst.page_index(x);
            let decision = match evicted.pop() {
                Some(victim) => ReplayDecision::Evict(inst.pages[victim as usize]),
                None => ReplayDecision::UseEmpty,
            };
            schedule.decisions.insert((core, index), decision);
        }
        // Leftover evictions are voluntary (non-lazy mode only). The DP
        // removed these pages in the transition serving `time`, and its
        // `rx ⊆ C'` constraint guarantees none of them is requested (or
        // mid-fetch) at `time`, so replaying the eviction at the start of
        // `time` is equivalent and never collides with the engine's pin of
        // currently requested pages. (Scheduling it at `time + 1` would:
        // the page may be requested — and so pinned — then.) `time` may
        // also be a timestep at which no request is due (every core
        // mid-fetch); `Replay` declares those times via
        // `next_voluntary_time` so the engine steps there instead of
        // fast-forwarding past the eviction.
        if !evicted.is_empty() {
            schedule
                .voluntary
                .entry(time)
                .or_default()
                .extend(evicted.into_iter().map(|b| inst.pages[b as usize]));
        }
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::belady_seq::belady_faults;
    use mcp_core::simulate;
    use mcp_policies::Replay;

    fn wl(seqs: &[&[u32]]) -> Workload {
        Workload::from_u32(seqs.iter().map(|s| s.to_vec())).unwrap()
    }

    #[test]
    fn single_core_matches_belady() {
        let cases: Vec<Vec<u32>> = vec![
            vec![1, 2, 3, 1, 2, 3],
            vec![1, 2, 1, 3, 1, 2, 3, 4, 1],
            vec![4, 3, 2, 1, 1, 2, 3, 4],
        ];
        for vs in cases {
            let w = wl(&[&vs]);
            for k in 1..=3usize {
                for tau in [0u64, 1, 2] {
                    let dp = ftf_min_faults(&w, SimConfig::new(k, tau)).unwrap();
                    let seq: Vec<PageId> = vs.iter().copied().map(PageId).collect();
                    // With one core, delays never change the order of its
                    // own requests: Belady is optimal for every tau.
                    assert_eq!(dp, belady_faults(&seq, k), "seq {vs:?} k={k} tau={tau}");
                }
            }
        }
    }

    #[test]
    fn two_cores_everything_fits() {
        let w = wl(&[&[1, 2, 1, 2], &[7, 8, 7, 8]]);
        let dp = ftf_min_faults(&w, SimConfig::new(4, 1)).unwrap();
        assert_eq!(dp, 4); // cold misses only
    }

    #[test]
    fn two_cores_contended() {
        // K=2, each core alternates two private pages, perfectly aligned:
        // every timestep demands two fresh pages with only two cells, and
        // since every request faults, the alignment never breaks — the
        // optimum is all-faults.
        let w = wl(&[&[1, 2, 1, 2, 1, 2], &[7, 8, 7, 8, 7, 8]]);
        let dp = ftf_min_faults(&w, SimConfig::new(2, 1)).unwrap();
        assert_eq!(dp, 12);
        // One extra cell breaks the deadlock: one core can keep both its
        // pages while the other thrashes.
        let dp3 = ftf_min_faults(&w, SimConfig::new(3, 1)).unwrap();
        assert!((4..12).contains(&dp3), "got {dp3}");
    }

    #[test]
    fn schedule_replays_to_same_fault_count() {
        let cases: Vec<(Vec<Vec<u32>>, usize, u64)> = vec![
            (vec![vec![1, 2, 3, 1, 2], vec![7, 8, 7, 8, 7]], 3, 1),
            (vec![vec![1, 2, 1, 2], vec![7, 8, 7, 8]], 2, 0),
            (vec![vec![1, 2, 3, 2, 1], vec![7, 7, 7, 7, 7]], 3, 2),
        ];
        for (seqs, k, tau) in cases {
            let w = Workload::from_u32(seqs.clone()).unwrap();
            let cfg = SimConfig::new(k, tau);
            let r = ftf_dp(
                &w,
                cfg,
                FtfOptions {
                    reconstruct: true,
                    ..Default::default()
                },
            )
            .unwrap();
            let schedule = r.schedule.unwrap();
            let replay = Replay::new(schedule.decisions).with_voluntary(schedule.voluntary);
            let sim = simulate(&w, cfg, replay).unwrap();
            assert_eq!(
                sim.total_faults(),
                r.min_faults,
                "replayed schedule diverged on {seqs:?} k={k} tau={tau}"
            );
        }
    }

    #[test]
    fn lazy_equals_full_transition_relation_on_tiny_disjoint() {
        // Theorem 4 (honesty is WLOG) in miniature: allowing voluntary
        // evictions must not reduce the optimum on disjoint workloads.
        let cases: Vec<Vec<Vec<u32>>> = vec![
            vec![vec![1, 2, 1, 2], vec![7, 8, 7, 8]],
            vec![vec![1, 2, 3, 1], vec![7, 7, 7, 7]],
            vec![vec![1, 1, 2, 2], vec![7, 8, 8, 7]],
        ];
        for seqs in cases {
            let w = Workload::from_u32(seqs.clone()).unwrap();
            for tau in [0u64, 1] {
                let cfg = SimConfig::new(2, tau);
                let lazy = ftf_dp(&w, cfg, FtfOptions::default()).unwrap().min_faults;
                let full = ftf_dp(
                    &w,
                    cfg,
                    FtfOptions {
                        lazy: false,
                        ..Default::default()
                    },
                )
                .unwrap()
                .min_faults;
                assert_eq!(lazy, full, "{seqs:?} tau={tau}");
            }
        }
    }

    #[test]
    fn dp_lower_bounds_every_online_strategy() {
        use mcp_policies::{shared_fifo, shared_lru};
        let w = wl(&[&[1, 2, 3, 1, 2, 3], &[7, 8, 7, 8, 7, 8]]);
        for k in [2usize, 3, 4] {
            for tau in [0u64, 2] {
                let cfg = SimConfig::new(k, tau);
                let opt = ftf_min_faults(&w, cfg).unwrap();
                let lru = simulate(&w, cfg, shared_lru()).unwrap().total_faults();
                let fifo = simulate(&w, cfg, shared_fifo()).unwrap().total_faults();
                assert!(opt <= lru, "k={k} tau={tau}: OPT {opt} > LRU {lru}");
                assert!(opt <= fifo, "k={k} tau={tau}: OPT {opt} > FIFO {fifo}");
            }
        }
    }

    #[test]
    fn empty_workload() {
        let w = wl(&[&[], &[]]);
        assert_eq!(ftf_min_faults(&w, SimConfig::new(2, 1)).unwrap(), 0);
    }

    #[test]
    fn state_cap_is_enforced() {
        let long: Vec<u32> = (0..12).map(|i| i % 6).collect();
        let w = wl(&[&long, &long.iter().map(|v| v + 10).collect::<Vec<_>>()]);
        let err = ftf_dp(
            &w,
            SimConfig::new(4, 2),
            FtfOptions {
                max_states: 50,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, DpError::TooLarge { .. }));
        // Regression: the overflow error must not discard the work done —
        // it carries an achievable incumbent, which bounds the optimum
        // from above.
        let DpError::TooLarge { incumbent, .. } = err else {
            unreachable!()
        };
        let opt = ftf_min_faults(&w, SimConfig::new(4, 2)).unwrap();
        let ub = incumbent.expect("cap overflow must report best-known faults");
        assert!(opt <= ub, "incumbent {ub} below the optimum {opt}");
    }

    #[test]
    fn zero_deadline_truncates_with_valid_bracket() {
        use mcp_core::Budget;
        use std::time::Duration;
        let w = wl(&[&[1, 2, 3, 1, 2, 3], &[7, 8, 7, 8, 7, 8]]);
        let cfg = SimConfig::new(3, 1);
        let budget = Budget::unlimited().with_deadline(Duration::ZERO);
        let outcome = ftf_dp_governed(&w, cfg, FtfOptions::default(), &budget, None).unwrap();
        let FtfOutcome::Truncated(t) = outcome else {
            panic!("zero deadline must truncate");
        };
        assert_eq!(t.reason, TripReason::Deadline);
        let opt = ftf_min_faults(&w, cfg).unwrap();
        assert!(
            t.lower_bound <= opt && opt <= t.incumbent,
            "bracket [{}, {}] misses OPT {opt}",
            t.lower_bound,
            t.incumbent
        );
        assert_eq!(t.frontier_states, t.checkpoint.frontier.len());
        assert_eq!(t.states, t.checkpoint.best.len());
    }

    #[test]
    fn governed_unlimited_matches_ungoverned() {
        use mcp_core::Budget;
        let w = wl(&[&[1, 2, 3, 1, 2], &[7, 8, 7, 8, 7]]);
        let cfg = SimConfig::new(3, 1);
        let plain = ftf_dp(&w, cfg, FtfOptions::default()).unwrap();
        let outcome =
            ftf_dp_governed(&w, cfg, FtfOptions::default(), &Budget::unlimited(), None).unwrap();
        let FtfOutcome::Complete(governed) = outcome else {
            panic!("unlimited budget must complete");
        };
        assert_eq!(governed.min_faults, plain.min_faults);
        assert_eq!(governed.states, plain.states);
    }

    #[test]
    fn malformed_checkpoints_are_model_errors() {
        use mcp_core::Budget;
        let w = wl(&[&[1, 2, 3, 1, 2, 3], &[7, 8, 7, 8, 7, 8]]);
        let cfg = SimConfig::new(3, 1);
        let capped = Budget::unlimited().with_max_states(8);
        let FtfOutcome::Truncated(t) =
            ftf_dp_governed(&w, cfg, FtfOptions::default(), &capped, None).unwrap()
        else {
            panic!("cap 8 must truncate")
        };
        let resume = |ck: &FtfCheckpoint| {
            ftf_dp_governed(
                &w,
                cfg,
                FtfOptions::default(),
                &Budget::unlimited(),
                Some(ck),
            )
        };
        assert!(resume(&t.checkpoint).is_ok());
        let mut unsorted = t.checkpoint.clone();
        unsorted.best.swap(0, 1);
        let mut orphan = t.checkpoint.clone();
        let gone = orphan.frontier[0].clone();
        orphan.best.retain(|(key, _, _)| *key != gone);
        let mut outside = t.checkpoint.clone();
        outside.best.last_mut().unwrap().0 .1[0] = 1000;
        for ck in [unsorted, orphan, outside] {
            let err = resume(&ck).unwrap_err();
            assert!(matches!(err, DpError::Model(_)), "got {err:?}");
        }
    }

    #[test]
    fn checkpoint_fingerprint_mismatch_is_rejected() {
        use mcp_core::Budget;
        use std::time::Duration;
        let w1 = wl(&[&[1, 2, 3, 1], &[7, 8, 7, 8]]);
        let w2 = wl(&[&[1, 2, 3, 2], &[7, 8, 7, 8]]);
        let cfg = SimConfig::new(2, 1);
        let budget = Budget::unlimited().with_deadline(Duration::ZERO);
        let FtfOutcome::Truncated(t) =
            ftf_dp_governed(&w1, cfg, FtfOptions::default(), &budget, None).unwrap()
        else {
            panic!("zero deadline must truncate")
        };
        let err = ftf_dp_governed(
            &w2,
            cfg,
            FtfOptions::default(),
            &Budget::unlimited(),
            Some(&t.checkpoint),
        )
        .unwrap_err();
        assert!(matches!(err, DpError::Model(_)), "got {err:?}");
    }
}
