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
//! Successor expansion within a bucket fans out over the [`mcp_exec`]
//! pool. The result is deterministic and identical for every worker
//! count: every cut depends only on a state's final fault count, and the
//! expansions merge back sequentially in canonical [`StateKey`] order. A
//! successor's position sum strictly exceeds its parent's, so no
//! expansion in a bucket can affect another state of the same bucket —
//! the parallel fan-out is dependency-free by construction.

use crate::checkpoint::{instance_fingerprint, FtfCheckpoint};
use crate::intern::{Dedup, StateArena, StateId, NO_STATE};
use crate::state::{
    for_each_successor_config_rx, greedy_completion_faults, pool_for, step_effect,
    step_effect_into, successor_count, suffix_masks, voluntary_mask, with_scratch, DpError,
    DpInstance, DpStats, StateKey, StepScratch,
};
use mcp_core::{Budget, PageId, SimConfig, Time, TripReason, Workload};
use mcp_policies::{ReplayDecision, SharedFitf};
use std::collections::{BTreeMap, HashMap, HashSet};

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

/// The admissible lower bound of the FTF search and, when the bound is
/// on, its upper bound.
///
/// A page enters a configuration only through a fault, and a step's
/// faults are counted once per page, so every page that some core still
/// requests from its position on and that is missing from the
/// configuration costs at least one more fault: `LB(C, x) = |(∪ᵢ
/// suffix[i][x_i]) \ C|`. This holds under the DP's own semantics, shared
/// pages and the full transition relation included.
struct FtfBound {
    /// `suffix[i][j]`: the pages core `i` requests at index `j` or later.
    suffix: Vec<Vec<u64>>,
    /// A feasible total (so at least the optimum) when the bound is on:
    /// the lazy greedy completion from the start and, on disjoint
    /// workloads only, one S_FITF engine run — there every engine run is
    /// a lazy DP path.
    ub: Option<u64>,
    /// Cut the edges that can at best tie `ub` too: set when no witness
    /// is wanted, so only a path that beats `ub` needs to survive.
    strict: bool,
}

impl FtfBound {
    fn new(workload: &Workload, cfg: SimConfig, inst: &DpInstance, options: &FtfOptions) -> Self {
        let ub = options.bound.then(|| {
            let greedy = greedy_completion_faults(inst, &(0, inst.start_positions()));
            let fitf = workload
                .is_disjoint()
                .then(|| mcp_core::simulate(workload, cfg, SharedFitf::new()).ok())
                .flatten()
                .map(|run| run.total_faults());
            fitf.map_or(greedy, |f| f.min(greedy))
        });
        FtfBound {
            suffix: suffix_masks(inst),
            ub,
            strict: !options.reconstruct,
        }
    }

    /// The pages some core still requests from `positions` on.
    fn needed(&self, inst: &DpInstance, positions: &[u32]) -> u64 {
        positions
            .iter()
            .zip(&self.suffix)
            .fold(0, |acc, (&x, masks)| {
                acc | masks[inst.page_index(u64::from(x))]
            })
    }

    /// The lower bound on the faults still to come from `(config,
    /// positions)`.
    fn lower_bound(&self, inst: &DpInstance, config: u64, positions: &[u32]) -> u64 {
        u64::from((self.needed(inst, positions) & !config).count_ones())
    }

    /// The cut for the successors of one step, which reach `next` with
    /// `next_faults` faults from the configurations inside `base = C ∪
    /// rx`. `None` when every successor is cut: the bound over `base`
    /// itself, which no successor's exceeds, already overshoots.
    fn edge_cut(
        &self,
        inst: &DpInstance,
        next: &[u32],
        next_faults: u64,
        base: u64,
    ) -> Option<EdgeCut> {
        let Some(ub) = self.ub else {
            return Some(EdgeCut::NONE);
        };
        let limit = ub.checked_sub(u64::from(self.strict))?;
        let cut = EdgeCut {
            needed: self.needed(inst, next),
            slack: limit.checked_sub(next_faults)?,
        };
        (!cut.cuts(base)).then_some(cut)
    }
}

/// One step's cut: an edge into configuration `C'` is dropped when
/// `|needed \ C'|` exceeds the faults the bound leaves. A witness run
/// leaves `UB − faults`, so every optimal path survives; a witness-free
/// run leaves one fault fewer, so every path that beats `UB` survives.
#[derive(Clone, Copy)]
struct EdgeCut {
    needed: u64,
    slack: u64,
}

impl EdgeCut {
    /// The cut of a run without the bound: nothing.
    const NONE: EdgeCut = EdgeCut {
        needed: 0,
        slack: u64::MAX,
    };

    fn cuts(&self, config: u64) -> bool {
        u64::from((self.needed & !config).count_ones()) > self.slack
    }
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
/// The budget is checked at every bucket (layer) boundary — between
/// boundaries the run is identical to the ungoverned DP, so a governed
/// run that completes returns exactly the ungoverned result. On a trip
/// the run stops *at the boundary* with a [`FtfOutcome::Truncated`]
/// carrying a valid bracket `lower_bound ≤ OPT ≤ incumbent` and a
/// checkpoint. Because buckets are processed in a canonical order that
/// no worker count or hash seed can perturb, resuming from the
/// checkpoint — on any `jobs` setting — reproduces the full run's
/// result bit-for-bit.
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
    let p = inst.num_cores();
    let end_sum: u64 = (0..p).map(|i| inst.end_pos(i)).sum();
    let max_pos = (0..p).map(|i| inst.end_pos(i)).max().unwrap_or(1);
    let bound = FtfBound::new(workload, cfg, &inst, &options);
    let voluntary = voluntary_mask(options.lazy);

    // The interned state engine: every state lives once in the arena and
    // is referenced by StateId everywhere else — the per-state tables
    // below are flat Vecs indexed by id.
    let mut arena = StateArena::new(p, max_pos, options.force_spill);
    let mut faults: Vec<u64> = Vec::new();
    let mut parent: Vec<StateId> = Vec::new();
    // The bucket of position sum s holds the unexpanded states of that
    // sum. Every transition strictly increases the sum of every
    // unfinished sequence's position, so an ascending sweep is a
    // topological order and each state enters exactly one bucket exactly
    // once (it can only be improved while its bucket is still pending).
    // Buckets are intrusive chains — `bucket_head[s]` starts a list
    // threaded through `next_in_bucket[id]` — so enqueueing a state costs
    // two stores and no allocation. Chain order is irrelevant: each
    // bucket is sorted canonically before expansion.
    let mut bucket_head: Vec<StateId> = vec![NO_STATE; end_sum as usize + 1];
    let mut next_in_bucket: Vec<StateId> = Vec::new();
    // Bucket-local dedup: one step advances each core by at most τ + 1
    // positions, so a successor of a bucket-s state lands in
    // s + 1 ..= s + p·(τ+1). Keys in different buckets differ in their
    // position sums and never collide, so bucket s dedups through
    // `ring[s % ring_size]` alone; while bucket s expands, the pending
    // buckets s ..= s + p·(τ+1) own distinct tables.
    let ring_size = p * inst.period() as usize + 1;
    let mut ring: Vec<Dedup> = (0..ring_size).map(|_| Dedup::new()).collect();
    let mut best_terminal: Option<(u64, StateId)> = None;
    let mut stats = DpStats::default();

    match resume {
        None => {
            let start = inst.start_positions();
            let s = start.iter().map(|&x| x as usize).sum::<usize>();
            let pp = arena.pack(&start);
            let (id, _) = ring[s % ring_size].intern(&mut arena, 0, &pp);
            faults.push(0);
            parent.push(NO_STATE);
            next_in_bucket.push(bucket_head[s]);
            bucket_head[s] = id;
        }
        Some(ck) => {
            if ck.fingerprint != fingerprint {
                return Err(DpError::Model(format!(
                    "checkpoint fingerprint mismatch: instance is {fingerprint:#018x}, \
                     snapshot was taken for {:#018x} (different workload, config, or options)",
                    ck.fingerprint
                )));
            }
            best_terminal = resume_ftf(
                &inst,
                ck,
                &mut arena,
                &mut ring,
                &mut faults,
                &mut parent,
                &mut bucket_head,
                &mut next_in_bucket,
            )?;
        }
    }

    let mut ids: Vec<StateId> = Vec::new();
    for s in 0..bucket_head.len() {
        if bucket_head[s] == NO_STATE {
            continue;
        }
        if budget.is_limited() {
            let mem = engine_bytes(&arena, &ring)
                + faults.capacity() * 8
                + (parent.capacity() + next_in_bucket.capacity()) * 4;
            if let Err(reason) = budget.check(arena.len(), mem) {
                let t = truncate_ftf(
                    &inst,
                    &bound,
                    fingerprint,
                    reason,
                    &arena,
                    &faults,
                    &parent,
                    &bucket_head[s..],
                    &next_in_bucket,
                    &best_terminal,
                );
                finish_stats(&mut stats, &arena, &ring);
                return Ok((FtfOutcome::Truncated(t), stats));
            }
        }
        // No state joins bucket s any more: recycle its table for bucket
        // s + ring_size.
        ring[s % ring_size].clear();
        ids.clear();
        let mut cur = bucket_head[s];
        while cur != NO_STATE {
            ids.push(cur);
            cur = next_in_bucket[cur as usize];
        }
        arena.sort_ids(&mut ids);

        // Terminals live exclusively in the final bucket: positions never
        // exceed their end positions, so sum == end_sum forces every
        // sequence to its end. Scanning them in canonical order keeps the
        // best terminal independent of hash order and worker count.
        if s as u64 == end_sum {
            for &id in &ids {
                let f = faults[id as usize];
                if best_terminal.map(|(bf, _)| f < bf).unwrap_or(true) {
                    best_terminal = Some((f, id));
                }
            }
            continue; // terminal states have no successors
        }
        stats.expansions += ids.len();

        // Successors live in strictly later buckets, so the expansions are
        // mutually independent and can fan out over the pool. Workers read
        // the arena immutably and ship back packed keys; only the
        // sequential merge interns.
        let pool = pool_for(options.jobs, ids.len());
        if pool.jobs() <= 1 {
            // Sequential fast path: expand and merge each state inline, in
            // the same canonical order the parallel path merges in — no
            // per-state successor buffer, no per-bucket result vector.
            with_scratch(|sc| {
                for &id in &ids {
                    let StepScratch { pos, next, faulted } = sc;
                    let cfg_bits = arena.cfg(id);
                    arena.positions_into(id, pos);
                    debug_assert!(!inst.all_finished(pos), "terminals are never expanded");
                    let (rx, fault_mask) = step_effect_into(&inst, cfg_bits, pos, next, faulted);
                    let next_faults = faults[id as usize] + u64::from(fault_mask.count_ones());
                    let Some(cut) = bound.edge_cut(&inst, next, next_faults, cfg_bits | rx) else {
                        stats.bound_pruned += successor_count(&inst, cfg_bits, rx, voluntary);
                        continue;
                    };
                    let next_sum: usize = next.iter().map(|&x| x as usize).sum();
                    let pp = arena.pack(next);
                    let table = &mut ring[next_sum % ring_size];
                    for_each_successor_config_rx(&inst, cfg_bits, rx, voluntary, |next_cfg| {
                        if cut.cuts(next_cfg) {
                            stats.bound_pruned += 1;
                            return;
                        }
                        let (nid, is_new) = table.intern(&mut arena, next_cfg, &pp);
                        if is_new {
                            faults.push(next_faults);
                            parent.push(id);
                            next_in_bucket.push(bucket_head[next_sum]);
                            bucket_head[next_sum] = nid;
                        } else if next_faults < faults[nid as usize] {
                            faults[nid as usize] = next_faults;
                            parent[nid as usize] = id;
                        }
                    });
                }
            });
            continue;
        }
        let expansions = pool.par_map(&ids, |_, &id| {
            with_scratch(|sc| {
                let StepScratch { pos, next, faulted } = sc;
                let cfg_bits = arena.cfg(id);
                arena.positions_into(id, pos);
                debug_assert!(!inst.all_finished(pos), "terminals are never expanded");
                let (rx, fault_mask) = step_effect_into(&inst, cfg_bits, pos, next, faulted);
                let next_faults = faults[id as usize] + u64::from(fault_mask.count_ones());
                let Some(cut) = bound.edge_cut(&inst, next, next_faults, cfg_bits | rx) else {
                    return (successor_count(&inst, cfg_bits, rx, voluntary), None);
                };
                let next_sum: usize = next.iter().map(|&x| x as usize).sum();
                let pp = arena.pack(next);
                let (mut cfgs, mut cut_edges) = (Vec::new(), 0);
                for_each_successor_config_rx(&inst, cfg_bits, rx, voluntary, |next_cfg| {
                    if cut.cuts(next_cfg) {
                        cut_edges += 1;
                    } else {
                        cfgs.push(next_cfg);
                    }
                });
                (cut_edges, Some((next_faults, next_sum, pp, cfgs)))
            })
        });

        // Merge sequentially, in the same canonical order.
        for (&id, (cut_edges, expansion)) in ids.iter().zip(expansions) {
            stats.bound_pruned += cut_edges;
            let Some((next_faults, next_sum, pp, cfgs)) = expansion else {
                continue;
            };
            let table = &mut ring[next_sum % ring_size];
            for next_cfg in cfgs {
                let (nid, is_new) = table.intern(&mut arena, next_cfg, &pp);
                if is_new {
                    faults.push(next_faults);
                    parent.push(id);
                    next_in_bucket.push(bucket_head[next_sum]);
                    bucket_head[next_sum] = nid;
                } else if next_faults < faults[nid as usize] {
                    faults[nid as usize] = next_faults;
                    parent[nid as usize] = id;
                }
            }
        }
    }

    // A witness-free run cuts every path that only ties the upper bound,
    // so when no terminal survives, the achievable upper bound is the
    // optimum. A witness run keeps every optimal path and always ends on
    // a terminal.
    let min_faults = best_terminal
        .map(|(f, _)| f)
        .into_iter()
        .chain(bound.ub)
        .min()
        .expect("a run without the bound reaches a terminal state");
    let schedule = options.reconstruct.then(|| {
        let (_, terminal) = best_terminal.expect("a witness run keeps every optimal path");
        reconstruct(&inst, &arena, &parent, terminal)
    });
    finish_stats(&mut stats, &arena, &ring);
    Ok((
        FtfOutcome::Complete(FtfResult {
            min_faults,
            states: arena.len(),
            schedule,
        }),
        stats,
    ))
}

/// Rebuild the engine tables from a snapshot and return its best
/// terminal. Discovered states get ids in the snapshot's canonical order;
/// parent, frontier and terminal keys resolve by binary search over it.
/// Frontier states join their bucket chains and their buckets' ring
/// tables — the only states a resumed run can rediscover.
#[allow(clippy::too_many_arguments)] // internal: the engine's flat tables
fn resume_ftf(
    inst: &DpInstance,
    ck: &FtfCheckpoint,
    arena: &mut StateArena,
    ring: &mut [Dedup],
    faults: &mut Vec<u64>,
    parent: &mut Vec<StateId>,
    bucket_head: &mut [StateId],
    next_in_bucket: &mut Vec<StateId>,
) -> Result<Option<(u64, StateId)>, DpError> {
    let bad = |what: &str| DpError::Model(format!("malformed checkpoint: {what}"));
    let in_range = |key: &StateKey| {
        key.1.len() == inst.num_cores()
            && key
                .1
                .iter()
                .enumerate()
                .all(|(i, &x)| x >= 1 && u64::from(x) <= inst.end_pos(i))
    };
    if !ck.best.iter().all(|(key, _, _)| in_range(key)) {
        return Err(bad("a state lies outside the instance"));
    }
    if !ck.best.windows(2).all(|w| w[0].0 < w[1].0) || !ck.frontier.windows(2).all(|w| w[0] < w[1])
    {
        return Err(bad("states are not in strict canonical order"));
    }
    let lookup = |key: &StateKey| {
        ck.best
            .binary_search_by(|(k, _, _)| k.cmp(key))
            .map(|i| i as StateId)
            .map_err(|_| bad("a referenced state is not among the discovered states"))
    };
    for (key, f, _) in &ck.best {
        arena.push_key(key);
        faults.push(*f);
        parent.push(NO_STATE);
        next_in_bucket.push(NO_STATE);
    }
    for (i, (_, _, par)) in ck.best.iter().enumerate() {
        if let Some(p_key) = par {
            parent[i] = lookup(p_key)?;
        }
    }
    let (mut lo, mut hi) = (usize::MAX, 0);
    for key in &ck.frontier {
        let id = lookup(key)?;
        let s = arena.pos_sum(id) as usize;
        (lo, hi) = (lo.min(s), hi.max(s));
        next_in_bucket[id as usize] = bucket_head[s];
        bucket_head[s] = id;
        let slot = s % ring.len();
        ring[slot].insert_id(arena, id);
    }
    if hi >= lo.saturating_add(ring.len()) {
        return Err(bad("the frontier spans more buckets than one step reaches"));
    }
    match &ck.best_terminal {
        Some((f, key)) => Ok(Some((*f, lookup(key)?))),
        None => Ok(None),
    }
}

/// Approximate engine footprint: the arena payload plus the ring tables.
fn engine_bytes(arena: &StateArena, ring: &[Dedup]) -> usize {
    arena.approx_bytes() + ring.iter().map(Dedup::approx_bytes).sum::<usize>()
}

/// Fill the engine-side [`DpStats`] fields. The arena and the ring tables
/// only grow within a run, so their final size is the peak.
fn finish_stats(stats: &mut DpStats, arena: &StateArena, ring: &[Dedup]) {
    stats.states = arena.len();
    stats.peak_arena_bytes = engine_bytes(arena, ring);
    stats.dedup_load_factor = ring.iter().map(Dedup::peak_load).fold(0.0, f64::max);
}

/// Assemble the anytime bracket and checkpoint for a tripped run. The
/// checkpoint materializes canonical [`StateKey`]s from the arena, so
/// its bytes are identical to what the unpacked engine wrote — the
/// on-disk format is representation-independent.
#[allow(clippy::too_many_arguments)] // internal: the engine's flat tables
fn truncate_ftf(
    inst: &DpInstance,
    bound: &FtfBound,
    fingerprint: u64,
    reason: TripReason,
    arena: &StateArena,
    faults: &[u64],
    parent: &[StateId],
    pending_heads: &[StateId],
    next_in_bucket: &[StateId],
    best_terminal: &Option<(u64, StateId)>,
) -> FtfTruncated {
    let mut frontier_ids: Vec<StateId> = Vec::new();
    for &head in pending_heads {
        let mut cur = head;
        while cur != NO_STATE {
            frontier_ids.push(cur);
            cur = next_in_bucket[cur as usize];
        }
    }
    arena.sort_ids(&mut frontier_ids);

    // The cheapest frontier state in canonical (faults, key) order seeds
    // the greedy completion (strict < over the canonically sorted
    // frontier keeps the smallest key among ties); the incumbent is the
    // better of that and any terminal already found.
    let mut seed: Option<(u64, StateId)> = None;
    for &id in &frontier_ids {
        let f = faults[id as usize];
        if seed.map(|(sf, _)| f < sf).unwrap_or(true) {
            seed = Some((f, id));
        }
    }
    let greedy_ub = seed.map(|(g, id)| g + greedy_completion_faults(inst, &arena.key(id)));
    let terminal_ub = best_terminal.as_ref().map(|(f, _)| *f);
    // The loop only trips while the frontier is non-empty, so at least one
    // bound always exists.
    let incumbent = [bound.ub, greedy_ub, terminal_ub]
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
    let frontier_min = frontier_ids
        .iter()
        .map(|&id| {
            arena.positions_into(id, &mut pos);
            faults[id as usize] + bound.lower_bound(inst, arena.cfg(id), &pos)
        })
        .min()
        .unwrap_or(u64::MAX);
    let lower_bound = frontier_min.min(incumbent);

    let mut all_ids: Vec<StateId> = (0..arena.len() as StateId).collect();
    arena.sort_ids(&mut all_ids);
    let best_vec: Vec<(StateKey, u64, Option<StateKey>)> = all_ids
        .iter()
        .map(|&id| {
            let par = parent[id as usize];
            let par_key = (par != NO_STATE).then(|| arena.key(par));
            (arena.key(id), faults[id as usize], par_key)
        })
        .collect();
    let frontier: Vec<StateKey> = frontier_ids.iter().map(|&id| arena.key(id)).collect();

    FtfTruncated {
        reason,
        lower_bound,
        incumbent,
        states: arena.len(),
        frontier_states: frontier.len(),
        checkpoint: FtfCheckpoint {
            fingerprint,
            best: best_vec,
            frontier,
            best_terminal: best_terminal.as_ref().map(|&(f, id)| (f, arena.key(id))),
        },
    }
}

/// Convenience: just the number.
pub fn ftf_min_faults(workload: &Workload, cfg: SimConfig) -> Result<u64, DpError> {
    ftf_dp(workload, cfg, FtfOptions::default()).map(|r| r.min_faults)
}

fn reconstruct(
    inst: &DpInstance,
    arena: &StateArena,
    parent: &[StateId],
    terminal: StateId,
) -> FtfSchedule {
    // Walk parents back to the start, then replay forward.
    let mut ids = vec![terminal];
    loop {
        let par = parent[*ids.last().unwrap() as usize];
        if par == NO_STATE {
            break;
        }
        ids.push(par);
    }
    ids.reverse();
    let chain: Vec<StateKey> = ids.into_iter().map(|id| arena.key(id)).collect();
    schedule_from_chain(inst, &chain)
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
