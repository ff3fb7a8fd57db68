//! Algorithm 2 of the paper: deciding PARTIAL-INDIVIDUAL-FAULTS.
//!
//! Given a checkpoint time `t` and per-sequence fault bounds `b`, decide
//! whether the workload can be served so that each sequence `R_i` has
//! faulted at most `b_i` times by time `t` (faults are counted at their
//! issue timestep).
//!
//! Implemented as a layered breadth-first search: one DP transition is one
//! parallel timestep, so layer `s` holds every cache-configuration /
//! position state reachable at time `s`, each carrying a Pareto set of
//! per-sequence fault vectors. Vectors exceeding the bounds are pruned
//! immediately (fault counts are monotone, so early pruning is sound),
//! and with [`PifOptions::bound`] so are vectors that the faults each
//! core must still issue by the checkpoint would push past its bound.
//!
//! States within a layer never feed each other (one transition is one
//! timestep), so each layer expands in parallel on the [`mcp_exec`] pool;
//! the expansions merge back sequentially in canonical [`StateKey`] order,
//! making every Pareto set — and hence the decision, witness and expansion
//! counts — identical for every worker count.

use crate::checkpoint::{instance_fingerprint, PifCheckpoint};
use crate::ftf_dp::{schedule_from_chain, FtfSchedule};
use crate::intern::{Dedup, StateArena, StateId, NO_STATE};
use crate::pareto::{
    advance_rows, filter_rows, pack_flags, pack_row, row_words, unpack_row, RowSets, LANES,
    MAX_LANE,
};
use crate::state::{
    for_each_successor_config, for_each_successor_config_rx, pointed_pages, pool_for, step_effect,
    step_effect_into, voluntary_mask, with_scratch, DpError, DpInstance, DpStats, RangeUnion,
    StateKey, StepScratch,
};
use mcp_core::{Budget, SimConfig, Time, TripReason, Workload};

/// Options for the PIF decision procedure.
#[derive(Clone, Copy, Debug)]
pub struct PifOptions {
    /// Explore the full transition relation (including voluntary
    /// evictions). The default is `true` for exactness — unlike FTF
    /// (Theorem 4), the paper states no honesty WLOG for the *fairness*
    /// objective, so the decision procedure conservatively explores all
    /// schedules. With [`bound`](Self::bound) on, the decision explores
    /// only the voluntary evictions of pages the next step reads:
    /// evicting any other page one step later reaches the same fault
    /// vectors (DESIGN §9, "Delayed voluntary evictions"). Set to
    /// `false` for a faster honest-only search.
    pub full_transitions: bool,
    /// Abort with [`DpError::TooLarge`] beyond this many state-vector
    /// expansions.
    pub max_expansions: usize,
    /// Worker threads for layer expansion (0 = the process-wide setting,
    /// see [`mcp_exec::resolved_jobs`]). Any value yields the same result.
    pub jobs: usize,
    /// Drop every fault row that provably cannot meet its bounds: the
    /// faults a core has plus the private-page faults it must still
    /// issue by the checkpoint exceed `min(b_i, n_i)` (see DESIGN §9).
    /// On the full relation the decision also delays every voluntary
    /// eviction of a page the next step does not read; [`pif_witness`]
    /// keeps the full relation. The decision and the witness are the
    /// same either way; only the explored rows and states shrink. `false`
    /// runs the paper's literal relation.
    pub bound: bool,
    /// Force the state arena onto its spilled (unpacked) representation
    /// even when the instance fits the inline `u128` packing. Testing
    /// hook: both representations are observationally identical, and the
    /// cross-representation tests prove it. Not part of the checkpoint
    /// fingerprint — snapshots are interchangeable across this flag.
    #[doc(hidden)]
    pub force_spill: bool,
}

impl Default for PifOptions {
    fn default() -> Self {
        PifOptions {
            full_transitions: true,
            max_expansions: 20_000_000,
            jobs: 0,
            bound: true,
            force_spill: false,
        }
    }
}

/// The per-core pruning bounds `min(b_i, n_i)`. A core faults at most
/// once per request, so capping at `n_i` prunes nothing the bound would
/// not, and it keeps every lane of a packed row at most
/// [`MAX_LANE`](crate::pareto::MAX_LANE). Cores with more requests than
/// that are a [`DpError::Model`].
fn lane_bounds(inst: &DpInstance, bounds_u16: &[u16]) -> Result<Vec<u16>, DpError> {
    inst.seqs
        .iter()
        .zip(bounds_u16)
        .enumerate()
        .map(|(i, (seq, &b))| match u16::try_from(seq.len()) {
            Ok(n) if n <= MAX_LANE => Ok(b.min(n)),
            _ => Err(DpError::Model(format!(
                "core {i} has {} requests; the PIF DP counts at most {MAX_LANE} faults per core",
                seq.len()
            ))),
        })
        .collect()
}

/// The per-core lower bound of the PIF search.
///
/// After serving step `t`, `r = checkpoint − t` steps remain. Each moves
/// a position forward by at least one and passes every boundary, so the
/// request at boundary `b ≥ x'_i` issues by step `t + (b − x'_i) + 1`:
/// by the checkpoint when `b + 1 ≤ x'_i + r`. A page no other core
/// requests enters the cache only through a fault of core `i`, so each
/// such *private* page requested in that window and missing from `C'`
/// is one more fault counted against core `i` by the checkpoint. A
/// shared page may be fetched by another core instead, so it is charged
/// to no one.
struct PifBound {
    /// [`PifOptions::bound`]: when off, nothing is ever forced.
    on: bool,
    /// Per core, unions over ranges of its requests.
    ranges: Vec<RangeUnion>,
    /// Per core, the pages no other core requests.
    private: Vec<u64>,
    /// The per-core bounds `min(b_i, n_i)`.
    lanes: Vec<u16>,
}

/// Scratch for [`PifBound::admit`]: the tightened bound row and the rows
/// (with their tags) it admits.
#[derive(Default)]
struct Admitted<T> {
    bound: Vec<u64>,
    rows: Vec<u64>,
    tags: Vec<T>,
}

impl PifBound {
    fn new(inst: &DpInstance, lanes: &[u16], on: bool) -> Self {
        let masks: Vec<u64> = inst
            .seqs
            .iter()
            .map(|seq| seq.iter().fold(0, |m, &pg| m | (1u64 << pg)))
            .collect();
        let private = (0..masks.len())
            .map(|i| {
                let others = (0..masks.len())
                    .filter(|&j| j != i)
                    .fold(0, |m, j| m | masks[j]);
                masks[i] & !others
            })
            .collect();
        PifBound {
            on,
            ranges: inst.seqs.iter().map(|seq| RangeUnion::new(seq)).collect(),
            private,
            lanes: lanes.to_vec(),
        }
    }

    /// Per core, the private pages it must request by the checkpoint from
    /// positions `next` with `r` steps left, into `out` — left empty when
    /// no core has one (or the bound is off).
    fn forced(&self, inst: &DpInstance, next: &[u32], r: u64, out: &mut Vec<u64>) {
        out.clear();
        if !self.on {
            return;
        }
        let period = inst.period();
        for (i, &x) in next.iter().enumerate() {
            let (x, n) = (u64::from(x), inst.seqs[i].len() as u64);
            // Request j sits at boundary j·period + 1; the window is
            // x ≤ j·period + 1 ≤ x + r − 1.
            let lo = (x - 1).div_ceil(period);
            let mask = if r == 0 || lo >= n {
                0
            } else {
                // Saturating: a horizon may be any `Time`, far past the
                // last request.
                let hi = ((x.saturating_add(r) - 2) / period).min(n - 1);
                self.ranges[i].union(lo as usize, hi as usize) & self.private[i]
            };
            out.push(mask);
        }
        if out.iter().all(|&m| m == 0) {
            out.clear();
        }
    }

    /// The rows of `rows` (tagged `tags`) that successor configuration
    /// `cfg` admits, given the step's [`forced`](Self::forced) pages, and
    /// how many it drops: row `v` is dropped when `v_i + LB_i > lane_i`
    /// for some core, `LB_i = |forced_i \ cfg|` (all rows pass when
    /// nothing is forced). The dropped set is upward closed, so the
    /// admitted rows keep their order and stay an antichain.
    fn admit<'a, T: Copy>(
        &self,
        forced: &[u64],
        cfg: u64,
        rows: &'a [u64],
        tags: &'a [T],
        out: &'a mut Admitted<T>,
    ) -> (&'a [u64], &'a [T], usize) {
        let Admitted {
            bound,
            rows: kept,
            tags: kept_tags,
        } = out;
        bound.clear();
        bound.resize(row_words(forced.len()), 0);
        let mut tightened = false;
        for (i, (&mask, &lane)) in forced.iter().zip(&self.lanes).enumerate() {
            let lb = (mask & !cfg).count_ones() as u16;
            if lb > lane {
                return (&[], &[], tags.len());
            }
            tightened |= lb > 0;
            bound[i / LANES] |= u64::from(lane - lb) << (16 * (i % LANES));
        }
        if !tightened {
            return (rows, tags, 0);
        }
        kept.clear();
        kept_tags.clear();
        let dropped = filter_rows(rows, tags, bound, kept, kept_tags);
        (kept, kept_tags, dropped)
    }
}

/// Decide PARTIAL-INDIVIDUAL-FAULTS: can `workload` be served with cache
/// size/`τ` from `cfg` such that at time `checkpoint` each sequence `i`
/// has faulted at most `bounds[i]` times?
///
/// ```
/// use mcp_core::{SimConfig, Workload};
/// use mcp_offline::{pif_decide, PifOptions};
///
/// let w = Workload::from_u32([vec![1, 2, 1, 2], vec![7, 7, 7, 7]]).unwrap();
/// let cfg = SimConfig::new(3, 1);
/// // Everything fits: one cold miss each (2 and 1) is achievable...
/// assert!(pif_decide(&w, cfg, 20, &[2, 1], PifOptions::default()).unwrap());
/// // ...but zero faults never is.
/// assert!(!pif_decide(&w, cfg, 20, &[0, 0], PifOptions::default()).unwrap());
/// ```
pub fn pif_decide(
    workload: &Workload,
    cfg: SimConfig,
    checkpoint: Time,
    bounds: &[u64],
    options: PifOptions,
) -> Result<bool, DpError> {
    pif_decide_with_stats(workload, cfg, checkpoint, bounds, options).map(|(ans, _)| ans)
}

/// [`pif_decide`] plus engine statistics (peak live states, vector
/// expansions, peak arena footprint) for instrumentation.
pub fn pif_decide_with_stats(
    workload: &Workload,
    cfg: SimConfig,
    checkpoint: Time,
    bounds: &[u64],
    options: PifOptions,
) -> Result<(bool, DpStats), DpError> {
    let budget = Budget::unlimited().with_max_states(options.max_expansions);
    match pif_decide_governed_with_stats(workload, cfg, checkpoint, bounds, options, &budget, None)?
    {
        (PifOutcome::Decided(ans), stats) => Ok((ans, stats)),
        (PifOutcome::Truncated(t), _) => Err(DpError::TooLarge {
            states: t.expansions,
            cap: options.max_expansions,
            incumbent: None,
        }),
    }
}

/// Outcome of a budget-governed PIF decision run.
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)] // Truncated is the rare exit path
pub enum PifOutcome {
    /// The procedure decided feasibility exactly.
    Decided(bool),
    /// The budget tripped at a layer (timestep) boundary; feasibility is
    /// still open, and `checkpoint` resumes the run exactly where it
    /// stopped.
    Truncated(PifTruncated),
}

/// A truncated PIF run. Unlike FTF there is no numeric bracket — the
/// partial answer is "still feasible through time `t_done`": no pruning
/// has refuted the bounds yet, and infeasibility, had it occurred, would
/// already have been reported.
#[derive(Clone, Debug)]
pub struct PifTruncated {
    /// Why the budget tripped.
    pub reason: TripReason,
    /// Timesteps fully served before the trip.
    pub t_done: Time,
    /// Live states in the last completed layer.
    pub live_states: usize,
    /// Cumulative state-vector expansions.
    pub expansions: usize,
    /// Snapshot that resumes this run bit-for-bit (see
    /// [`crate::checkpoint`]).
    pub checkpoint: PifCheckpoint,
}

/// Fingerprint option bits for PIF snapshots: everything beyond the
/// instance that shapes the layer sequence — transition relation,
/// horizon, the lower bound's switch, and the fault bounds themselves
/// (they prune vectors). Bit 3 marks the full relation with delayed
/// voluntary evictions (`bound ∧ full_transitions`), so snapshots taken
/// before the search delayed them are refused.
fn pif_option_bits(options: &PifOptions, checkpoint: Time, bounds_u16: &[u16]) -> u64 {
    let delayed = options.bound && options.full_transitions;
    let mut h: u64 = 2
        | u64::from(options.full_transitions)
        | (u64::from(options.bound) << 2)
        | (u64::from(delayed) << 3);
    h = h.wrapping_mul(0x100_0000_01b3) ^ checkpoint;
    for &b in bounds_u16 {
        h = h.wrapping_mul(0x100_0000_01b3) ^ u64::from(b);
    }
    h
}

/// The resume fingerprint a snapshot must carry to be compatible with
/// this `(workload, config, horizon, bounds, options)` tuple — the PIF
/// analogue of [`crate::ftf_dp::ftf_fingerprint`].
pub fn pif_fingerprint(
    workload: &Workload,
    cfg: SimConfig,
    checkpoint: Time,
    bounds: &[u64],
    options: &PifOptions,
) -> Result<u64, DpError> {
    let inst = DpInstance::build(workload, &cfg)?;
    let bounds_u16: Vec<u16> = bounds
        .iter()
        .map(|&b| b.min(u16::MAX as u64) as u16)
        .collect();
    Ok(instance_fingerprint(
        &inst,
        pif_option_bits(options, checkpoint, &bounds_u16),
    ))
}

/// Budget-governed, resumable PIF decision (Algorithm 2, anytime form).
///
/// The budget is checked between timestep layers (its `states` axis
/// counts vector *expansions*, matching `PifOptions::max_expansions`);
/// within a layer the run is identical to [`pif_decide`], so a governed
/// run that completes returns the exact decision, and resuming a
/// truncated run — at any worker count — reproduces it bit-for-bit.
///
/// `options.max_expansions` is ignored here; cap via
/// [`Budget::with_max_states`]. `resume` must come from the same
/// workload, config, options, horizon, and bounds
/// (fingerprint-validated; mismatch is a [`DpError::Model`]).
#[allow(clippy::too_many_arguments)] // mirrors pif_decide + governance
pub fn pif_decide_governed(
    workload: &Workload,
    cfg: SimConfig,
    checkpoint: Time,
    bounds: &[u64],
    options: PifOptions,
    budget: &Budget,
    resume: Option<&PifCheckpoint>,
) -> Result<PifOutcome, DpError> {
    pif_decide_governed_with_stats(workload, cfg, checkpoint, bounds, options, budget, resume)
        .map(|(outcome, _)| outcome)
}

/// [`pif_decide_governed`] plus engine statistics. `stats.states` is the
/// peak number of live states in any layer; `stats.expansions` counts
/// fault-vector advances (the budget's `states` axis).
#[allow(clippy::too_many_arguments)] // mirrors pif_decide + governance
pub fn pif_decide_governed_with_stats(
    workload: &Workload,
    cfg: SimConfig,
    checkpoint: Time,
    bounds: &[u64],
    options: PifOptions,
    budget: &Budget,
    resume: Option<&PifCheckpoint>,
) -> Result<(PifOutcome, DpStats), DpError> {
    assert_eq!(bounds.len(), workload.num_cores(), "one bound per sequence");
    let inst = DpInstance::build(workload, &cfg)?;
    let mut stats = DpStats::default();
    if checkpoint == 0 {
        return Ok((PifOutcome::Decided(true), stats)); // no request has issued yet
    }
    let bounds_u16: Vec<u16> = bounds
        .iter()
        .map(|&b| b.min(u16::MAX as u64) as u16)
        .collect();
    let fingerprint =
        instance_fingerprint(&inst, pif_option_bits(&options, checkpoint, &bounds_u16));

    let lanes = lane_bounds(&inst, &bounds_u16)?;
    let p = inst.num_cores();
    let w = row_words(p);
    let mut bound_row = Vec::with_capacity(w);
    pack_row(&lanes, &mut bound_row);
    let max_pos = (0..p).map(|i| inst.end_pos(i)).max().unwrap_or(1);
    let end_sum: u64 = (0..p).map(|i| inst.end_pos(i)).sum();
    // Two arenas alternate: the live layer and the one being built, and
    // `dedup` covers the newest of them. `clear` keeps every allocation,
    // so the steady state allocates nothing: the Pareto sets (rows packed
    // per `crate::pareto`, indexed by StateId) recycle their vectors too.
    let mut arena = StateArena::new(p, max_pos, options.force_spill);
    let mut next_arena = StateArena::new(p, max_pos, options.force_spill);
    let mut dedup = Dedup::new();
    let mut sets: RowSets<()> = RowSets::new();
    let mut next_sets: RowSets<()> = RowSets::new();
    let mut ids: Vec<StateId> = Vec::new();
    // Per-state scratch of the sequential path: the fault increment row
    // and the source state's advanced rows.
    let mut inc: Vec<u64> = Vec::with_capacity(w);
    let mut advanced: Vec<u64> = Vec::new();
    // One (zero-sized) tag per advanced row.
    let mut units: Vec<()> = Vec::new();
    let bound = PifBound::new(&inst, &lanes, options.bound);
    let (mut forced, mut admitted) = (Vec::new(), Admitted::default());

    let mut expansions = 0usize;
    let mut t_done: Time = 0;
    match resume {
        None => {
            let pp = arena.pack(&inst.start_positions());
            let (id, is_new) = dedup.intern(&mut arena, 0, &pp);
            debug_assert!(is_new && id == 0);
            sets.push(&vec![0u64; w], &[()]);
        }
        Some(ck) => {
            if ck.fingerprint != fingerprint {
                return Err(DpError::Model(format!(
                    "checkpoint fingerprint mismatch: instance is {fingerprint:#018x}, \
                     snapshot was taken for {:#018x} (different workload, config, \
                     options, horizon, or bounds)",
                    ck.fingerprint
                )));
            }
            let mut row = Vec::with_capacity(w);
            for (key, vectors) in &ck.layer {
                let pp = arena.pack(&key.1);
                let (id, is_new) = dedup.intern(&mut arena, key.0, &pp);
                if is_new {
                    debug_assert_eq!(id as usize, sets.len());
                    sets.push(&[], &[]);
                } else {
                    // Duplicate key in a (checksummed) snapshot: keep the
                    // last, matching the old map-insert semantics.
                    sets.replace(id as usize, &[], &[]);
                }
                for v in vectors {
                    if v.len() != p || v.iter().zip(&lanes).any(|(x, b)| x > b) {
                        return Err(DpError::Model(format!(
                            "malformed checkpoint: fault vector {v:?} exceeds the bounds {lanes:?}"
                        )));
                    }
                    row.clear();
                    pack_row(v, &mut row);
                    sets.insert(id as usize, &row, ());
                }
            }
            expansions = ck.expansions as usize;
            t_done = ck.t_done;
        }
    }

    for t in (t_done + 1)..=checkpoint {
        track_layer(&mut stats, &arena, &dedup);
        if budget.is_limited() {
            let vectors = sets.total_rows();
            let approx_mem = arena.len() * (24 + 8 * p) + vectors * (2 * p + 32);
            if let Err(reason) = budget.check(expansions, approx_mem) {
                // Materialized canonical keys in canonical order: the
                // snapshot bytes are identical to what the unpacked
                // engine wrote.
                ids.clear();
                ids.extend(0..arena.len() as StateId);
                arena.sort_ids(&mut ids);
                let snapshot: Vec<(StateKey, Vec<Box<[u16]>>)> = ids
                    .iter()
                    .map(|&id| {
                        let rows = sets.rows(id as usize).chunks_exact(w);
                        (arena.key(id), rows.map(|r| unpack_row(r, p)).collect())
                    })
                    .collect();
                stats.expansions = expansions;
                return Ok((
                    PifOutcome::Truncated(PifTruncated {
                        reason,
                        t_done: t - 1,
                        live_states: snapshot.len(),
                        expansions,
                        checkpoint: PifCheckpoint {
                            fingerprint,
                            t_done: t - 1,
                            expansions: expansions as u64,
                            layer: snapshot,
                        },
                    }),
                    stats,
                ));
            }
        }
        // Canonical order: Pareto-set contents (and their order) come out
        // identical for every worker count.
        ids.clear();
        ids.extend(0..arena.len() as StateId);
        arena.sort_ids(&mut ids);
        // Positions never exceed their end positions, so a position sum
        // of `end_sum` is exactly "all finished": no further requests,
        // hence no further faults — every surviving vector already
        // satisfies the bounds.
        if ids.iter().any(|&id| arena.pos_sum(id) == end_sum) {
            stats.expansions = expansions;
            return Ok((PifOutcome::Decided(true), stats));
        }
        next_arena.clear();
        next_sets.clear();
        dedup.clear();
        let remaining = checkpoint - t;
        // One layer is one timestep: states within it never feed each
        // other, so the expansion fans out over the pool. Workers read
        // the arena immutably and ship back packed keys; only the
        // sequential merge interns.
        let pool = pool_for(options.jobs, ids.len());
        if pool.jobs() <= 1 {
            // Sequential fast path: expand and merge each state inline in
            // the same canonical order the parallel path merges in — no
            // per-state successor buffer, no per-layer result vector.
            with_scratch(|sc| {
                for &id in &ids {
                    let StepScratch { pos, next, faulted } = sc;
                    let cfg_bits = arena.cfg(id);
                    arena.positions_into(id, pos);
                    let (rx, _) = step_effect_into(&inst, cfg_bits, pos, next, faulted);
                    inc.clear();
                    pack_flags(faulted, &mut inc);
                    advanced.clear();
                    advance_rows(
                        sets.rows(id as usize),
                        &inc,
                        &bound_row,
                        &mut advanced,
                        |_| {},
                    );
                    if advanced.is_empty() {
                        continue;
                    }
                    units.resize(advanced.len() / w, ());
                    bound.forced(&inst, next, remaining, &mut forced);
                    let pp = arena.pack(next);
                    for_each_successor_config_rx(
                        &inst,
                        cfg_bits,
                        rx,
                        decide_voluntary(&inst, &options, next),
                        |next_cfg| {
                            let (rows, tags, dropped) =
                                bound.admit(&forced, next_cfg, &advanced, &units, &mut admitted);
                            stats.bound_pruned += dropped;
                            if tags.is_empty() {
                                return;
                            }
                            let (nid, is_new) = dedup.intern(&mut next_arena, next_cfg, &pp);
                            merge_rows(&mut next_sets, nid, is_new, rows, tags);
                            expansions += tags.len();
                        },
                    );
                }
            });
        } else {
            let expanded = pool.par_map(&ids, |_, &id| {
                with_scratch(|sc| {
                    let StepScratch { pos, next, faulted } = sc;
                    let cfg_bits = arena.cfg(id);
                    arena.positions_into(id, pos);
                    let (rx, _) = step_effect_into(&inst, cfg_bits, pos, next, faulted);
                    // Advance each surviving vector.
                    let mut inc = Vec::with_capacity(w);
                    pack_flags(faulted, &mut inc);
                    let mut advanced = Vec::new();
                    advance_rows(
                        sets.rows(id as usize),
                        &inc,
                        &bound_row,
                        &mut advanced,
                        |_| {},
                    );
                    if advanced.is_empty() {
                        return None;
                    }
                    let mut forced = Vec::new();
                    bound.forced(&inst, next, remaining, &mut forced);
                    let pp = arena.pack(next);
                    let mut cfgs = Vec::new();
                    for_each_successor_config_rx(
                        &inst,
                        cfg_bits,
                        rx,
                        decide_voluntary(&inst, &options, next),
                        |next_cfg| cfgs.push(next_cfg),
                    );
                    Some((advanced, forced, pp, cfgs))
                })
            });
            // Merge sequentially, in the same canonical order: the
            // insertion sequence into each Pareto set — and hence its
            // stored order — is identical for every worker count.
            for (advanced, forced, pp, cfgs) in expanded.into_iter().flatten() {
                units.resize(advanced.len() / w, ());
                for next_cfg in cfgs {
                    let (rows, tags, dropped) =
                        bound.admit(&forced, next_cfg, &advanced, &units, &mut admitted);
                    stats.bound_pruned += dropped;
                    if tags.is_empty() {
                        continue;
                    }
                    let (nid, is_new) = dedup.intern(&mut next_arena, next_cfg, &pp);
                    merge_rows(&mut next_sets, nid, is_new, rows, tags);
                    expansions += tags.len();
                }
            }
        }
        if next_arena.is_empty() {
            stats.expansions = expansions;
            return Ok((PifOutcome::Decided(false), stats));
        }
        std::mem::swap(&mut arena, &mut next_arena);
        std::mem::swap(&mut sets, &mut next_sets);
    }
    // Survived the serving at t = checkpoint with every bound respected.
    track_layer(&mut stats, &arena, &dedup);
    stats.expansions = expansions;
    Ok((PifOutcome::Decided(true), stats))
}

/// The voluntary evictions a decision step to positions `next` explores
/// (the mask of [`for_each_successor_config_rx`]): none on the honest
/// relation, every page on the paper's literal one (`bound: false`), and
/// with the bound on only the pages the next step reads. Evicting any
/// other page one step later reaches the same fault vectors, so the
/// decision is the same (DESIGN §9, "Delayed voluntary evictions").
fn decide_voluntary(inst: &DpInstance, options: &PifOptions, next: &[u32]) -> u64 {
    if options.full_transitions && options.bound {
        pointed_pages(inst, next)
    } else {
        voluntary_mask(!options.full_transitions)
    }
}

/// Fold the current layer (its arena and dedup table) into the
/// peak-tracking [`DpStats`] fields.
fn track_layer(stats: &mut DpStats, arena: &StateArena, dedup: &Dedup) {
    if arena.len() > stats.states {
        stats.states = arena.len();
        stats.dedup_load_factor = dedup.load_factor();
    }
    stats.peak_arena_bytes = stats
        .peak_arena_bytes
        .max(arena.approx_bytes() + dedup.approx_bytes());
}

/// Insert a source state's advanced rows, with their tags, into the
/// Pareto set of successor `i`, opening the set if the successor is new.
fn merge_rows<T: Copy>(sets: &mut RowSets<T>, i: StateId, is_new: bool, rows: &[u64], tags: &[T]) {
    if is_new {
        debug_assert_eq!(i as usize, sets.len());
        sets.push(&[], &[]);
    }
    let w = rows.len() / tags.len();
    for (row, &tag) in rows.chunks_exact(w).zip(tags) {
        sets.insert(i as usize, row, tag);
    }
}

/// Provenance of a witness Pareto row: the source state's id and the
/// index of the source row in its set (`(NO_STATE, 0)` at the root).
type Provenance = (StateId, u32);

/// Like [`pif_decide`], but a "yes" comes with a **witness**: a complete,
/// replayable eviction schedule whose fault vector at `checkpoint`
/// respects every bound. Returns `Ok(None)` when infeasible.
///
/// The witness prefix realizes the feasible fault vector; past the
/// checkpoint the schedule is completed with arbitrary legal (lazy)
/// evictions so the whole workload replays on the engine.
pub fn pif_witness(
    workload: &Workload,
    cfg: SimConfig,
    checkpoint: Time,
    bounds: &[u64],
    options: PifOptions,
) -> Result<Option<FtfSchedule>, DpError> {
    assert_eq!(bounds.len(), workload.num_cores(), "one bound per sequence");
    let inst = DpInstance::build(workload, &cfg)?;
    let start: StateKey = (0u64, inst.start_positions());
    if checkpoint == 0 {
        // Trivially feasible: any legal schedule works.
        let chain = complete_chain(&inst, start);
        return Ok(Some(schedule_from_chain(&inst, &chain)));
    }
    let bounds_u16: Vec<u16> = bounds
        .iter()
        .map(|&b| b.min(u16::MAX as u64) as u16)
        .collect();
    let lanes = lane_bounds(&inst, &bounds_u16)?;
    let p = inst.num_cores();
    let w = row_words(p);
    let mut bound_row = Vec::with_capacity(w);
    pack_row(&lanes, &mut bound_row);
    let max_pos = (0..p).map(|i| inst.end_pos(i)).max().unwrap_or(1);
    let end_sum: u64 = (0..p).map(|i| inst.end_pos(i)).sum();
    // One arena stores every layer: layer t's states are the ids
    // `bases[t] .. bases[t] + layers[t].len()`, deduplicated by a
    // per-layer table, and `layers[t]` holds their Pareto sets with each
    // row's provenance in the parallel tag vector.
    let mut arena = StateArena::new(p, max_pos, options.force_spill);
    let mut dedup = Dedup::new();
    let pp = arena.pack(&start.1);
    let (start_id, _) = dedup.intern(&mut arena, start.0, &pp);
    let mut first: RowSets<Provenance> = RowSets::new();
    first.push(&vec![0u64; w], &[(NO_STATE, 0)]);
    let mut layers = vec![first];
    let mut bases = vec![start_id];

    let mut expansions = 0usize;
    let mut terminal: Option<(usize, StateId)> = None; // (layer, state)
    let mut ids: Vec<StateId> = Vec::new();
    let bound = PifBound::new(&inst, &lanes, options.bound);
    let mut admitted = Admitted::default();
    'outer: for t in 1..=checkpoint {
        let remaining = checkpoint - t;
        let (current, base) = (&layers[t as usize - 1], bases[t as usize - 1]);
        ids.clear();
        ids.extend(base..base + current.len() as StateId);
        arena.sort_ids(&mut ids);
        // The canonically smallest finished state, so the witness endpoint
        // does not depend on hash order.
        if let Some(&id) = ids.iter().find(|&&id| arena.pos_sum(id) == end_sum) {
            terminal = Some((t as usize - 1, id));
            break 'outer;
        }
        let expanded = pool_for(options.jobs, ids.len()).par_map(&ids, |_, &id| {
            with_scratch(|sc| {
                let StepScratch { pos, next, faulted } = sc;
                let cfg_bits = arena.cfg(id);
                arena.positions_into(id, pos);
                let (rx, _) = step_effect_into(&inst, cfg_bits, pos, next, faulted);
                let mut inc = Vec::with_capacity(w);
                pack_flags(faulted, &mut inc);
                let (mut advanced, mut sources) = (Vec::new(), Vec::new());
                let rows = current.rows((id - base) as usize);
                advance_rows(rows, &inc, &bound_row, &mut advanced, |j| {
                    sources.push((id, j as u32))
                });
                if sources.is_empty() {
                    return None;
                }
                let mut forced = Vec::new();
                bound.forced(&inst, next, remaining, &mut forced);
                let pp = arena.pack(next);
                let mut cfgs = Vec::new();
                for_each_successor_config_rx(
                    &inst,
                    cfg_bits,
                    rx,
                    voluntary_mask(!options.full_transitions),
                    |next_cfg| cfgs.push(next_cfg),
                );
                Some((advanced, sources, forced, pp, cfgs))
            })
        });
        let mut next: RowSets<Provenance> = RowSets::new();
        let next_base = arena.len() as StateId;
        dedup.clear();
        for (advanced, sources, forced, pp, cfgs) in expanded.into_iter().flatten() {
            for next_cfg in cfgs {
                let (rows, tags, _) =
                    bound.admit(&forced, next_cfg, &advanced, &sources, &mut admitted);
                if tags.is_empty() {
                    continue;
                }
                let (nid, is_new) = dedup.intern(&mut arena, next_cfg, &pp);
                merge_rows(&mut next, nid - next_base, is_new, rows, tags);
                expansions += tags.len();
            }
            if expansions > options.max_expansions {
                return Err(DpError::TooLarge {
                    states: expansions,
                    cap: options.max_expansions,
                    incumbent: None,
                });
            }
        }
        if next.len() == 0 {
            return Ok(None);
        }
        layers.push(next);
        bases.push(next_base);
    }

    // Pick the witness endpoint: an all-finished state found early, or the
    // canonically smallest surviving state in the final layer.
    let (end_layer, end_id) = match terminal {
        Some(x) => x,
        None => {
            let last = layers.len() - 1;
            let id = (bases[last]..bases[last] + layers[last].len() as StateId)
                .min_by(|&a, &b| arena.cmp_ids(a, b))
                .expect("nonempty layer");
            (last, id)
        }
    };
    // Walk the first row's provenance back to layer 0, materializing
    // canonical keys.
    let tag_of = |layer: usize, id: StateId, idx: usize| {
        layers[layer].tags((id - bases[layer]) as usize)[idx]
    };
    let mut chain: Vec<StateKey> = vec![arena.key(end_id)];
    let mut cursor = tag_of(end_layer, end_id, 0);
    let mut layer_idx = end_layer;
    while cursor.0 != NO_STATE {
        let (id, idx) = cursor;
        layer_idx -= 1;
        cursor = tag_of(layer_idx, id, idx as usize);
        chain.push(arena.key(id));
    }
    chain.reverse();
    // Extend past the checkpoint with arbitrary legal (lazy) transitions
    // so the witness replays end-to-end.
    let tail = complete_chain(&inst, chain.last().expect("nonempty chain").clone());
    chain.extend(tail.into_iter().skip(1));
    Ok(Some(schedule_from_chain(&inst, &chain)))
}

/// Drive a state to completion with the first lazy successor each step.
fn complete_chain(inst: &DpInstance, from: StateKey) -> Vec<StateKey> {
    let mut chain = vec![from];
    loop {
        let state = chain.last().expect("nonempty");
        if inst.all_finished(&state.1) {
            return chain;
        }
        let effect = step_effect(inst, state.0, &state.1);
        let mut chosen: Option<u64> = None;
        for_each_successor_config(inst, state.0, &effect, true, |cfg| {
            if chosen.is_none() {
                chosen = Some(cfg);
            }
        });
        let next_cfg = chosen.expect("every state has a lazy successor");
        chain.push((next_cfg, effect.next_positions.clone()));
    }
}

/// MAX-PIF (Theorem 3's optimization version): the maximum number of
/// sequences whose fault counts at `checkpoint` can be kept within their
/// bounds. Exact, by subset enumeration over [`pif_decide`] — exponential
/// in `p`, usable only for small instances.
pub fn max_pif(
    workload: &Workload,
    cfg: SimConfig,
    checkpoint: Time,
    bounds: &[u64],
    options: PifOptions,
) -> Result<usize, DpError> {
    let p = workload.num_cores();
    assert_eq!(bounds.len(), p);
    for size in (1..=p).rev() {
        // Enumerate subsets of exactly `size` sequences to protect.
        let mut subset: Vec<usize> = (0..size).collect();
        loop {
            let mut relaxed = vec![u64::MAX; p];
            for &i in &subset {
                relaxed[i] = bounds[i];
            }
            if pif_decide(workload, cfg, checkpoint, &relaxed, options)? {
                return Ok(size);
            }
            // Advance to the next lexicographic combination.
            let mut i = size as isize - 1;
            while i >= 0 && subset[i as usize] == i as usize + p - size {
                i -= 1;
            }
            if i < 0 {
                break;
            }
            let i = i as usize;
            subset[i] += 1;
            for j in i + 1..size {
                subset[j] = subset[j - 1] + 1;
            }
        }
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftf_dp::ftf_min_faults;
    use mcp_core::simulate;
    use mcp_policies::shared_lru;

    fn wl(seqs: &[&[u32]]) -> Workload {
        Workload::from_u32(seqs.iter().map(|s| s.to_vec())).unwrap()
    }

    #[test]
    fn bounds_above_request_counts_decide_like_request_counts() {
        // A core faults at most once per request, so pruning at
        // min(b_i, n_i) is exact: any bound at or above n_i behaves alike,
        // decision and search statistics both.
        let w = wl(&[&[1, 2, 3, 1, 2], &[7, 8, 7, 8, 7, 8, 9]]);
        let cfg = SimConfig::new(3, 1);
        let n = [5u64, 7];
        for t in [4u64, 9, 30] {
            for other in [0u64, 2, 4] {
                let at_n = pif_decide_with_stats(&w, cfg, t, &[n[0], other], PifOptions::default())
                    .unwrap();
                for above in [n[0] + 1, 1000, u64::MAX] {
                    let got =
                        pif_decide_with_stats(&w, cfg, t, &[above, other], PifOptions::default())
                            .unwrap();
                    assert_eq!(got, at_n, "t={t} bounds=[{above}, {other}]");
                }
            }
        }
    }

    #[test]
    fn request_counts_beyond_the_lane_width_are_a_model_error() {
        let long: Vec<u32> = (0..=u32::from(MAX_LANE)).map(|i| i % 2).collect();
        let w = Workload::from_u32([long, vec![7]]).unwrap();
        let cfg = SimConfig::new(3, 0);
        let opts = PifOptions::default();
        let err = pif_decide(&w, cfg, 1, &[1, 1], opts).unwrap_err();
        assert!(matches!(err, DpError::Model(_)), "got {err:?}");
        let err = pif_witness(&w, cfg, 1, &[1, 1], opts).unwrap_err();
        assert!(matches!(err, DpError::Model(_)), "got {err:?}");
        // One request fewer fits a lane.
        let w = Workload::from_u32([(0..u32::from(MAX_LANE)).map(|i| i % 2).collect(), vec![7]])
            .unwrap();
        assert!(pif_decide(&w, cfg, 1, &[1, 1], opts).unwrap());
    }

    #[test]
    fn trivially_feasible_with_generous_bounds() {
        let w = wl(&[&[1, 2, 1], &[7, 8, 7]]);
        let cfg = SimConfig::new(2, 1);
        let ok = pif_decide(&w, cfg, 1000, &[100, 100], PifOptions::default()).unwrap();
        assert!(ok);
    }

    #[test]
    fn infeasible_with_zero_bounds() {
        // Cold misses are unavoidable: zero faults by any positive time
        // at which a request has issued is impossible.
        let w = wl(&[&[1], &[7]]);
        let cfg = SimConfig::new(2, 0);
        assert!(!pif_decide(&w, cfg, 1, &[0, 0], PifOptions::default()).unwrap());
        // But before any request issues (t=0) it is trivially fine.
        assert!(pif_decide(&w, cfg, 0, &[0, 0], PifOptions::default()).unwrap());
    }

    #[test]
    fn any_concrete_run_is_a_feasible_witness() {
        // The fault vector of an actual S_LRU run at its makespan must be
        // accepted by the decision procedure.
        let w = wl(&[&[1, 2, 3, 1, 2], &[7, 8, 7, 8, 7]]);
        let cfg = SimConfig::new(3, 1);
        let run = simulate(&w, cfg, shared_lru()).unwrap();
        let t = run.makespan;
        let b = run.fault_vector_at(t);
        assert!(pif_decide(&w, cfg, t, &b, PifOptions::default()).unwrap());
    }

    #[test]
    fn total_bound_consistent_with_ftf() {
        // If Σ b_i < FTF optimum and the checkpoint is beyond everyone's
        // completion, PIF must be infeasible.
        let w = wl(&[&[1, 2, 1, 2], &[7, 8, 7, 8]]);
        let cfg = SimConfig::new(2, 1);
        let opt = ftf_min_faults(&w, cfg).unwrap();
        assert!(opt >= 4);
        // Give each sequence just under half the optimum; far horizon.
        let b = vec![(opt / 2).saturating_sub(1); 2];
        let horizon = 200;
        assert!(!pif_decide(&w, cfg, horizon, &b, PifOptions::default()).unwrap());
    }

    #[test]
    fn early_checkpoint_is_easier_than_late() {
        let w = wl(&[&[1, 2, 3, 1, 2, 3], &[7, 8, 9, 7, 8, 9]]);
        let cfg = SimConfig::new(3, 1);
        let b = vec![3, 3];
        let early = pif_decide(&w, cfg, 3, &b, PifOptions::default()).unwrap();
        assert!(early, "few requests issued by t=3");
        // Monotonicity: any infeasible early checkpoint stays infeasible
        // later with the same bounds.
        for t in 1..20 {
            let now = pif_decide(&w, cfg, t, &b, PifOptions::default()).unwrap();
            let later = pif_decide(&w, cfg, t + 1, &b, PifOptions::default()).unwrap();
            assert!(now || !later, "feasibility must be antitone in t (t={t})");
        }
    }

    #[test]
    fn max_pif_counts_satisfiable_sequences() {
        // Three cores, K=3, each repeats a single page: all can be within
        // 1 fault; with impossible bounds for one core, 2 remain.
        let w = wl(&[&[1, 1, 1], &[2, 2, 2], &[3, 3, 3]]);
        let cfg = SimConfig::new(3, 0);
        let all = max_pif(&w, cfg, 10, &[1, 1, 1], PifOptions::default()).unwrap();
        assert_eq!(all, 3);
        let two = max_pif(&w, cfg, 10, &[0, 1, 1], PifOptions::default()).unwrap();
        assert_eq!(two, 2);
        let one = max_pif(&w, cfg, 10, &[0, 0, 1], PifOptions::default()).unwrap();
        assert_eq!(one, 1);
        let zero = max_pif(&w, cfg, 10, &[0, 0, 0], PifOptions::default()).unwrap();
        assert_eq!(zero, 0);
    }

    #[test]
    fn witness_agrees_with_decide_and_replays() {
        use mcp_policies::Replay;
        let w = wl(&[&[1, 2, 3, 1, 2], &[7, 8, 7, 8, 7]]);
        let cfg = SimConfig::new(3, 1);
        for t in [3u64, 8, 14, 20] {
            for b in [[2u64, 2], [3, 1], [5, 5], [0, 0]] {
                let decide = pif_decide(&w, cfg, t, &b, PifOptions::default()).unwrap();
                let witness = pif_witness(&w, cfg, t, &b, PifOptions::default()).unwrap();
                assert_eq!(decide, witness.is_some(), "t={t} b={b:?}");
                if let Some(schedule) = witness {
                    let replay = Replay::new(schedule.decisions).with_voluntary(schedule.voluntary);
                    let run = mcp_core::simulate(&w, cfg, replay).unwrap();
                    let at = run.fault_vector_at(t);
                    for (i, (&f, &bound)) in at.iter().zip(&b).enumerate() {
                        assert!(
                            f <= bound,
                            "witness violates bound {i}: {f} > {bound} (t={t}, b={b:?})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn horizons_past_completion_decide_alike_up_to_the_largest() {
        // Every schedule has finished long before t = 100, so any later
        // horizon, `Time::MAX` included, asks the same question.
        let w = wl(&[&[1, 2, 3, 1, 2], &[7, 8, 7, 8, 7]]);
        let cfg = SimConfig::new(3, 1);
        for b in [[2u64, 2], [3, 3], [5, 5]] {
            let at_100 = pif_decide(&w, cfg, 100, &b, PifOptions::default()).unwrap();
            for t in [1_000, Time::MAX - 1, Time::MAX] {
                let got = pif_decide(&w, cfg, t, &b, PifOptions::default()).unwrap();
                assert_eq!(got, at_100, "t={t} b={b:?}");
                let witness = pif_witness(&w, cfg, t, &b, PifOptions::default()).unwrap();
                assert_eq!(witness.is_some(), at_100, "witness t={t} b={b:?}");
            }
        }
    }

    #[test]
    fn witness_at_time_zero_is_any_schedule() {
        use mcp_policies::Replay;
        let w = wl(&[&[1, 2], &[7, 8]]);
        let cfg = SimConfig::new(2, 1);
        let schedule = pif_witness(&w, cfg, 0, &[0, 0], PifOptions::default())
            .unwrap()
            .unwrap();
        let run = mcp_core::simulate(
            &w,
            cfg,
            Replay::new(schedule.decisions).with_voluntary(schedule.voluntary),
        )
        .unwrap();
        assert_eq!(run.total_faults() + run.total_hits(), 4);
    }

    #[test]
    fn governed_truncates_and_resumes_to_same_decision() {
        use std::time::Duration;
        let w = wl(&[&[1, 2, 3, 1, 2], &[7, 8, 7, 8, 7]]);
        let cfg = SimConfig::new(3, 1);
        let opts = PifOptions::default();
        for b in [[2u64, 2], [0, 0], [5, 5]] {
            let t = 8;
            let full = pif_decide(&w, cfg, t, &b, opts).unwrap();
            let budget = Budget::unlimited().with_deadline(Duration::ZERO);
            let PifOutcome::Truncated(tr) =
                pif_decide_governed(&w, cfg, t, &b, opts, &budget, None).unwrap()
            else {
                panic!("zero deadline must truncate")
            };
            assert_eq!(tr.reason, TripReason::Deadline);
            assert_eq!(tr.t_done, 0);
            let resumed = pif_decide_governed(
                &w,
                cfg,
                t,
                &b,
                opts,
                &Budget::unlimited(),
                Some(&tr.checkpoint),
            )
            .unwrap();
            let PifOutcome::Decided(ans) = resumed else {
                panic!("unlimited resume must decide")
            };
            assert_eq!(ans, full, "resume diverged for b={b:?}");
        }
    }

    #[test]
    fn governed_rejects_foreign_checkpoint() {
        use std::time::Duration;
        let w = wl(&[&[1, 2, 1], &[7, 8, 7]]);
        let cfg = SimConfig::new(2, 1);
        let opts = PifOptions::default();
        let budget = Budget::unlimited().with_deadline(Duration::ZERO);
        let PifOutcome::Truncated(tr) =
            pif_decide_governed(&w, cfg, 6, &[3, 3], opts, &budget, None).unwrap()
        else {
            panic!("zero deadline must truncate")
        };
        // Same workload, different bounds: the layer pruning differs, so
        // the snapshot must be refused.
        let err = pif_decide_governed(
            &w,
            cfg,
            6,
            &[2, 2],
            opts,
            &Budget::unlimited(),
            Some(&tr.checkpoint),
        )
        .unwrap_err();
        assert!(matches!(err, DpError::Model(_)));
    }

    #[test]
    fn honest_only_never_claims_more_than_full() {
        let w = wl(&[&[1, 2, 1, 2], &[7, 8, 7, 8]]);
        let cfg = SimConfig::new(2, 1);
        for t in [2u64, 5, 9, 14] {
            for b in [[2u64, 2], [3, 1], [1, 3]] {
                let full = pif_decide(&w, cfg, t, &b, PifOptions::default()).unwrap();
                let honest = pif_decide(
                    &w,
                    cfg,
                    t,
                    &b,
                    PifOptions {
                        full_transitions: false,
                        ..Default::default()
                    },
                )
                .unwrap();
                assert!(
                    full || !honest,
                    "honest feasible implies full feasible (t={t})"
                );
            }
        }
    }
}
