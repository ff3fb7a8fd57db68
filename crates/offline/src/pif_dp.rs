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
//! Each timestep is one layer of the frontier driver (`crate::frontier`),
//! which may fan it out over the [`mcp_exec`] pool: every Pareto set, and
//! so the decision, witness and counts, is the same for every worker count.

use crate::checkpoint::{check_fingerprint, instance_fingerprint, PifCheckpoint};
use crate::frontier::{walk, Frontier, Step};
use crate::ftf_dp::{schedule_from_chain, FtfSchedule};
use crate::intern::{Dedup, PackedPos, StateArena, StateId};
use crate::pareto::{
    advance_rows, filter_rows, pack_flags, pack_row, row_words, unpack_row, RowSets, LANES,
    MAX_LANE,
};
use crate::state::{
    lazy_completion, pointed_pages, voluntary_mask, DpError, DpInstance, DpStats, RangeUnion,
    StateKey,
};
use mcp_core::{Budget, SimConfig, Time, TripReason, Workload};
use std::ops::ControlFlow;

/// Options for the PIF decision procedure.
#[derive(Clone, Copy, Debug)]
pub struct PifOptions {
    /// Explore the full transition relation (including voluntary
    /// evictions). The default is `true` for exactness — unlike FTF
    /// (Theorem 4), the paper states no honesty WLOG for the *fairness*
    /// objective, so the decision procedure conservatively explores all
    /// schedules (delaying some voluntary evictions with
    /// [`bound`](Self::bound) on). Set to `false` for a faster
    /// honest-only search.
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
    /// The per-core pruning bounds `min(b_i, n_i)`, and packed as a row.
    lanes: Vec<u16>,
    row: Vec<u64>,
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
    /// A core faults at most once per request, so capping its bound at
    /// `n_i` prunes nothing the bound would not, and it keeps every lane
    /// of a packed row at most [`MAX_LANE`](crate::pareto::MAX_LANE).
    /// Cores with more requests than that are a [`DpError::Model`].
    fn new(inst: &DpInstance, bounds: &[u64], on: bool) -> Result<Self, DpError> {
        let lanes = (inst.seqs.iter().zip(bounds).enumerate())
            .map(|(i, (seq, &b))| match u16::try_from(seq.len()) {
                Ok(n) if n <= MAX_LANE => Ok(b.min(u64::from(n)) as u16),
                _ => Err(DpError::Model(format!(
                    "core {i} has {} requests; the PIF DP counts at most {MAX_LANE} faults per core",
                    seq.len()
                ))),
            })
            .collect::<Result<Vec<u16>, _>>()?;
        let masks = inst
            .seqs
            .iter()
            .map(|seq| seq.iter().fold(0, |m, &pg| m | (1u64 << pg)));
        let (mut seen, mut shared) = (0u64, 0u64);
        for mask in masks.clone() {
            (seen, shared) = (seen | mask, shared | (seen & mask));
        }
        let mut row = Vec::new();
        pack_row(&lanes, &mut row);
        Ok(PifBound {
            on,
            ranges: inst.seqs.iter().map(|seq| RangeUnion::new(seq)).collect(),
            private: masks.map(|mask| mask & !shared).collect(),
            lanes,
            row,
        })
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

    /// The rows of `edge` (with their tags) that successor configuration
    /// `cfg` admits, given the step's [`forced`](Self::forced) pages, and
    /// how many it drops: row `v` is dropped when `v_i + LB_i > lane_i`
    /// for some core, `LB_i = |forced_i \ cfg|` (all rows pass when
    /// nothing is forced). The dropped set is upward closed, so the
    /// admitted rows keep their order and stay an antichain.
    fn admit<'a, T: Copy>(
        &self,
        edge: &'a PifEdge<T>,
        cfg: u64,
        out: &'a mut Admitted<T>,
    ) -> (&'a [u64], &'a [T], usize) {
        let (forced, rows, tags) = (&edge.forced, &edge.rows[..], &edge.tags[..]);
        out.bound.clear();
        out.bound.resize(row_words(forced.len()), 0);
        let mut tightened = false;
        for (i, (&mask, &lane)) in forced.iter().zip(&self.lanes).enumerate() {
            let lb = (mask & !cfg).count_ones() as u16;
            if lb > lane {
                return (&[], &[], tags.len());
            }
            tightened |= lb > 0;
            out.bound[i / LANES] |= u64::from(lane - lb) << (16 * (i % LANES));
        }
        if !tightened {
            return (rows, tags, 0);
        }
        out.rows.clear();
        out.tags.clear();
        let dropped = filter_rows(rows, tags, &out.bound, &mut out.rows, &mut out.tags);
        (&out.rows, &out.tags, dropped)
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
fn pif_option_bits(options: &PifOptions, checkpoint: Time, bounds: &[u64]) -> u64 {
    let delayed = options.bound && options.full_transitions;
    let mut h: u64 = 2
        | u64::from(options.full_transitions)
        | (u64::from(options.bound) << 2)
        | (u64::from(delayed) << 3);
    h = h.wrapping_mul(0x100_0000_01b3) ^ checkpoint;
    for &b in bounds {
        h = h.wrapping_mul(0x100_0000_01b3) ^ b.min(u64::from(u16::MAX));
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
    let bits = pif_option_bits(options, checkpoint, bounds);
    Ok(instance_fingerprint(&inst, bits))
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
    if checkpoint == 0 {
        // No request has issued yet.
        return Ok((PifOutcome::Decided(true), DpStats::default()));
    }
    let fingerprint = instance_fingerprint(&inst, pif_option_bits(&options, checkpoint, bounds));
    let mut dp = Pif::<()>::new(&inst, checkpoint, bounds, options, false)?;
    check_fingerprint(fingerprint, resume.map(|ck| ck.fingerprint))?;
    dp.start(resume)?;
    let trip = walk(&inst, &mut dp, options.jobs, budget)?;
    dp.stats.expansions = dp.expansions;
    let outcome = match trip {
        Some(reason) => PifOutcome::Truncated(dp.truncate(fingerprint, reason)),
        // An empty layer refutes the bounds. Otherwise the walk reached a
        // finished state, whose rows need no more faults, or served the
        // checkpoint with every bound respected.
        None => PifOutcome::Decided(!dp.arena.is_empty()),
    };
    Ok((outcome, dp.stats))
}

/// A witness row's source: the state's id and the row's index in its set.
type Provenance = (StateId, u32);

/// A Pareto row's tag: `()` for the decision, [`Provenance`] for the witness.
trait Tag: Copy + Default + Send + Sync {
    /// A row advanced from row `j` of state `id`.
    fn source(id: StateId, j: usize) -> Self;
}

impl Tag for () {
    fn source(_: StateId, _: usize) {}
}

impl Tag for Provenance {
    fn source(id: StateId, j: usize) -> Self {
        (id, j as u32)
    }
}

/// Algorithm 2's side of the frontier driver: layer `t` holds the states
/// reachable at time `t`, each with a Pareto set of fault rows (per
/// `crate::pareto`). Two arenas alternate, the open layer and the one
/// being built (covered by `dedup`), and `clear` keeps every allocation.
/// The witness keeps each expanded layer in `layers` for the walk back.
struct Pif<'a, T> {
    inst: &'a DpInstance,
    options: PifOptions,
    bound: PifBound,
    checkpoint: Time,
    /// The time the open layer's step serves.
    t: Time,
    arena: StateArena,
    next_arena: StateArena,
    dedup: Dedup,
    sets: RowSets<T>,
    next_sets: RowSets<T>,
    layers: Option<Vec<(StateArena, RowSets<T>)>>,
    admitted: Admitted<T>,
    /// The canonically smallest finished state of the open layer.
    terminal: Option<StateId>,
    expansions: usize,
    stats: DpStats,
}

/// The edge out of one PIF state: the fault increment, the advanced rows
/// with their tags and the private pages [`PifBound::forced`] charges.
#[derive(Default)]
struct PifEdge<T> {
    inc: Vec<u64>,
    rows: Vec<u64>,
    tags: Vec<T>,
    forced: Vec<u64>,
}

impl<'a, T: Tag> Pif<'a, T> {
    fn new(
        inst: &'a DpInstance,
        checkpoint: Time,
        bounds: &[u64],
        options: PifOptions,
        witness: bool,
    ) -> Result<Self, DpError> {
        Ok(Pif {
            inst,
            options,
            bound: PifBound::new(inst, bounds, options.bound)?,
            checkpoint,
            t: 0,
            arena: inst.arena(options.force_spill),
            next_arena: inst.arena(options.force_spill),
            dedup: Dedup::new(),
            sets: RowSets::new(),
            next_sets: RowSets::new(),
            layers: witness.then(Vec::new),
            admitted: Admitted::default(),
            terminal: None,
            expansions: 0,
            stats: DpStats::default(),
        })
    }

    /// Open the walk at the start state with one all-zero row, or at the
    /// layer of the snapshot `resume`.
    fn start(&mut self, resume: Option<&PifCheckpoint>) -> Result<(), DpError> {
        let Some(ck) = resume else {
            let pp = self.arena.pack(&self.inst.start_positions());
            self.dedup.intern(&mut self.arena, 0, &pp);
            let zero = vec![0; self.bound.row.len()];
            self.sets.push(&zero, &[T::default()]);
            return Ok(());
        };
        let (p, lanes) = (self.inst.num_cores(), &self.bound.lanes);
        let mut row = Vec::with_capacity(self.bound.row.len());
        for (key, vectors) in &ck.layer {
            let pp = self.arena.pack(&key.1);
            let (id, is_new) = self.dedup.intern(&mut self.arena, key.0, &pp);
            if is_new {
                debug_assert_eq!(id as usize, self.sets.len());
                self.sets.push(&[], &[]);
            } else {
                // Duplicate key in a (checksummed) snapshot: keep the
                // last, matching the old map-insert semantics.
                self.sets.replace(id as usize, &[], &[]);
            }
            for v in vectors {
                if v.len() != p || v.iter().zip(lanes).any(|(x, b)| x > b) {
                    return Err(DpError::Model(format!(
                        "malformed checkpoint: fault vector {v:?} exceeds the bounds {lanes:?}"
                    )));
                }
                row.clear();
                pack_row(v, &mut row);
                self.sets.insert(id as usize, &row, T::default());
            }
        }
        (self.expansions, self.t) = (ck.expansions as usize, ck.t_done);
        Ok(())
    }

    /// The snapshot of a run tripped at the open layer. Its keys are
    /// materialized in canonical order, so its bytes are identical to
    /// what the unpacked engine wrote.
    fn truncate(&self, fingerprint: u64, reason: TripReason) -> PifTruncated {
        let mut ids: Vec<StateId> = (0..self.arena.len() as StateId).collect();
        self.arena.sort_ids(&mut ids);
        let (p, w) = (self.inst.num_cores(), self.bound.row.len());
        let layer: Vec<(StateKey, Vec<Box<[u16]>>)> = ids
            .iter()
            .map(|&id| {
                let rows = self.sets.rows(id as usize).chunks_exact(w);
                (self.arena.key(id), rows.map(|r| unpack_row(r, p)).collect())
            })
            .collect();
        let t_done = self.t - 1;
        PifTruncated {
            reason,
            t_done,
            live_states: layer.len(),
            expansions: self.expansions,
            checkpoint: PifCheckpoint {
                fingerprint,
                t_done,
                expansions: self.expansions as u64,
                layer,
            },
        }
    }
}

impl<T: Tag> Frontier for Pif<'_, T> {
    type Edge = PifEdge<T>;

    fn arena(&self) -> &StateArena {
        &self.arena
    }

    fn open(&mut self, ids: &mut Vec<StateId>) -> bool {
        if self.arena.is_empty() {
            return false;
        }
        // Fold the open layer (its arena and the table that built it)
        // into the peak statistics.
        let (len, stats) = (self.arena.len(), &mut self.stats);
        if len > stats.states {
            (stats.states, stats.dedup_load_factor) = (len, self.dedup.load_factor());
        }
        let bytes = self.arena.approx_bytes() + self.dedup.approx_bytes();
        stats.peak_arena_bytes = stats.peak_arena_bytes.max(bytes);
        if self.t >= self.checkpoint {
            return false;
        }
        self.t += 1;
        ids.extend(0..self.arena.len() as StateId);
        self.next_arena.clear();
        self.next_sets.clear();
        self.dedup.clear();
        true
    }

    fn usage(&self) -> (usize, usize) {
        let p = self.inst.num_cores();
        let mem = self.arena.len() * (24 + 8 * p) + self.sets.total_rows() * (2 * p + 32);
        (self.expansions, mem)
    }

    fn enter(&mut self, ids: &[StateId]) -> bool {
        // A position sum of `end_sum` is exactly "all finished": no further
        // faults, so every surviving row already meets the bounds.
        let end_sum = self.inst.end_sum();
        let mut finished = ids.iter().filter(|&&id| self.arena.pos_sum(id) == end_sum);
        self.terminal = finished.next().copied();
        self.terminal.is_some()
    }

    fn edge(&self, step: &Step, edge: &mut PifEdge<T>) -> ControlFlow<usize, u64> {
        let (source, tags) = (self.sets.rows(step.id as usize), &mut edge.tags);
        edge.inc.clear();
        pack_flags(&step.faulted, &mut edge.inc);
        edge.rows.clear();
        tags.clear();
        let kept = |j| tags.push(T::source(step.id, j));
        advance_rows(source, &edge.inc, &self.bound.row, &mut edge.rows, kept);
        if tags.is_empty() {
            return ControlFlow::Break(0);
        }
        let (remaining, forced) = (self.checkpoint - self.t, &mut edge.forced);
        self.bound.forced(self.inst, &step.next, remaining, forced);
        // The bounded decision delays the voluntary evictions of pages the
        // next step does not read (DESIGN §9); the witness keeps them all.
        let full = self.options.full_transitions;
        ControlFlow::Continue(if full && self.options.bound && self.layers.is_none() {
            pointed_pages(self.inst, &step.next)
        } else {
            voluntary_mask(!full)
        })
    }

    fn merge(&mut self, _: StateId, edge: &PifEdge<T>, cfg: u64, pp: &PackedPos) {
        let (rows, tags, dropped) = self.bound.admit(edge, cfg, &mut self.admitted);
        self.stats.bound_pruned += dropped;
        if tags.is_empty() {
            return;
        }
        let (id, is_new) = self.dedup.intern(&mut self.next_arena, cfg, pp);
        if is_new {
            debug_assert_eq!(id as usize, self.next_sets.len());
            self.next_sets.push(&[], &[]);
        }
        for (row, &tag) in rows.chunks_exact(self.bound.row.len()).zip(tags) {
            self.next_sets.insert(id as usize, row, tag);
        }
        self.expansions += tags.len();
    }

    fn merged(&mut self, cut: usize) -> Result<(), DpError> {
        self.stats.bound_pruned += cut;
        // The witness's cap; the decision's is its budget's.
        let (states, cap) = (self.expansions, self.options.max_expansions);
        if self.layers.is_some() && states > cap {
            return Err(DpError::TooLarge {
                states,
                cap,
                incumbent: None,
            });
        }
        Ok(())
    }

    fn close(&mut self) {
        std::mem::swap(&mut self.arena, &mut self.next_arena);
        std::mem::swap(&mut self.sets, &mut self.next_sets);
        if let Some(layers) = &mut self.layers {
            let arena = self.inst.arena(self.options.force_spill);
            let arena = std::mem::replace(&mut self.next_arena, arena);
            let sets = std::mem::replace(&mut self.next_sets, RowSets::new());
            layers.push((arena, sets));
        }
    }
}

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
    let mut chain = Vec::new();
    if checkpoint > 0 {
        let mut dp = Pif::<Provenance>::new(&inst, checkpoint, bounds, options, true)?;
        dp.start(None)?;
        walk(&inst, &mut dp, options.jobs, &Budget::unlimited())?;
        if dp.arena.is_empty() {
            return Ok(None);
        }
        // The witness endpoint: an all-finished state found early, or the
        // canonically smallest surviving state of the checkpoint's layer.
        let (arena, ids) = (&dp.arena, 0..dp.arena.len() as StateId);
        let smallest = || ids.min_by(|&a, &b| arena.cmp_ids(a, b));
        let end = dp.terminal.or_else(smallest).expect("nonempty layer");
        let mut layers = dp.layers.expect("the witness keeps its layers");
        layers.push((dp.arena, dp.sets));
        // Walk the first row's provenance back to the start, materializing
        // canonical keys.
        let mut cursor = (end, 0);
        for (arena, sets) in layers.iter().rev() {
            chain.push(arena.key(cursor.0));
            cursor = sets.tags(cursor.0 as usize)[cursor.1 as usize];
        }
        chain.reverse();
    }
    // Past the checkpoint (at time 0, from the start: any legal schedule
    // works), extend with arbitrary legal (lazy) transitions so the
    // witness replays end-to-end.
    let from = chain.pop().unwrap_or_else(|| (0, inst.start_positions()));
    chain.extend(lazy_completion(&inst, from));
    Ok(Some(schedule_from_chain(&inst, &chain)))
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
        // Enumerate subsets of exactly `size` sequences to protect, in
        // lexicographic order.
        let mut subset: Vec<usize> = (0..size).collect();
        loop {
            let mut relaxed = vec![u64::MAX; p];
            subset.iter().for_each(|&i| relaxed[i] = bounds[i]);
            if pif_decide(workload, cfg, checkpoint, &relaxed, options)? {
                return Ok(size);
            }
            let Some(i) = (0..size).rev().find(|&i| subset[i] != i + p - size) else {
                break;
            };
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
