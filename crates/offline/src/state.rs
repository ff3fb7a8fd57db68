//! Shared state machinery for the offline dynamic programs (Algorithms 1
//! and 2 of the paper).
//!
//! A DP state is a cache *configuration* `C` (a set of pages, represented
//! as a bitmask over the dense page universe) plus a *position vector*
//! `x`: each `x_i ∈ 1..=n_i(τ+1)+1` indexes a virtual per-sequence
//! timeline in which every page occupies `τ+1` slots — the page boundary
//! followed by `τ` fetch-period slots. A hit jumps `τ+1` slots in one
//! timestep; a fault steps through its fetch period one slot per timestep.
//! One DP transition is exactly one parallel timestep.

use mcp_core::{PageId, SimConfig, Time, Workload};
use std::fmt;

/// The sequential-fallback threshold for the DP expansion pools: layers
/// with fewer tasks than this stay on the calling thread (the
/// scoped-thread round trip costs more than the expansion itself on tiny
/// layers).
///
/// The default of 32 was tuned for the boxed state engine; the packed
/// engine's expansions are an order of magnitude cheaper, so mid-size
/// layers may still not amortize the pool. Override per process with the
/// `MCP_MIN_PARALLEL_TASKS` environment variable (read once, cached; an
/// unset or unparsable value keeps the default; `0` forces every batch
/// onto the pool). The threshold never affects results — expansions
/// merge in canonical order either way.
pub fn min_parallel_tasks() -> usize {
    static CACHE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("MCP_MIN_PARALLEL_TASKS")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(32)
    })
}

/// The pool both DPs expand layers on: `jobs == 0` defers to the
/// process-wide setting, and batches smaller than
/// [`min_parallel_tasks`] stay sequential. The choice never affects
/// results — expansions are merged in canonical order either way.
pub(crate) fn pool_for(jobs: usize, tasks: usize) -> mcp_exec::Pool {
    if tasks < min_parallel_tasks() {
        mcp_exec::Pool::new(1)
    } else if jobs == 0 {
        mcp_exec::Pool::global()
    } else {
        mcp_exec::Pool::new(jobs)
    }
}

/// Execution statistics from a DP run (the `--stats` surface of
/// `mcp opt` / `mcp pif`). All counts are worker-count-invariant.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DpStats {
    /// Distinct states interned (FTF) or peak live states in any layer
    /// (PIF).
    pub states: usize,
    /// State expansions performed (FTF: states expanded; PIF: fault
    /// vectors advanced, matching `PifOptions::max_expansions`).
    pub expansions: usize,
    /// Peak approximate state-engine footprint in bytes: packed payload
    /// plus dedup tables (FTF: every table of its bucket ring).
    pub peak_arena_bytes: usize,
    /// Peak dedup-table load, at most 3/4 (tables grow before passing
    /// it). FTF: the highest load any bucket table reached; PIF: the
    /// table of the largest layer.
    pub dedup_load_factor: f64,
}

/// Errors from DP construction or execution.
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum DpError {
    /// More than 64 distinct pages (the configuration bitmask is a `u64`).
    UniverseTooLarge { pages: usize },
    /// The state space exceeded the configured cap. `incumbent` carries
    /// the best fault count known when the cap tripped (an achievable
    /// upper bound), so the work done is not discarded with the error.
    TooLarge {
        states: usize,
        cap: usize,
        incumbent: Option<u64>,
    },
    /// The workload/config combination is malformed.
    Model(String),
}

impl fmt::Display for DpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DpError::UniverseTooLarge { pages } => {
                write!(
                    f,
                    "page universe has {pages} pages; the DP supports at most 64"
                )
            }
            DpError::TooLarge {
                states,
                cap,
                incumbent,
            } => {
                write!(f, "DP state space exceeded {cap} states (reached {states})")?;
                if let Some(ub) = incumbent {
                    write!(f, "; best known faults so far: {ub}")?;
                }
                Ok(())
            }
            DpError::Model(msg) => write!(f, "model error: {msg}"),
        }
    }
}

impl std::error::Error for DpError {}

/// A workload compiled for DP execution: dense page ids, precomputed
/// per-sequence virtual-timeline lengths.
#[derive(Clone, Debug)]
pub struct DpInstance {
    /// Per-core sequences as dense page indices (bit positions).
    pub seqs: Vec<Vec<u16>>,
    /// Dense index → original page.
    pub pages: Vec<PageId>,
    /// Cache size `K`.
    pub k: usize,
    /// Fault delay `τ`.
    pub tau: u64,
}

impl DpInstance {
    /// Compile a workload. Fails if the page universe exceeds 64 pages.
    pub fn build(workload: &Workload, cfg: &SimConfig) -> Result<Self, DpError> {
        cfg.validate(workload)
            .map_err(|e| DpError::Model(e.to_string()))?;
        let pages = workload.universe();
        if pages.len() > 64 {
            return Err(DpError::UniverseTooLarge { pages: pages.len() });
        }
        let dense: mcp_core::FxHashMap<PageId, u16> = pages
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as u16))
            .collect();
        let seqs = workload
            .sequences()
            .iter()
            .map(|seq| seq.iter().map(|p| dense[p]).collect())
            .collect();
        Ok(DpInstance {
            seqs,
            pages: pages.clone(),
            k: cfg.cache_size,
            tau: cfg.tau,
        })
    }

    /// `τ + 1`, the virtual slots per page.
    pub fn period(&self) -> u64 {
        self.tau + 1
    }

    /// Number of sequences `p`.
    pub fn num_cores(&self) -> usize {
        self.seqs.len()
    }

    /// Final (finished) position of sequence `i`: `n_i(τ+1) + 1`.
    pub fn end_pos(&self, i: usize) -> u64 {
        self.seqs[i].len() as u64 * self.period() + 1
    }

    /// Whether position `x` of any sequence is a page boundary.
    pub fn at_boundary(&self, x: u64) -> bool {
        (x - 1).is_multiple_of(self.period())
    }

    /// The 0-based request index position `x` points at (page boundary or
    /// its fetch period).
    pub fn page_index(&self, x: u64) -> usize {
        ((x - 1) / self.period()) as usize
    }

    /// Dense page pointed at by sequence `i` at position `x` (which must
    /// not be the end position).
    pub fn pointed_page(&self, i: usize, x: u64) -> u16 {
        self.seqs[i][self.page_index(x)]
    }

    /// The initial position vector (all sequences at their first page).
    pub fn start_positions(&self) -> Box<[u32]> {
        vec![1u32; self.seqs.len()].into_boxed_slice()
    }

    /// Whether `positions` is fully finished.
    pub fn all_finished(&self, positions: &[u32]) -> bool {
        positions
            .iter()
            .enumerate()
            .all(|(i, &x)| x as u64 == self.end_pos(i))
    }
}

/// The effect of one parallel timestep from `(config, positions)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepEffect {
    /// Union of pages pointed at by unfinished sequences (boundary pages
    /// and in-flight fetch-period pages) — must be contained in every
    /// successor configuration.
    pub rx: u64,
    /// Mask of pages newly faulted this step (boundary pages absent from
    /// the configuration), as a set.
    pub fault_mask: u64,
    /// Per-sequence flag: sequence `i` faulted this step.
    pub seq_faulted: Vec<bool>,
    /// Position vector after the step.
    pub next_positions: Box<[u32]>,
}

impl StepEffect {
    /// Number of faults counted as a set (the `|R(x) \ C|` of Algorithm 1).
    pub fn fault_count(&self) -> u32 {
        self.fault_mask.count_ones()
    }
}

/// Compute the (deterministic) per-sequence advances and fault set for one
/// timestep from `(config, positions)`.
pub fn step_effect(inst: &DpInstance, config: u64, positions: &[u32]) -> StepEffect {
    let mut next = Vec::new();
    let mut seq_faulted = Vec::new();
    let (rx, fault_mask) = step_effect_into(inst, config, positions, &mut next, &mut seq_faulted);
    StepEffect {
        rx,
        fault_mask,
        seq_faulted,
        next_positions: next.into_boxed_slice(),
    }
}

/// Reusable per-thread buffers for the allocation-free DP hot path
/// (decoded positions and step outputs). One lives in a `thread_local`
/// per expansion worker.
#[derive(Default)]
pub(crate) struct StepScratch {
    pub(crate) pos: Vec<u32>,
    pub(crate) next: Vec<u32>,
    pub(crate) faulted: Vec<bool>,
}

/// Run `f` with this thread's [`StepScratch`] (expansion workers reuse
/// the buffers across calls; the pool's threads each own one).
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut StepScratch) -> R) -> R {
    thread_local! {
        static SCRATCH: std::cell::RefCell<StepScratch> =
            std::cell::RefCell::new(StepScratch::default());
    }
    SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

/// Allocation-free form of [`step_effect`] for the DP hot loops: writes
/// the successor positions and per-sequence fault flags into caller
/// buffers (cleared first) and returns `(rx, fault_mask)`.
pub(crate) fn step_effect_into(
    inst: &DpInstance,
    config: u64,
    positions: &[u32],
    next: &mut Vec<u32>,
    seq_faulted: &mut Vec<bool>,
) -> (u64, u64) {
    let period = inst.period();
    let mut rx = 0u64;
    let mut fault_mask = 0u64;
    next.clear();
    next.extend_from_slice(positions);
    seq_faulted.clear();
    seq_faulted.resize(inst.num_cores(), false);
    for i in 0..inst.num_cores() {
        let x = positions[i] as u64;
        if x == inst.end_pos(i) {
            continue; // finished
        }
        let page = inst.pointed_page(i, x);
        let bit = 1u64 << page;
        rx |= bit;
        if inst.at_boundary(x) {
            if config & bit != 0 {
                // Hit: jump to the next page boundary.
                next[i] = (x + period) as u32;
            } else {
                // Fault: enter (or with τ = 0, complete) the fetch period.
                fault_mask |= bit;
                seq_faulted[i] = true;
                next[i] = (x + 1) as u32;
            }
        } else {
            // Mid-fetch: advance one slot.
            next[i] = (x + 1) as u32;
        }
    }
    (rx, fault_mask)
}

/// Enumerate successor configurations `C'` for a step: `rx ⊆ C' ⊆ C ∪ rx`,
/// `|C'| ≤ K`, calling `f(C')` for each.
///
/// * `lazy = true`: evict exactly the overflow (only as many pages as
///   needed) — the honest, no-extra-evictions regime.
/// * `lazy = false`: additionally enumerate every larger eviction set (the
///   paper's full transition relation, which admits dishonest voluntary
///   evictions; used to probe Theorem 4).
pub fn for_each_successor_config(
    inst: &DpInstance,
    config: u64,
    effect: &StepEffect,
    lazy: bool,
    f: impl FnMut(u64),
) {
    for_each_successor_config_rx(inst, config, effect.rx, lazy, f)
}

/// [`for_each_successor_config`] for the DP hot loops: takes the step's
/// `rx` directly and enumerates eviction sets as bitmasks, allocating
/// nothing. Sets are visited by size, and within a size in lexicographic
/// order of their ascending page indices.
pub(crate) fn for_each_successor_config_rx(
    inst: &DpInstance,
    config: u64,
    rx: u64,
    lazy: bool,
    mut f: impl FnMut(u64),
) {
    let base = config | rx;
    let free = base & !rx;
    let min_evict = (base.count_ones() as usize).saturating_sub(inst.k) as u32;
    debug_assert!(
        min_evict <= free.count_ones(),
        "rx alone must fit in the cache"
    );
    let max_evict = if lazy { min_evict } else { free.count_ones() };

    /// Call `f(base & !(evicted | S))` for every `remaining`-subset `S`
    /// of `avail`, lowest page first.
    fn combos(avail: u64, remaining: u32, evicted: u64, base: u64, f: &mut impl FnMut(u64)) {
        if remaining == 0 {
            f(base & !evicted);
            return;
        }
        let mut rest = avail;
        while rest.count_ones() >= remaining {
            let low = rest & rest.wrapping_neg();
            rest ^= low;
            combos(rest, remaining - 1, evicted | low, base, f);
        }
    }
    for e in min_evict..=max_evict {
        combos(free, e, 0, base, &mut f);
    }
}

/// Serve `state` to completion taking the *first* lazy successor at
/// every step, returning the number of additional faults incurred. This
/// is a cheap achievable completion — governed DP runs use it to turn a
/// truncated frontier into a genuine incumbent upper bound for the
/// anytime bracket (the completion is honest/lazy, so it is a feasible
/// schedule in the paper's model).
pub fn greedy_completion_faults(inst: &DpInstance, state: &StateKey) -> u64 {
    let mut config = state.0;
    let mut positions = state.1.clone();
    let mut faults = 0u64;
    while !inst.all_finished(&positions) {
        let effect = step_effect(inst, config, &positions);
        faults += u64::from(effect.fault_count());
        let mut chosen = None;
        for_each_successor_config(inst, config, &effect, true, |cfg| {
            if chosen.is_none() {
                chosen = Some(cfg);
            }
        });
        config = chosen.expect("a lazy successor always exists");
        positions = effect.next_positions;
    }
    faults
}

/// A fully identified DP state.
pub type StateKey = (u64, Box<[u32]>);

/// Timestep type re-exported for DP callers.
pub type DpTime = Time;

#[cfg(test)]
mod tests {
    use super::*;
    use mcp_core::SimConfig;

    fn wl(seqs: &[&[u32]]) -> Workload {
        Workload::from_u32(seqs.iter().map(|s| s.to_vec())).unwrap()
    }

    #[test]
    fn instance_compiles_dense_pages() {
        let w = wl(&[&[5, 7], &[9]]);
        let inst = DpInstance::build(&w, &SimConfig::new(2, 1)).unwrap();
        assert_eq!(inst.pages, vec![PageId(5), PageId(7), PageId(9)]);
        assert_eq!(inst.seqs, vec![vec![0, 1], vec![2]]);
        assert_eq!(inst.period(), 2);
        assert_eq!(inst.end_pos(0), 5); // 2 pages * 2 + 1
        assert_eq!(inst.end_pos(1), 3);
    }

    #[test]
    fn boundaries_and_page_indices() {
        let w = wl(&[&[1, 2, 3]]);
        let inst = DpInstance::build(&w, &SimConfig::new(1, 2)).unwrap();
        // period 3: boundaries at x = 1, 4, 7; end at 10.
        assert!(inst.at_boundary(1));
        assert!(!inst.at_boundary(2));
        assert!(!inst.at_boundary(3));
        assert!(inst.at_boundary(4));
        assert_eq!(inst.page_index(1), 0);
        assert_eq!(inst.page_index(3), 0);
        assert_eq!(inst.page_index(4), 1);
    }

    #[test]
    fn step_hit_jumps_fault_crawls() {
        let w = wl(&[&[1, 2]]);
        let inst = DpInstance::build(&w, &SimConfig::new(1, 2)).unwrap();
        let x0 = inst.start_positions();
        // Empty config: fault on page 1 (bit 0).
        let e = step_effect(&inst, 0, &x0);
        assert_eq!(e.fault_mask, 0b01);
        assert_eq!(e.next_positions.as_ref(), &[2]);
        assert!(e.seq_faulted[0]);
        // Config contains page 1: hit, jump to boundary 4.
        let e = step_effect(&inst, 0b01, &x0);
        assert_eq!(e.fault_mask, 0);
        assert_eq!(e.next_positions.as_ref(), &[4]);
        // Mid-fetch position advances by one and registers no fault.
        let e = step_effect(&inst, 0b01, &[2]);
        assert_eq!(e.fault_mask, 0);
        assert_eq!(e.rx, 0b01);
        assert_eq!(e.next_positions.as_ref(), &[3]);
    }

    #[test]
    fn simultaneous_same_page_faults_count_once() {
        let w = wl(&[&[1], &[1]]);
        let inst = DpInstance::build(&w, &SimConfig::new(2, 0)).unwrap();
        let e = step_effect(&inst, 0, &inst.start_positions());
        assert_eq!(e.fault_count(), 1);
        assert!(e.seq_faulted[0] && e.seq_faulted[1]);
    }

    #[test]
    fn successor_configs_lazy_exact_overflow() {
        // K=2, config {A,B} full, rx={C} new fault: must evict exactly one
        // of A, B -> two successors.
        let w = wl(&[&[1, 2, 3]]);
        let inst = DpInstance::build(&w, &SimConfig::new(2, 0)).unwrap();
        let effect = StepEffect {
            rx: 0b100,
            fault_mask: 0b100,
            seq_faulted: vec![true],
            next_positions: vec![4].into_boxed_slice(),
        };
        let mut succ = Vec::new();
        for_each_successor_config(&inst, 0b011, &effect, true, |c| succ.push(c));
        succ.sort_unstable();
        assert_eq!(succ, vec![0b101, 0b110]);
    }

    #[test]
    fn successor_configs_all_subsets_include_voluntary() {
        // K=3, config {A,B}, rx={C}: lazy keeps everything (1 successor);
        // full mode may also drop A, B, or both (4 successors).
        let w = wl(&[&[1, 2, 3]]);
        let inst = DpInstance::build(&w, &SimConfig::new(3, 0)).unwrap();
        let effect = StepEffect {
            rx: 0b100,
            fault_mask: 0b100,
            seq_faulted: vec![true],
            next_positions: vec![4].into_boxed_slice(),
        };
        let mut lazy = Vec::new();
        for_each_successor_config(&inst, 0b011, &effect, true, |c| lazy.push(c));
        assert_eq!(lazy, vec![0b111]);
        let mut all = Vec::new();
        for_each_successor_config(&inst, 0b011, &effect, false, |c| all.push(c));
        all.sort_unstable();
        assert_eq!(all, vec![0b100, 0b101, 0b110, 0b111]);
    }

    #[test]
    fn greedy_completion_counts_faults_from_start() {
        // Everything fits (K = 4): greedy completion from the start state
        // pays exactly the cold misses.
        let w = wl(&[&[1, 2, 1, 2], &[7, 8, 7, 8]]);
        let inst = DpInstance::build(&w, &SimConfig::new(4, 1)).unwrap();
        let start: StateKey = (0, inst.start_positions());
        assert_eq!(greedy_completion_faults(&inst, &start), 4);
        // A terminal state completes with zero additional faults.
        let done: StateKey = (
            0,
            (0..inst.num_cores())
                .map(|i| inst.end_pos(i) as u32)
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        );
        assert_eq!(greedy_completion_faults(&inst, &done), 0);
    }

    #[test]
    fn universe_cap_enforced() {
        let big: Vec<u32> = (0..65).collect();
        let w = wl(&[&big]);
        assert!(matches!(
            DpInstance::build(&w, &SimConfig::new(4, 0)),
            Err(DpError::UniverseTooLarge { pages: 65 })
        ));
    }
}
