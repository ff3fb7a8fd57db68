//! Branch-and-bound search over eviction schedules, run on the production
//! engine.
//!
//! The search never re-implements the step rule: every schedule it
//! scores is one run of [`mcp_core::Simulator`] under a scripted strategy
//! that replays a prefix of forced-eviction choices and takes the first
//! candidate past it. The driver walks the choices depth-first, one
//! engine run per leaf, so every optimum here runs the same step rule
//! that `engine_equivalence` pins against the naive reference.
//!
//! Two candidate rules:
//!
//! * [`brute_force_min_faults`] — honest exhaustive optimum: on each fault
//!   with a full cache, branch over *every* evictable resident page. An
//!   independent check of Algorithm 1.
//! * [`fitf_restricted_min_faults`] — Theorem 5's restricted policy
//!   class: on each fault branch only over *sequences*, evicting the
//!   furthest-in-the-future evictable page the chosen sequence brought
//!   in. Theorem 5 asserts this class contains an optimal algorithm for
//!   disjoint workloads; tests assert equality with the DP optimum.

use crate::state::{DpError, DpInstance};
use mcp_core::{
    Budget, Cache, CacheStrategy, PageId, SimConfig, Simulator, Time, TripReason, Workload,
};
use std::cell::Cell;
use std::cmp::Reverse;

/// Outcome of a budget-governed exhaustive search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SearchOutcome {
    /// The search space was exhausted: the value is exact.
    Complete(u64),
    /// The budget tripped mid-search. `incumbent` is the best objective
    /// score found so far (an achievable upper bound), if any schedule
    /// completed before the trip. Searches carry no checkpoint — their
    /// state is a decision prefix, not a layer.
    Truncated {
        /// Why the budget tripped.
        reason: TripReason,
        /// Best achievable score found before the trip.
        incumbent: Option<u64>,
        /// Search nodes expanded before the trip: engine runs for the
        /// searches in this module, DFS nodes for [`crate::sched_search`].
        nodes: usize,
    },
}

/// Internal unwind marker: the budget tripped somewhere down the DFS.
pub(crate) struct BudgetTripped(pub(crate) TripReason);

/// How many node expansions between full budget checks (a full check
/// costs an `Instant::now()`); the state cap is still enforced on every
/// node.
pub(crate) const CHECK_MASK: usize = 0xFFF;

/// Shared per-node governance for the searches: exact state-cap
/// enforcement, periodic deadline/cancellation checks.
pub(crate) fn check_node(budget: &Budget, nodes: usize) -> Result<(), BudgetTripped> {
    if let Some(cap) = budget.max_states() {
        if nodes > cap {
            return Err(BudgetTripped(TripReason::StateCap { states: nodes, cap }));
        }
    }
    // Fire on the first node (so tiny searches still observe deadlines
    // and cancellation), then every CHECK_MASK + 1 nodes.
    if nodes & CHECK_MASK == 1 {
        budget.check(nodes, 0).map_err(BudgetTripped)?;
    }
    Ok(())
}

/// What the exhaustive search minimizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum Objective {
    /// Total faults — the paper's FINAL-TOTAL-FAULTS.
    Faults,
    /// Completion time of the last request — Hassidim's makespan.
    Makespan,
    /// Lexicographic: minimum faults, then minimum makespan among
    /// fault-optimal schedules. `weight` must exceed any possible
    /// makespan.
    FaultsThenMakespan { weight: u64 },
    /// Lexicographic: minimum makespan, then minimum faults among
    /// makespan-optimal schedules. `weight` must exceed any possible
    /// fault count.
    MakespanThenFaults { weight: u64 },
}

impl Objective {
    /// Score of a (partial) schedule with `faults` faults whose served
    /// requests complete by `completion`. Monotone along a schedule, so
    /// bound-pruning on it is sound.
    pub(crate) fn score(self, faults: u64, completion: Time) -> u64 {
        match self {
            Objective::Faults => faults,
            Objective::Makespan => completion,
            Objective::FaultsThenMakespan { weight } => faults * weight + completion,
            Objective::MakespanThenFaults { weight } => completion * weight + faults,
        }
    }
}

/// A forced eviction with more than one candidate victim.
#[derive(Clone, Copy, Debug)]
struct Branch {
    /// Index of the candidate the script takes.
    choice: usize,
    /// Number of candidates.
    options: usize,
    /// The run's score once this fault is charged; every sibling shares it.
    score: u64,
}

/// The strategy one engine run replays: lazy and honest (an empty cell
/// is always used first), following the decision stack at forced
/// evictions and extending it with candidate 0 past its end.
struct Scripted<'a> {
    workload: &'a Workload,
    tau: Time,
    objective: Objective,
    /// Theorem 5's class instead of every evictable page.
    restricted: bool,
    /// Forced choices: the first `depth` were taken this run, and entries
    /// past `depth` are still to be replayed.
    branches: Vec<Branch>,
    depth: usize,
    /// Requests served so far, per core (origin of next-use distances).
    pos: Vec<usize>,
    faults: u64,
    /// A hit at `t` completes at `t`, a fault at `t + τ` — the engine's
    /// own makespan rule.
    completion: Time,
    /// The run's score, read by the driver between steps.
    score: &'a Cell<u64>,
    candidates: Vec<usize>,
}

impl<'a> Scripted<'a> {
    fn new(
        workload: &'a Workload,
        cfg: SimConfig,
        objective: Objective,
        restricted: bool,
        score: &'a Cell<u64>,
    ) -> Self {
        Scripted {
            workload,
            tau: cfg.tau,
            objective,
            restricted,
            branches: Vec::new(),
            depth: 0,
            pos: vec![0; workload.num_cores()],
            faults: 0,
            completion: 0,
            score,
            candidates: Vec::new(),
        }
    }

    fn restart(&mut self) {
        self.depth = 0;
        self.pos.fill(0);
        self.faults = 0;
        self.completion = 0;
        self.score.set(0);
    }

    /// Charge one served request of `core`, completing at `done`.
    fn serve(&mut self, core: usize, done: Time, fault: bool) {
        self.pos[core] += 1;
        self.faults += u64::from(fault);
        self.completion = self.completion.max(done);
        self.score
            .set(self.objective.score(self.faults, self.completion));
    }

    /// Fill `candidates` with the victim cells this rule may choose.
    fn collect_candidates(&mut self, cache: &Cache) {
        self.candidates.clear();
        if !self.restricted {
            let cells = cache.evictable_cells().map(|(cell, _, _)| cell);
            self.candidates.extend(cells);
            return;
        }
        // Per sequence, the evictable page it brought in whose next use
        // is furthest away (first in cell order among never-used pages).
        for core in 0..self.workload.num_cores() {
            let rest = &self.workload.sequence(core)[self.pos[core]..];
            let next_use = |page: PageId| rest.iter().position(|&q| q == page);
            let furthest = cache
                .evictable_cells_of(core)
                .min_by_key(|&(_, page)| Reverse(next_use(page).unwrap_or(usize::MAX)));
            self.candidates.extend(furthest.map(|(cell, _)| cell));
        }
    }
}

impl CacheStrategy for Scripted<'_> {
    fn name(&self) -> String {
        "scripted".into()
    }

    fn on_hit(&mut self, core: usize, _page: PageId, time: Time, _cache: &Cache) {
        self.serve(core, time, false);
    }

    fn on_shared_fetch_miss(&mut self, core: usize, _page: PageId, time: Time, _cache: &Cache) {
        self.serve(core, time + self.tau, true);
    }

    fn choose_cell(&mut self, core: usize, _page: PageId, time: Time, cache: &Cache) -> usize {
        self.serve(core, time + self.tau, true);
        if let Some(cell) = cache.empty_cell() {
            return cell;
        }
        self.collect_candidates(cache);
        let options = self.candidates.len();
        assert!(options > 0, "K >= p guarantees a victim");
        if options == 1 {
            return self.candidates[0];
        }
        if self.depth == self.branches.len() {
            self.branches.push(Branch {
                choice: 0,
                options,
                score: self.score.get(),
            });
        }
        let branch = self.branches[self.depth];
        debug_assert_eq!(branch.options, options, "replay diverged from its script");
        self.depth += 1;
        self.candidates[branch.choice]
    }
}

/// Run the engine once under `strategy`'s current script. Returns `true`
/// iff the schedule completed with a score below `best`; a run stops as
/// soon as its score reaches `best`.
fn replay(
    workload: &Workload,
    cfg: SimConfig,
    strategy: &mut Scripted<'_>,
    best: u64,
) -> Result<bool, DpError> {
    strategy.restart();
    let score = strategy.score;
    let model = |e: mcp_core::SimError| DpError::Model(e.to_string());
    let mut sim = Simulator::new(workload, cfg, strategy).map_err(model)?;
    while sim.step().map_err(model)?.is_some() {
        if score.get() >= best {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Governed core: run the search under `budget`, returning either the
/// exact optimum or a truncated outcome with the incumbent found so far.
/// The budget's state cap counts engine runs.
fn run_governed(
    workload: &Workload,
    cfg: SimConfig,
    restricted: bool,
    objective: Objective,
    budget: &Budget,
) -> Result<SearchOutcome, DpError> {
    // Validates the model and the instance limits shared with the DPs.
    DpInstance::build(workload, &cfg)?;
    if workload.is_empty() {
        return Ok(SearchOutcome::Complete(0));
    }
    let score = Cell::new(0);
    let mut strategy = Scripted::new(workload, cfg, objective, restricted, &score);
    let mut best = u64::MAX;
    let mut runs = 0;
    loop {
        runs += 1;
        if let Err(BudgetTripped(reason)) = check_node(budget, runs) {
            return Ok(SearchOutcome::Truncated {
                reason,
                incumbent: (best < u64::MAX).then_some(best),
                nodes: runs,
            });
        }
        if replay(workload, cfg, &mut strategy, best)? {
            best = score.get();
        }
        // Backtrack to the deepest decision with an untried candidate
        // whose shared score still beats the incumbent.
        loop {
            match strategy.branches.last_mut() {
                None => return Ok(SearchOutcome::Complete(best)),
                Some(b) if b.choice + 1 < b.options && b.score < best => {
                    b.choice += 1;
                    break;
                }
                Some(_) => {
                    strategy.branches.pop();
                }
            }
        }
    }
}

fn run(
    workload: &Workload,
    cfg: SimConfig,
    restricted: bool,
    objective: Objective,
    max_nodes: usize,
) -> Result<u64, DpError> {
    let budget = Budget::unlimited().with_max_states(max_nodes);
    match run_governed(workload, cfg, restricted, objective, &budget)? {
        SearchOutcome::Complete(v) => Ok(v),
        SearchOutcome::Truncated {
            incumbent, nodes, ..
        } => Err(DpError::TooLarge {
            states: nodes,
            cap: max_nodes,
            incumbent,
        }),
    }
}

/// Honest exhaustive minimum total faults: branch over every resident
/// victim on every fault. Exponential; tiny instances only. `max_nodes`
/// caps the number of engine runs (one per explored schedule).
pub fn brute_force_min_faults(
    workload: &Workload,
    cfg: SimConfig,
    max_nodes: usize,
) -> Result<u64, DpError> {
    run(workload, cfg, false, Objective::Faults, max_nodes)
}

/// Budget-governed [`brute_force_min_faults`]: instead of erroring when a
/// limit trips, returns [`SearchOutcome::Truncated`] with the best fault
/// count found so far (a valid upper bound on the optimum). The budget's
/// state cap counts engine runs.
pub fn brute_force_min_faults_governed(
    workload: &Workload,
    cfg: SimConfig,
    budget: &Budget,
) -> Result<SearchOutcome, DpError> {
    run_governed(workload, cfg, false, Objective::Faults, budget)
}

/// Honest exhaustive minimum *makespan* (Hassidim's objective, but within
/// this paper's no-scheduling model): the earliest possible completion
/// time of the last request. Exponential; tiny instances only.
/// `max_nodes` caps the number of engine runs.
pub fn brute_force_min_makespan(
    workload: &Workload,
    cfg: SimConfig,
    max_nodes: usize,
) -> Result<u64, DpError> {
    run(workload, cfg, false, Objective::Makespan, max_nodes)
}

fn lex_weight(workload: &Workload, cfg: SimConfig) -> u64 {
    workload.total_len() as u64 * (cfg.tau + 1) + 2
}

/// Honest exhaustive lexicographic optimum `(faults, makespan)`: the best
/// makespan achievable by any *fault-optimal* schedule. `max_nodes` caps
/// the number of engine runs.
pub fn brute_force_faults_then_makespan(
    workload: &Workload,
    cfg: SimConfig,
    max_nodes: usize,
) -> Result<(u64, u64), DpError> {
    let weight = lex_weight(workload, cfg);
    let score = run(
        workload,
        cfg,
        false,
        Objective::FaultsThenMakespan { weight },
        max_nodes,
    )?;
    Ok((score / weight, score % weight))
}

/// Honest exhaustive lexicographic optimum `(makespan, faults)`: the best
/// fault count achievable by any *makespan-optimal* schedule. `max_nodes`
/// caps the number of engine runs.
pub fn brute_force_makespan_then_faults(
    workload: &Workload,
    cfg: SimConfig,
    max_nodes: usize,
) -> Result<(u64, u64), DpError> {
    let weight = lex_weight(workload, cfg);
    let score = run(
        workload,
        cfg,
        false,
        Objective::MakespanThenFaults { weight },
        max_nodes,
    )?;
    Ok((score / weight, score % weight))
}

/// Minimum total faults achievable by Theorem 5's restricted class: on
/// each fault choose a sequence and evict its furthest-in-the-future
/// resident page. Exponential in the number of faults; tiny instances.
/// `max_nodes` caps the number of engine runs.
pub fn fitf_restricted_min_faults(
    workload: &Workload,
    cfg: SimConfig,
    max_nodes: usize,
) -> Result<u64, DpError> {
    run(workload, cfg, true, Objective::Faults, max_nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::belady_seq::belady_faults;
    use crate::ftf_dp::ftf_min_faults;
    use mcp_core::PageId;

    const NODES: usize = 50_000_000;

    fn wl(seqs: &[&[u32]]) -> Workload {
        Workload::from_u32(seqs.iter().map(|s| s.to_vec())).unwrap()
    }

    #[test]
    fn brute_force_matches_belady_single_core() {
        let cases: Vec<Vec<u32>> = vec![
            vec![1, 2, 3, 1, 2, 3],
            vec![1, 2, 1, 3, 1, 2],
            vec![3, 2, 1, 1, 2, 3],
        ];
        for vs in cases {
            let w = wl(&[&vs]);
            let seq: Vec<PageId> = vs.iter().copied().map(PageId).collect();
            for k in 1..=3usize {
                for tau in [0u64, 2] {
                    let bf = brute_force_min_faults(&w, SimConfig::new(k, tau), NODES).unwrap();
                    assert_eq!(bf, belady_faults(&seq, k), "{vs:?} k={k} tau={tau}");
                }
            }
        }
    }

    #[test]
    fn brute_force_matches_dp_two_cores() {
        let cases: Vec<Vec<Vec<u32>>> = vec![
            vec![vec![1, 2, 1, 2], vec![7, 8, 7, 8]],
            vec![vec![1, 2, 3, 1], vec![7, 7, 7, 7]],
            vec![vec![1, 1, 2, 2], vec![7, 8, 8, 7]],
            vec![vec![1, 2, 3], vec![7, 8, 9]],
        ];
        for seqs in cases {
            let w = Workload::from_u32(seqs.clone()).unwrap();
            for k in [2usize, 3] {
                for tau in [0u64, 1, 2] {
                    let cfg = SimConfig::new(k, tau);
                    let bf = brute_force_min_faults(&w, cfg, NODES).unwrap();
                    let dp = ftf_min_faults(&w, cfg).unwrap();
                    assert_eq!(bf, dp, "{seqs:?} k={k} tau={tau}");
                }
            }
        }
    }

    #[test]
    fn theorem5_restricted_class_is_optimal_on_disjoint() {
        let cases: Vec<Vec<Vec<u32>>> = vec![
            vec![vec![1, 2, 1, 2], vec![7, 8, 7, 8]],
            vec![vec![1, 2, 3, 1, 2], vec![7, 7, 7, 7, 7]],
            vec![vec![1, 2, 1], vec![7, 8, 9]],
        ];
        for seqs in cases {
            let w = Workload::from_u32(seqs.clone()).unwrap();
            for k in [2usize, 3] {
                for tau in [0u64, 1] {
                    let cfg = SimConfig::new(k, tau);
                    let restricted = fitf_restricted_min_faults(&w, cfg, NODES).unwrap();
                    let dp = ftf_min_faults(&w, cfg).unwrap();
                    assert_eq!(restricted, dp, "{seqs:?} k={k} tau={tau}");
                }
            }
        }
    }

    #[test]
    fn makespan_objective_lower_bounds_and_diverges() {
        // Completion can never beat the all-hit bound max_j n_j, and with
        // an ample cache it equals (cold miss + hits) timing.
        let w = wl(&[&[1, 1, 1, 1]]);
        let ms = brute_force_min_makespan(&w, SimConfig::new(1, 3), NODES).unwrap();
        // Fault at t=1 completes at 4; hits at 5, 6, 7.
        assert_eq!(ms, 7);
        // Makespan optimum <= makespan of any fault-optimal schedule, and
        // fault optimum <= faults of any makespan-optimal schedule: the
        // objectives genuinely order schedules differently, but both are
        // bounded by the model.
        let w = wl(&[&[1, 2, 1, 2], &[7, 8, 7, 8]]);
        let cfg = SimConfig::new(3, 2);
        let ms = brute_force_min_makespan(&w, cfg, NODES).unwrap();
        assert!(ms >= 4, "at least one step per request of the longest core");
        assert!(ms <= 4 * 3 + 3, "bounded by the all-fault horizon");
    }

    #[test]
    fn makespan_matches_engine_for_forced_schedules() {
        use mcp_policies::{Replay, ReplayDecision};
        use std::collections::HashMap;
        // One core, K = 1: every request faults; the only schedule is
        // forced, so min makespan equals the engine's makespan.
        let w = wl(&[&[1, 2, 3]]);
        let cfg = SimConfig::new(1, 2);
        let ms = brute_force_min_makespan(&w, cfg, NODES).unwrap();
        let mut d = HashMap::new();
        d.insert((0usize, 0usize), ReplayDecision::UseEmpty);
        d.insert((0, 1), ReplayDecision::Evict(PageId(1)));
        d.insert((0, 2), ReplayDecision::Evict(PageId(2)));
        let r = mcp_core::simulate(&w, cfg, Replay::new(d)).unwrap();
        assert_eq!(ms, r.makespan);
    }

    #[test]
    fn lexicographic_objectives_decompose_consistently() {
        let w = wl(&[&[1, 2, 1, 2], &[7, 8, 7, 8]]);
        for (k, tau) in [(2usize, 1u64), (3, 1), (3, 2)] {
            let cfg = SimConfig::new(k, tau);
            let min_f = brute_force_min_faults(&w, cfg, NODES).unwrap();
            let min_m = brute_force_min_makespan(&w, cfg, NODES).unwrap();
            let (f1, m_of_f) = brute_force_faults_then_makespan(&w, cfg, NODES).unwrap();
            let (m1, f_of_m) = brute_force_makespan_then_faults(&w, cfg, NODES).unwrap();
            // Primary components equal the single-objective optima.
            assert_eq!(f1, min_f, "k={k} tau={tau}");
            assert_eq!(m1, min_m, "k={k} tau={tau}");
            // Secondary components are feasible values, so bounded below
            // by their own optima.
            assert!(m_of_f >= min_m);
            assert!(f_of_m >= min_f);
            // And a fault-optimal schedule's makespan is a real makespan:
            // at most the all-fault horizon.
            assert!(m_of_f <= w.total_len() as u64 * (tau + 1));
        }
    }

    #[test]
    fn node_budget_is_enforced() {
        let w = wl(&[&[1, 2, 3, 4, 1, 2, 3, 4], &[5, 6, 7, 8, 5, 6, 7, 8]]);
        let err = brute_force_min_faults(&w, SimConfig::new(3, 1), 10).unwrap_err();
        assert!(matches!(err, DpError::TooLarge { .. }));
    }

    #[test]
    fn governed_truncation_incumbent_upper_bounds_optimum() {
        use mcp_core::{Budget, TripReason};
        let w = wl(&[&[1, 2, 3, 4, 1, 2, 3, 4], &[5, 6, 7, 8, 5, 6, 7, 8]]);
        let cfg = SimConfig::new(3, 1);
        // DFS dives to a complete schedule quickly, so even a modest node
        // cap leaves an incumbent behind.
        let budget = Budget::unlimited().with_max_states(5_000);
        let out = brute_force_min_faults_governed(&w, cfg, &budget).unwrap();
        let SearchOutcome::Truncated {
            reason,
            incumbent,
            nodes,
        } = out
        else {
            panic!("node cap must truncate")
        };
        assert!(matches!(reason, TripReason::StateCap { .. }));
        assert!(nodes > 5_000);
        let opt = brute_force_min_faults(&w, cfg, NODES).unwrap();
        let ub = incumbent.expect("a full schedule was reached before the cap");
        assert!(opt <= ub, "incumbent {ub} below optimum {opt}");
        // Unlimited governed search completes with the exact optimum.
        let full = brute_force_min_faults_governed(&w, cfg, &Budget::unlimited()).unwrap();
        assert_eq!(full, SearchOutcome::Complete(opt));
    }

    #[test]
    fn empty_workload_is_zero() {
        let w = wl(&[&[], &[]]);
        assert_eq!(
            brute_force_min_faults(&w, SimConfig::new(2, 1), NODES).unwrap(),
            0
        );
    }
}
