//! Branch-and-bound search over schedules, run on the production engine.
//!
//! The search never re-implements the step rule: every schedule it
//! scores is one run of [`mcp_core::Simulator`] under a scripted strategy
//! that replays a prefix of decisions and takes the first option past it.
//! The driver walks the decisions depth-first, one engine run per leaf,
//! so every optimum here runs the same step rule that
//! `engine_equivalence` pins against the naive reference.
//!
//! Three decision rules:
//!
//! * [`brute_force_min_faults`] — honest exhaustive optimum: on each fault
//!   with a full cache, branch over *every* evictable resident page. An
//!   independent check of Algorithm 1.
//! * [`fitf_restricted_min_faults`] — Theorem 5's restricted policy
//!   class: on each fault branch only over *sequences*, evicting the
//!   furthest-in-the-future evictable page the chosen sequence brought
//!   in. Theorem 5 asserts this class contains an optimal algorithm for
//!   disjoint workloads; tests assert equality with the DP optimum.
//! * [`sched_min`] — Hassidim's *scheduling-capable* model, for contrast:
//!   besides every victim, branch on every due core over serving it or
//!   deferring it one timestep ([`CacheStrategy::defer`]). The paper's
//!   central modeling decision is that the paging algorithm has no such
//!   power; comparing the two optima measures what it is worth
//!   (experiment X04).

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
        /// Engine runs (one per explored schedule) before the trip.
        nodes: usize,
    },
}

/// How many engine runs between full budget checks (a full check costs
/// an `Instant::now()`); the state cap is still enforced on every run.
const CHECK_MASK: usize = 0xFFF;

/// Per-run governance: exact state-cap enforcement, periodic
/// deadline/cancellation checks.
fn check_node(budget: &Budget, nodes: usize) -> Result<(), TripReason> {
    if let Some(cap) = budget.max_states() {
        if nodes > cap {
            return Err(TripReason::StateCap { states: nodes, cap });
        }
    }
    // Fire on the first run (so tiny searches still observe deadlines
    // and cancellation), then every CHECK_MASK + 1 runs.
    if nodes & CHECK_MASK == 1 {
        budget.check(nodes, 0)?;
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
    fn score(self, faults: u64, completion: Time) -> u64 {
        match self {
            Objective::Faults => faults,
            Objective::Makespan => completion,
            Objective::FaultsThenMakespan { weight } => faults * weight + completion,
            Objective::MakespanThenFaults { weight } => completion * weight + faults,
        }
    }
}

/// A decision with more than one option: a forced eviction with several
/// candidate victims, or (stall model) a due core that may be deferred.
#[derive(Clone, Copy, Debug)]
struct Branch {
    /// Index of the option the script takes.
    choice: usize,
    /// Number of options.
    options: usize,
    /// The run's score at the decision; every sibling shares it.
    score: u64,
}

/// Option 0 of a stall decision defers the core, so the first schedule
/// tried time-slices the cache: each core runs while the others wait.
const DEFER: usize = 0;

/// The stall model's per-run state.
struct Stall {
    /// No step may be served after this time.
    horizon: Time,
    /// The step at which each core was last deferred (0: never).
    deferred_at: Vec<Time>,
}

/// The strategy one engine run replays: lazy and honest (an empty cell
/// is always used first), following the decision stack and extending it
/// with option 0 past its end.
struct Scripted<'a> {
    workload: &'a Workload,
    tau: Time,
    objective: Objective,
    /// Theorem 5's class instead of every evictable page.
    restricted: bool,
    /// The stall model: due cores may be deferred.
    stall: Option<Stall>,
    /// Decisions: the first `depth` were taken this run, and entries past
    /// `depth` are still to be replayed.
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
        rule: Rule,
        score: &'a Cell<u64>,
    ) -> Self {
        let p = workload.num_cores();
        Scripted {
            workload,
            tau: cfg.tau,
            objective,
            restricted: matches!(rule, Rule::Restricted),
            stall: match rule {
                Rule::Stall { horizon } => Some(Stall {
                    horizon,
                    deferred_at: vec![0; p],
                }),
                _ => None,
            },
            branches: Vec::new(),
            depth: 0,
            pos: vec![0; p],
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
        if let Some(stall) = &mut self.stall {
            stall.deferred_at.fill(0);
        }
    }

    /// Charge one served request of `core`, completing at `done`.
    fn serve(&mut self, core: usize, done: Time, fault: bool) {
        self.pos[core] += 1;
        self.faults += u64::from(fault);
        self.completion = self.completion.max(done);
        self.score
            .set(self.objective.score(self.faults, self.completion));
    }

    /// The option taken at the next decision among `options`: the
    /// script's choice, or option 0, recorded, past the script's end.
    /// Past the stall horizon the run is discarded, so nothing branches.
    fn decide(&mut self, options: usize, time: Time) -> usize {
        if options == 1 || self.stall.as_ref().is_some_and(|s| time > s.horizon) {
            return 0;
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
        branch.choice
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

    fn on_hit(&mut self, core: usize, _page: PageId, time: Time, _cell: usize, _cache: &Cache) {
        self.serve(core, time, false);
    }

    fn on_shared_fetch_miss(
        &mut self,
        core: usize,
        _page: PageId,
        time: Time,
        _cell: usize,
        _cache: &Cache,
    ) {
        self.serve(core, time + self.tau, true);
    }

    fn choose_cell(&mut self, core: usize, _page: PageId, time: Time, cache: &Cache) -> usize {
        self.serve(core, time + self.tau, true);
        if let Some(cell) = cache.empty_cell() {
            return cell;
        }
        self.collect_candidates(cache);
        assert!(!self.candidates.is_empty(), "K >= p guarantees a victim");
        let choice = self.decide(self.candidates.len(), time);
        self.candidates[choice]
    }

    fn defers(&self) -> bool {
        self.stall.is_some()
    }

    fn defer(&mut self, core: usize, _page: PageId, time: Time, cache: &Cache) -> bool {
        let stall = self.stall.as_ref().expect("only the stall model defers");
        // Never defer every unfinished core at once while no fetch is in
        // flight: the step would change nothing but the clock, so any
        // schedule through it is matched one step earlier. An in-flight
        // fetch (a finished core's last, since every unfinished core is
        // due) lands during the wait, so then the wait is a real option:
        // it can turn a join into a hit (`[[0], [0]]`, K = 2, τ = 1).
        let shift_only = cache.fetches_in_flight() == 0
            && (0..self.pos.len()).all(|c| {
                c == core || self.pos[c] == self.workload.len(c) || stall.deferred_at[c] == time
            });
        if time > stall.horizon || shift_only || self.decide(2, time) != DEFER {
            return false;
        }
        self.stall.as_mut().expect("stall model").deferred_at[core] = time;
        true
    }
}

/// Which decisions the search branches on.
#[derive(Clone, Copy)]
enum Rule {
    /// Every evictable victim.
    Honest,
    /// Theorem 5's per-sequence furthest-in-the-future victims.
    Restricted,
    /// Every victim, and serve-or-defer for every due core; no step may
    /// be served after `horizon`.
    Stall { horizon: Time },
}

/// Run the engine once under `strategy`'s current script. Returns `true`
/// iff the schedule completed within the stall horizon with a score below
/// `best`; a run stops as soon as its score reaches `best`.
fn replay(
    workload: &Workload,
    cfg: SimConfig,
    strategy: &mut Scripted<'_>,
    best: u64,
) -> Result<bool, DpError> {
    strategy.restart();
    let score = strategy.score;
    let horizon = strategy.stall.as_ref().map_or(Time::MAX, |s| s.horizon);
    let model = |e: mcp_core::SimError| DpError::Model(e.to_string());
    let mut sim = Simulator::new(workload, cfg, strategy).map_err(model)?;
    while let Some(step) = sim.step().map_err(model)? {
        if score.get() >= best || step.time > horizon {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Governed core: run the search under `budget`, returning either the
/// exact optimum or a truncated outcome with the incumbent found so far.
/// Only schedules scoring below `bound` count. The budget's state cap
/// counts engine runs.
fn run_governed(
    workload: &Workload,
    cfg: SimConfig,
    rule: Rule,
    objective: Objective,
    bound: u64,
    budget: &Budget,
) -> Result<SearchOutcome, DpError> {
    // Validates the model and the instance limits shared with the DPs.
    DpInstance::build(workload, &cfg)?;
    if workload.is_empty() {
        return Ok(SearchOutcome::Complete(0));
    }
    let score = Cell::new(0);
    let mut strategy = Scripted::new(workload, cfg, objective, rule, &score);
    let mut best = bound;
    let mut runs = 0;
    loop {
        runs += 1;
        if let Err(reason) = check_node(budget, runs) {
            return Ok(SearchOutcome::Truncated {
                reason,
                incumbent: (best < bound).then_some(best),
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
    rule: Rule,
    objective: Objective,
    max_nodes: usize,
) -> Result<u64, DpError> {
    let budget = Budget::unlimited().with_max_states(max_nodes);
    match run_governed(workload, cfg, rule, objective, u64::MAX, &budget)? {
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
    run(workload, cfg, Rule::Honest, Objective::Faults, max_nodes)
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
    run_governed(
        workload,
        cfg,
        Rule::Honest,
        Objective::Faults,
        u64::MAX,
        budget,
    )
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
    run(workload, cfg, Rule::Honest, Objective::Makespan, max_nodes)
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
        Rule::Honest,
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
        Rule::Honest,
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
    run(
        workload,
        cfg,
        Rule::Restricted,
        Objective::Faults,
        max_nodes,
    )
}

/// Exhaustive optimum of `objective` in the scheduling-capable model: the
/// algorithm may also defer any due core at any timestep. The search
/// never defers every unfinished core at once while no fetch is in
/// flight — that step would only shift the clock — so it is exact on
/// shared pages as well as disjoint ones.
///
/// `horizon` bounds how late the schedule may run (stalls make schedules
/// unboundedly long otherwise): a schedule serving any step after
/// `horizon` does not count. A safe horizon for fault minimization is
/// `n(τ+1) + slack`. `initial_bound`, if given, seeds branch-and-bound
/// with a known achievable score (e.g. the no-scheduling optimum, which
/// scheduling can only match or beat). `max_nodes` caps the number of
/// engine runs.
pub fn sched_min(
    workload: &Workload,
    cfg: SimConfig,
    objective: Objective,
    horizon: Time,
    initial_bound: Option<u64>,
    max_nodes: usize,
) -> Result<u64, DpError> {
    let budget = Budget::unlimited().with_max_states(max_nodes);
    match sched_min_governed(workload, cfg, objective, horizon, initial_bound, &budget)? {
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

/// Budget-governed [`sched_min`]: instead of erroring when a limit
/// trips, returns [`SearchOutcome::Truncated`] whose `incumbent` is the
/// best score the search itself achieved before the trip (the seeded
/// `initial_bound`, never achieved by this search, is not reported).
pub fn sched_min_governed(
    workload: &Workload,
    cfg: SimConfig,
    objective: Objective,
    horizon: Time,
    initial_bound: Option<u64>,
    budget: &Budget,
) -> Result<SearchOutcome, DpError> {
    let bound = initial_bound.map_or(u64::MAX, |b| b.saturating_add(1));
    let outcome = run_governed(
        workload,
        cfg,
        Rule::Stall { horizon },
        objective,
        bound,
        budget,
    )?;
    if outcome == SearchOutcome::Complete(bound) {
        return Err(DpError::Model(format!(
            "no schedule completed within horizon {horizon} under the given bound; raise them"
        )));
    }
    Ok(outcome)
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

    fn horizon(w: &Workload, cfg: SimConfig) -> Time {
        (w.total_len() as u64 + 4) * (cfg.tau + 1) + 4
    }

    #[test]
    fn scheduling_never_hurts_either_objective() {
        let cases: Vec<Vec<Vec<u32>>> = vec![
            vec![vec![1, 2, 1, 2], vec![7, 8, 7, 8]],
            vec![vec![1, 2, 3], vec![7, 7, 7]],
        ];
        for seqs in cases {
            let w = Workload::from_u32(seqs.clone()).unwrap();
            for tau in [0u64, 1] {
                let cfg = SimConfig::new(2, tau);
                let h = horizon(&w, cfg);
                let plain_f = brute_force_min_faults(&w, cfg, NODES).unwrap();
                let sched_f =
                    sched_min(&w, cfg, Objective::Faults, h, Some(plain_f), NODES).unwrap();
                assert!(
                    sched_f <= plain_f,
                    "{seqs:?} tau={tau}: faults {sched_f} > {plain_f}"
                );
                let plain_m = brute_force_min_makespan(&w, cfg, NODES).unwrap();
                let sched_m =
                    sched_min(&w, cfg, Objective::Makespan, h, Some(plain_m), NODES).unwrap();
                assert!(
                    sched_m <= plain_m,
                    "{seqs:?} tau={tau}: makespan {sched_m} > {plain_m}"
                );
            }
        }
    }

    #[test]
    fn scheduling_strictly_helps_on_aligned_thrash() {
        // K = 2, both cores alternate 2 private pages, perfectly aligned:
        // without scheduling every request faults; with scheduling,
        // stalling core 1 lets core 0 keep both pages, then they swap —
        // strictly fewer faults.
        let w = wl(&[&[1, 2, 1, 2], &[7, 8, 7, 8]]);
        let cfg = SimConfig::new(2, 1);
        let plain = brute_force_min_faults(&w, cfg, NODES).unwrap();
        assert_eq!(plain, 8);
        let h = horizon(&w, cfg) + 10;
        let sched = sched_min(&w, cfg, Objective::Faults, h, Some(plain), NODES).unwrap();
        assert_eq!(sched, 4, "each core faults its two pages in once");
    }

    #[test]
    fn single_core_gains_nothing() {
        // With p = 1 stalling only wastes time: fault optimum unchanged.
        let w = wl(&[&[1, 2, 3, 1, 2]]);
        let cfg = SimConfig::new(2, 1);
        let h = horizon(&w, cfg);
        let plain = brute_force_min_faults(&w, cfg, NODES).unwrap();
        let sched = sched_min(&w, cfg, Objective::Faults, h, None, NODES).unwrap();
        assert_eq!(plain, sched);
    }

    #[test]
    fn sched_governed_deadline_truncates_with_reason() {
        use mcp_core::{Budget, TripReason};
        use std::time::Duration;
        let w = wl(&[&[1, 2, 1, 2], &[7, 8, 7, 8]]);
        let cfg = SimConfig::new(2, 1);
        let h = horizon(&w, cfg);
        let budget = Budget::unlimited().with_deadline(Duration::ZERO);
        let out = sched_min_governed(&w, cfg, Objective::Faults, h, None, &budget).unwrap();
        let SearchOutcome::Truncated { reason, .. } = out else {
            panic!("zero deadline must truncate")
        };
        assert_eq!(reason, TripReason::Deadline);
        // And an unlimited governed run agrees with the ungoverned one.
        let plain = sched_min(&w, cfg, Objective::Faults, h, None, NODES).unwrap();
        let full =
            sched_min_governed(&w, cfg, Objective::Faults, h, None, &Budget::unlimited()).unwrap();
        assert_eq!(full, SearchOutcome::Complete(plain));
    }

    #[test]
    fn horizon_too_small_errors() {
        let w = wl(&[&[1, 2, 3]]);
        let cfg = SimConfig::new(1, 2);
        let err = sched_min(&w, cfg, Objective::Faults, 2, None, NODES).unwrap_err();
        assert!(matches!(err, DpError::Model(_)));
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
