//! The *scheduling-capable* offline model (Hassidim's), for contrast.
//!
//! The paper's central modeling decision (Sections 1–3) is that the paging
//! algorithm has **no scheduling power**: every due request must be served
//! immediately. Hassidim's model instead lets the (offline) algorithm
//! delay sequences arbitrarily — the power that makes LRU non-competitive
//! in his framework. This module implements exhaustive optima for that
//! richer model: at every timestep the algorithm may *stall* any subset of
//! due cores, deferring their requests.
//!
//! Comparing [`sched_min`] against the no-scheduling optima of
//! [`crate::search`] quantifies exactly how much the scheduling freedom is
//! worth — the gap that separates the two papers' models (extension
//! experiment X04).
//!
//! Exponential in every direction (subsets × victims); tiny instances only.

use crate::partition_opt::{partition_dp, policy_curves, PartPolicy};
use crate::search::{check_node, BudgetTripped, Objective, SearchOutcome};
use crate::state::{DpError, DpInstance};
use mcp_core::{Budget, PageId, SimConfig, Time, Workload};
use mcp_policies::Partition;

#[derive(Clone, Copy, Debug)]
struct Slot {
    page: u16,
    ready_at: Time,
}

struct SchedSearch<'a> {
    inst: &'a DpInstance,
    pos: Vec<usize>,
    ready: Vec<Time>,
    cache: Vec<Slot>,
    faults: u64,
    completion: Time,
    objective: Objective,
    best: u64,
    nodes: usize,
    budget: &'a Budget,
    /// Hard horizon: pruning stalls that run past any useful time.
    horizon: Time,
}

impl<'a> SchedSearch<'a> {
    fn score(&self) -> u64 {
        self.objective.score(self.faults, self.completion)
    }

    fn finished(&self, core: usize) -> bool {
        self.pos[core] >= self.inst.seqs[core].len()
    }

    fn all_finished(&self) -> bool {
        (0..self.inst.num_cores()).all(|c| self.finished(c))
    }

    fn lookup(&self, page: u16, now: Time) -> Option<(usize, bool)> {
        self.cache
            .iter()
            .position(|s| s.page == page)
            .map(|i| (i, self.cache[i].ready_at <= now))
    }

    /// Serve or stall each due core at time `t`, starting from core index
    /// `c`; `pinned` is the bitmask of dense pages read by the cores
    /// *chosen to be served* — since stalling is chosen per core as we
    /// go, we pin conservatively: a page is pinned once its core has been
    /// chosen to read it this step. Passed by value, so backtracking
    /// restores it for free.
    fn go(
        &mut self,
        t: Time,
        c: usize,
        pinned: u64,
        served: usize,
        due: usize,
    ) -> Result<(), BudgetTripped> {
        self.nodes += 1;
        check_node(self.budget, self.nodes)?;
        if self.score() >= self.best || t > self.horizon {
            return Ok(());
        }
        let p = self.inst.num_cores();
        let mut core = c;
        while core < p && (self.finished(core) || self.ready[core] != t) {
            core += 1;
        }
        if core == p {
            // Dominance: if every unfinished core was due and none was
            // served, the timestep was a pure time shift (no fetch was in
            // flight) — the identical decisions one step later are always
            // reachable without it.
            let unfinished = (0..p).filter(|&j| !self.finished(j)).count();
            if due > 0 && served == 0 && due == unfinished {
                return Ok(());
            }
            if self.all_finished() {
                self.best = self.best.min(self.score());
                return Ok(());
            }
            let next_t = (0..p)
                .filter(|&j| !self.finished(j))
                .map(|j| self.ready[j])
                .min();
            if let Some(t2) = next_t {
                debug_assert!(t2 > t);
                let due2 = (0..p)
                    .filter(|&j| !self.finished(j) && self.ready[j] == t2)
                    .count();
                return self.go(t2, 0, 0, 0, due2);
            }
            return Ok(());
        }

        // Option A: stall this core for one timestep (the scheduling power).
        self.ready[core] = t + 1;
        self.go(t, core + 1, pinned, served, due)?;
        self.ready[core] = t;

        // Option B: serve it.
        let page = self.inst.seqs[core][self.pos[core]];
        match self.lookup(page, t) {
            Some((_, true)) => {
                self.pos[core] += 1;
                self.ready[core] = t + 1;
                let saved = self.completion;
                self.completion = self.completion.max(t);
                self.go(t, core + 1, pinned | (1u64 << page), served + 1, due)?;
                self.completion = saved;
                self.pos[core] -= 1;
                self.ready[core] = t;
            }
            Some((_, false)) => {
                // In flight: join the fetch.
                self.pos[core] += 1;
                self.ready[core] = t + self.inst.tau + 1;
                self.faults += 1;
                let saved = self.completion;
                self.completion = self.completion.max(t + self.inst.tau);
                self.go(t, core + 1, pinned, served + 1, due)?;
                self.completion = saved;
                self.faults -= 1;
                self.pos[core] -= 1;
                self.ready[core] = t;
            }
            None => {
                self.pos[core] += 1;
                self.ready[core] = t + self.inst.tau + 1;
                self.faults += 1;
                let saved = self.completion;
                self.completion = self.completion.max(t + self.inst.tau);
                let slot = Slot {
                    page,
                    ready_at: t + self.inst.tau + 1,
                };
                let pinned = pinned | (1u64 << page);
                if self.cache.len() < self.inst.k {
                    self.cache.push(slot);
                    self.go(t, core + 1, pinned, served + 1, due)?;
                    self.cache.pop();
                } else {
                    for i in 0..self.cache.len() {
                        let victim = self.cache[i];
                        if victim.ready_at > t || pinned & (1u64 << victim.page) != 0 {
                            continue; // in flight or read this step
                        }
                        self.cache[i] = slot;
                        self.go(t, core + 1, pinned, served + 1, due)?;
                        self.cache[i] = victim;
                    }
                }
                self.completion = saved;
                self.faults -= 1;
                self.pos[core] -= 1;
                self.ready[core] = t;
            }
        }
        Ok(())
    }
}

/// Exhaustive optimum in the scheduling-capable model: the algorithm may
/// stall any core at any timestep. Returns the optimum of `objective`.
///
/// `horizon` bounds how late the schedule may run (stalls make schedules
/// unboundedly long otherwise); any request not completed by `horizon`
/// invalidates a branch. A safe horizon for fault minimization is
/// `n(τ+1) + slack`. `initial_bound`, if given, seeds branch-and-bound
/// with a known achievable score **plus one** (e.g. the no-scheduling
/// optimum, which scheduling can only match or beat).
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
    let inst = DpInstance::build(workload, &cfg)?;
    if workload.is_empty() {
        return Ok(SearchOutcome::Complete(0));
    }
    let p = inst.num_cores();
    let due = p; // every core's first request is due at t = 1
    let mut search = SchedSearch {
        inst: &inst,
        pos: vec![0; p],
        ready: vec![1; p],
        cache: Vec::with_capacity(inst.k),
        faults: 0,
        completion: 0,
        objective,
        best: initial_bound
            .map(|b| b.saturating_add(1))
            .unwrap_or(u64::MAX),
        nodes: 0,
        budget,
        horizon,
    };
    let seeded = search.best;
    match search.go(1, 0, 0, 0, due) {
        Ok(()) => {
            if search.best == u64::MAX || (initial_bound.is_some() && search.best == seeded) {
                return Err(DpError::Model(format!(
                    "no schedule completed within horizon {horizon} under the given bound; raise them"
                )));
            }
            Ok(SearchOutcome::Complete(search.best))
        }
        Err(BudgetTripped(reason)) => Ok(SearchOutcome::Truncated {
            reason,
            incumbent: (search.best < seeded).then_some(search.best),
            nodes: search.nodes,
        }),
    }
}

// ---------------------------------------------------------------------------
// JOINT CACHE PARTITION AND JOB ASSIGNMENT (Hassidim–Kaplan–Tuval).
//
// The second scheduling knob the SPAA'11 model deliberately lacks: instead
// of each sequence being pinned to its core, the algorithm chooses which
// core runs which job (a core runs its jobs back to back) *and* how the
// shared cache is partitioned among the cores. The evaluation model is the
// same per-part fault-curve model as `optimal_static_partition`: exact for
// disjoint jobs under static partitions, a heuristic when jobs share pages
// across cores.
// ---------------------------------------------------------------------------

/// A joint cache-partition and job-assignment solution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JointSolution {
    /// `assignment[j]` is the core job `j` runs on.
    pub assignment: Vec<usize>,
    /// Per-core cache quotas, summing to the cache size.
    pub partition: Partition,
    /// Total faults under the per-part fault-curve model.
    pub faults: u64,
    /// Per-core fault counts.
    pub per_core: Vec<u64>,
}

fn core_sequences(jobs: &Workload, assignment: &[usize], cores: usize) -> Vec<Vec<PageId>> {
    let mut seqs = vec![Vec::new(); cores];
    for (job, &core) in assignment.iter().enumerate() {
        if core != usize::MAX {
            seqs[core].extend_from_slice(jobs.sequence(job));
        }
    }
    seqs
}

/// Evaluate a fixed job→core assignment: concatenate each core's jobs in
/// job-index order, then pick the fault-optimal partition for that
/// assignment via the per-part curve DP. This is also the baseline
/// evaluator for comparing against a fixed (e.g. round-robin) assignment.
///
/// Panics if `cache_size < cores` or any `assignment[j] >= cores`.
pub fn evaluate_assignment(
    jobs: &Workload,
    assignment: &[usize],
    cores: usize,
    cache_size: usize,
    policy: PartPolicy,
) -> JointSolution {
    assert!(cores >= 1, "need at least one core");
    assert!(cache_size >= cores, "need at least one cell per core");
    assert!(
        assignment.iter().all(|&c| c < cores),
        "assignment targets a core out of range"
    );
    let seqs = core_sequences(jobs, assignment, cores);
    let curves = policy_curves(&seqs, cache_size, policy);
    let (sizes, faults) = partition_dp(&curves, cache_size);
    let per_core: Vec<u64> = (0..cores).map(|c| curves[c][sizes[c] - 1]).collect();
    JointSolution {
        assignment: assignment.to_vec(),
        partition: Partition::from_sizes(sizes),
        faults,
        per_core,
    }
}

/// Greedy joint optimizer: place jobs one at a time — most demanding
/// first, demand measured as faults with a single cell — onto whichever
/// core minimizes the total under a re-optimized partition (ties to the
/// lower core index, so the result is deterministic). Each placement
/// re-runs the curve DP, so the partition co-evolves with the assignment
/// rather than being fixed up afterwards.
pub fn joint_greedy(
    jobs: &Workload,
    cores: usize,
    cache_size: usize,
    policy: PartPolicy,
) -> JointSolution {
    assert!(cores >= 1, "need at least one core");
    assert!(cache_size >= cores, "need at least one cell per core");
    let q = jobs.num_cores();
    let demand: Vec<u64> = (0..q)
        .map(|j| {
            let seq = jobs.sequence(j);
            policy_curves(&[seq], 1, policy)[0][0]
        })
        .collect();
    let mut order: Vec<usize> = (0..q).collect();
    order.sort_by(|&a, &b| demand[b].cmp(&demand[a]).then(a.cmp(&b)));

    let mut assignment = vec![usize::MAX; q];
    for &job in &order {
        let mut best: Option<(u64, usize)> = None;
        for core in 0..cores {
            assignment[job] = core;
            let seqs = core_sequences(jobs, &assignment, cores);
            let curves = policy_curves(&seqs, cache_size, policy);
            let (_, faults) = partition_dp(&curves, cache_size);
            if best.is_none_or(|(bf, _)| faults < bf) {
                best = Some((faults, core));
            }
        }
        assignment[job] = best.expect("at least one core").1;
    }
    evaluate_assignment(jobs, &assignment, cores, cache_size, policy)
}

/// Exhaustive joint optimum: try every `cores^q` assignment, each under
/// its optimal partition. `None` when the assignment count exceeds
/// `max_assignments` (the tiny-scale ground truth behind experiment X06,
/// same contract as the `mcp-oracle` brute-force searches). Ties resolve
/// to the lexicographically smallest assignment.
pub fn joint_exhaustive(
    jobs: &Workload,
    cores: usize,
    cache_size: usize,
    policy: PartPolicy,
    max_assignments: usize,
) -> Option<JointSolution> {
    assert!(cores >= 1, "need at least one core");
    assert!(cache_size >= cores, "need at least one cell per core");
    let q = jobs.num_cores() as u32;
    let total = (cores as u128).checked_pow(q)?;
    if total > max_assignments as u128 {
        return None;
    }
    let mut best: Option<JointSolution> = None;
    let mut assignment = vec![0usize; q as usize];
    loop {
        let cand = evaluate_assignment(jobs, &assignment, cores, cache_size, policy);
        if best.as_ref().is_none_or(|b| cand.faults < b.faults) {
            best = Some(cand);
        }
        // Odometer over base-`cores` digits, rightmost digit fastest, so
        // assignments enumerate in lexicographic order.
        let mut digit = assignment.len();
        loop {
            if digit == 0 {
                return best;
            }
            digit -= 1;
            assignment[digit] += 1;
            if assignment[digit] < cores {
                break;
            }
            assignment[digit] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{brute_force_min_faults, brute_force_min_makespan};

    const NODES: usize = 60_000_000;

    fn wl(seqs: &[&[u32]]) -> Workload {
        Workload::from_u32(seqs.iter().map(|s| s.to_vec())).unwrap()
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
        // without scheduling every request faults (12 faults, see the
        // ftf_dp test); with scheduling, stalling core 1 lets core 0 keep
        // both pages, then they swap — strictly fewer faults.
        let w = wl(&[&[1, 2, 1, 2], &[7, 8, 7, 8]]);
        let cfg = SimConfig::new(2, 1);
        let plain = brute_force_min_faults(&w, cfg, NODES).unwrap();
        assert_eq!(plain, 8);
        let h = horizon(&w, cfg) + 10;
        let sched = sched_min(&w, cfg, Objective::Faults, h, Some(plain), NODES).unwrap();
        assert!(
            sched < plain,
            "scheduling must break the alignment deadlock: {sched} vs {plain}"
        );
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
    fn governed_deadline_truncates_with_reason() {
        use mcp_core::TripReason;
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
    fn joint_greedy_beats_round_robin_on_sharing_jobs() {
        // Jobs 0 and 1 touch the same 3 pages, as do jobs 2 and 3.
        // Round-robin (j % 2) splits each sharing pair across the cores,
        // paying every working set cold twice; the greedy optimizer
        // co-locates sharers so each page set is faulted in exactly once.
        let a: Vec<u32> = (0..24).map(|i| i % 3).collect();
        let b: Vec<u32> = (0..24).map(|i| 10 + i % 3).collect();
        let jobs = wl(&[&a, &a, &b, &b]);
        let (cores, k) = (2, 6);
        let greedy = joint_greedy(&jobs, cores, k, PartPolicy::Lru);
        let rr: Vec<usize> = (0..4).map(|j| j % cores).collect();
        let fixed = evaluate_assignment(&jobs, &rr, cores, k, PartPolicy::Lru);
        assert_eq!(fixed.faults, 12); // every 3-page set cold on both cores
        assert_eq!(greedy.faults, 6); // each set cold exactly once
        assert!(greedy.faults < fixed.faults);
    }

    #[test]
    fn joint_greedy_matches_exhaustive_on_tiny_instances() {
        let a: Vec<u32> = (0..12).map(|i| i % 3).collect();
        let b: Vec<u32> = (0..12).map(|i| 10 + i % 2).collect();
        let jobs = wl(&[&a, &b, &[30; 6]]);
        for k in [3usize, 4, 5] {
            let greedy = joint_greedy(&jobs, 2, k, PartPolicy::Opt);
            let exact = joint_exhaustive(&jobs, 2, k, PartPolicy::Opt, 1 << 20).unwrap();
            assert!(greedy.faults >= exact.faults, "greedy beat the optimum?");
            assert_eq!(
                greedy.faults, exact.faults,
                "k={k}: greedy {} vs exhaustive {}",
                greedy.faults, exact.faults
            );
        }
    }

    #[test]
    fn evaluate_assignment_agrees_with_simulation() {
        use mcp_core::simulate;
        use mcp_policies::static_partition_lru;
        // Disjoint jobs, τ=0: the curve model is exact, so simulating the
        // concatenated per-core sequences under the chosen static
        // partition reproduces the predicted per-core faults.
        let jobs = wl(&[&[1, 2, 1, 2, 1], &[7, 8, 9, 7, 8, 9], &[4; 5]]);
        let sol = evaluate_assignment(&jobs, &[0, 1, 0], 2, 5, PartPolicy::Lru);
        let seqs = core_sequences(&jobs, &sol.assignment, 2);
        let w = Workload::new(seqs).unwrap();
        let r = simulate(
            &w,
            SimConfig::new(5, 0),
            static_partition_lru(sol.partition.clone()),
        )
        .unwrap();
        assert_eq!(r.faults, sol.per_core);
        assert_eq!(r.total_faults(), sol.faults);
    }

    #[test]
    fn joint_exhaustive_respects_its_cap() {
        let jobs = wl(&[&[1], &[2], &[3], &[4], &[5]]);
        assert!(joint_exhaustive(&jobs, 3, 3, PartPolicy::Lru, 10).is_none());
        assert!(joint_exhaustive(&jobs, 3, 3, PartPolicy::Lru, 1000).is_some());
    }

    #[test]
    fn horizon_too_small_errors() {
        let w = wl(&[&[1, 2, 3]]);
        let cfg = SimConfig::new(1, 2);
        let err = sched_min(&w, cfg, Objective::Faults, 2, None, NODES).unwrap_err();
        assert!(matches!(err, DpError::Model(_)));
    }
}
