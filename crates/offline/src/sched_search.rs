//! Joint cache partition and job assignment (Hassidim–Kaplan–Tuval).
//!
//! The second scheduling knob the SPAA'11 model deliberately lacks (the
//! first, stalling, is [`crate::sched_min`]): instead of each sequence
//! being pinned to its core, the algorithm chooses which core runs which
//! job (a core runs its jobs back to back) *and* how the shared cache is
//! partitioned among the cores. The evaluation model is the same per-part
//! fault-curve model as `optimal_static_partition`: exact for disjoint
//! jobs under static partitions, a heuristic when jobs share pages across
//! cores. Experiment X06 reads these.

use crate::partition_opt::{partition_dp, policy_curves, PartPolicy};
use mcp_core::{PageId, Workload};
use mcp_policies::Partition;

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

    fn wl(seqs: &[&[u32]]) -> Workload {
        Workload::from_u32(seqs.iter().map(|s| s.to_vec())).unwrap()
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
        use mcp_core::{simulate, SimConfig};
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
}
