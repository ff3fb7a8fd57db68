//! The executable schedule from the forward direction of Theorem 2's
//! proof: given a solution to the g-PARTITION instance, serve the reduced
//! PIF workload so that every sequence meets its fault bound **exactly**.
//!
//! Each solution group of `g` sequences shares `g+1` cells: one dedicated
//! cell per sequence plus one *extra* cell that rotates. The sequence
//! currently holding the extra cell (the group's *privileged* sequence)
//! keeps both of its pages resident and hits until it exhausts its quota
//! `h_i = s_i(τ+1)+1`; every other sequence thrashes its single dedicated
//! cell, faulting each request. When a quota completes, the next sequence
//! in the group steals a cell from the outgoing privileged sequence on its
//! very next fault — evicting precisely the page the outgoing sequence
//! will request next, so its fault cadence resumes immediately.
//!
//! Simulating this strategy on the reduction and checking
//! `faults_at(i, t) == b_i` machine-verifies the (⇒) direction of the
//! NP-completeness proof, including every timing coincidence the proof
//! asserts (handoffs landing exactly on request boundaries).

use crate::reduction::PifReduction;
use mcp_core::{Cache, CacheStrategy, PageId, SimConfig, Time, Workload};

#[derive(Clone, Debug)]
struct GroupState {
    /// Cores of the group, ascending (handoffs go left to right).
    order: Vec<usize>,
    /// Hit quotas `h_i` aligned with `order`.
    quotas: Vec<u64>,
    /// Index of the current privileged sequence in `order`.
    stage: usize,
    /// Hits the privileged sequence has accumulated this stage.
    hits: u64,
    /// Quota reached: the next fault of the successor steals a cell.
    armed: bool,
    /// All quotas served.
    done: bool,
}

/// The proof's cell-rotation schedule as a [`CacheStrategy`].
pub struct GadgetStrategy {
    /// `(group index, rank within group)` per core.
    membership: Vec<(usize, usize)>,
    groups: Vec<GroupState>,
    /// Requests served so far, per core.
    cursor: Vec<usize>,
    seqs: Vec<Vec<PageId>>,
}

impl GadgetStrategy {
    /// Build from a reduction and a solution grouping (core index sets).
    pub fn new(reduction: &PifReduction, solution_groups: &[Vec<usize>]) -> Self {
        let p = reduction.workload.num_cores();
        let mut membership = vec![(usize::MAX, usize::MAX); p];
        let mut groups = Vec::with_capacity(solution_groups.len());
        for (gi, group) in solution_groups.iter().enumerate() {
            let mut order = group.clone();
            order.sort_unstable();
            let quotas = order.iter().map(|&c| reduction.hit_quota(c)).collect();
            for (rank, &core) in order.iter().enumerate() {
                membership[core] = (gi, rank);
            }
            groups.push(GroupState {
                order,
                quotas,
                stage: 0,
                hits: 0,
                armed: false,
                done: false,
            });
        }
        assert!(
            membership.iter().all(|&(g, _)| g != usize::MAX),
            "every core must belong to a solution group"
        );
        GadgetStrategy {
            membership,
            groups,
            cursor: vec![0; p],
            seqs: Vec::new(),
        }
    }

    /// Whether `core` is its group's current privileged sequence.
    fn is_privileged(&self, core: usize) -> bool {
        let (g, rank) = self.membership[core];
        let state = &self.groups[g];
        !state.done && rank == state.stage
    }

    /// The page `core` will request next (its cursor points past every
    /// served request).
    fn next_request(&self, core: usize) -> PageId {
        self.seqs[core][self.cursor[core] % self.seqs[core].len()]
    }
}

impl CacheStrategy for GadgetStrategy {
    fn name(&self) -> String {
        "Gadget(3-PARTITION schedule)".into()
    }

    fn begin(&mut self, workload: &Workload, _cfg: &SimConfig) {
        self.seqs = workload.sequences().to_vec();
        self.cursor = vec![0; workload.num_cores()];
    }

    fn on_hit(&mut self, core: usize, _page: PageId, _time: Time, _cell: usize, _cache: &Cache) {
        self.cursor[core] += 1;
        let (g, rank) = self.membership[core];
        let state = &mut self.groups[g];
        if !state.done && rank == state.stage {
            state.hits += 1;
            if state.hits >= state.quotas[state.stage] {
                if state.stage + 1 < state.order.len() {
                    state.armed = true;
                } else {
                    state.done = true;
                }
            }
        }
    }

    fn choose_cell(&mut self, core: usize, _page: PageId, _time: Time, cache: &Cache) -> usize {
        let (g, rank) = self.membership[core];
        // Handoff: the successor's first fault after the quota completes
        // steals the outgoing privileged sequence's next-requested page.
        if self.groups[g].armed && rank == self.groups[g].stage + 1 {
            let prev = self.groups[g].order[self.groups[g].stage];
            let victim = self.next_request(prev);
            let cell = cache
                .cell_of(victim)
                .expect("outgoing privileged page resident");
            let state = &mut self.groups[g];
            state.stage += 1;
            state.armed = false;
            state.hits = 0;
            return cell;
        }
        // Growing into an empty cell: the first request of every sequence
        // and the privileged sequence's second page.
        let target = if self.is_privileged(core) { 2 } else { 1 };
        if cache.owned_count(core) < target {
            return cache
                .empty_cell()
                .expect("the gadget accounts for every cell");
        }
        // Thrashing: evict our own (only) other page.
        let (cell, _) = cache
            .evictable_cells_of(core)
            .next()
            .expect("a thrashing sequence owns exactly one evictable page");
        cell
    }

    fn on_fault(&mut self, core: usize, _page: PageId, _time: Time, _cell: usize, _cache: &Cache) {
        self.cursor[core] += 1;
    }

    fn on_shared_fetch_miss(
        &mut self,
        core: usize,
        _page: PageId,
        _time: Time,
        _cell: usize,
        _cache: &Cache,
    ) {
        self.cursor[core] += 1;
    }
}

/// Run the gadget schedule for `reduction` with `solution_groups` and
/// return the per-sequence fault counts at the checkpoint.
pub fn run_gadget(reduction: &PifReduction, solution_groups: &[Vec<usize>]) -> Vec<u64> {
    let strategy = GadgetStrategy::new(reduction, solution_groups);
    let result = mcp_core::simulate(&reduction.workload, reduction.cfg, strategy)
        .expect("gadget schedule is legal");
    (0..reduction.workload.num_cores())
        .map(|i| result.faults_at(i, reduction.checkpoint))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric::{planted_yes, PartitionInstance};
    use crate::reduction::reduce_to_pif;

    #[test]
    fn gadget_meets_bounds_exactly_tiny() {
        // n = 3, B = 6, one group; tau = 1: bounds are b_i = 8 and the
        // proof's accounting says the gadget achieves them with equality.
        let inst = PartitionInstance::new(vec![2, 2, 2], 3, 6).unwrap();
        let red = reduce_to_pif(&inst, 1);
        let groups = inst.solve().unwrap();
        let faults = run_gadget(&red, &groups);
        assert_eq!(faults, red.bounds, "gadget must meet each bound exactly");
    }

    #[test]
    fn gadget_meets_bounds_across_taus() {
        let inst = PartitionInstance::new(vec![3, 3, 4], 3, 10).unwrap();
        for tau in [1u64, 2, 3, 5] {
            let red = reduce_to_pif(&inst, tau);
            let groups = inst.solve().unwrap();
            let faults = run_gadget(&red, &groups);
            assert_eq!(faults, red.bounds, "tau = {tau}");
        }
    }

    #[test]
    fn gadget_meets_bounds_two_groups() {
        let inst = planted_yes(3, 2, 20, 11);
        let red = reduce_to_pif(&inst, 2);
        let groups = inst.solve().unwrap();
        let faults = run_gadget(&red, &groups);
        assert_eq!(faults, red.bounds);
    }

    #[test]
    fn gadget_meets_bounds_four_partition() {
        // Theorem 3's variant: groups of 4 sharing 5 cells.
        let inst = planted_yes(4, 2, 30, 3);
        let red = reduce_to_pif(&inst, 1);
        let groups = inst.solve().unwrap();
        let faults = run_gadget(&red, &groups);
        assert_eq!(faults, red.bounds);
    }

    #[test]
    fn gadget_with_wrong_grouping_violates_bounds() {
        // Items {5,5,6},{5,5,6} with B=16: the grouping below mixes items
        // so group sums are 5+5+5=15 and 6+5+6=17 — not a solution, so at
        // least one sequence must blow its bound.
        let inst = PartitionInstance::new(vec![5, 5, 6, 5, 5, 6], 3, 16).unwrap();
        assert!(inst.is_yes());
        let red = reduce_to_pif(&inst, 1);
        let bad_groups = vec![vec![0, 1, 3], vec![2, 4, 5]];
        let faults = run_gadget(&red, &bad_groups);
        assert!(
            faults.iter().zip(&red.bounds).any(|(f, b)| f > b),
            "a non-solution grouping cannot meet every bound: {faults:?} vs {:?}",
            red.bounds
        );
    }
}
