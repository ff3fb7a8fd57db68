//! The frontier driver of Algorithms 1 and 2.
//!
//! Both DPs step a configuration `C` at positions `x` to every `C'` with
//! `R(x) ⊆ C' ⊆ C ∪ R(x)`, `|C'| ≤ K`, that their voluntary mask admits.
//! They differ only in what a state carries and how they store a layer:
//! [`walk`] owns the rest, a DP supplies its part through [`Frontier`].
//! A layer's states expand independently (every successor lies in a
//! later layer), on the [`mcp_exec`] pool from [`MIN_PARALLEL_TASKS`]
//! states on, and every layer merges in canonical order: each result,
//! statistic and snapshot is the same for every worker count.

use crate::intern::{PackedPos, StateArena, StateId};
use crate::state::{for_each_successor_config_rx, step_effect_into, DpError, DpInstance};
use mcp_core::{Budget, TripReason};
use std::cell::RefCell;
use std::ops::ControlFlow;

/// Layers with fewer states than this expand on the calling thread: the
/// scoped-thread round trip costs more than their expansion.
const MIN_PARALLEL_TASKS: usize = 32;

/// One DP's part of the walk. Per layer the driver calls `open`, sorts
/// the ids canonically, checks the budget against `usage`, calls `enter`,
/// then per source state in canonical order `edge`, `merge` per successor
/// configuration and `merged`, and finally `close`.
pub(crate) trait Frontier: Sync {
    /// What a source state hands its successors (built on a worker when
    /// the layer fans out).
    type Edge: Default + Send;

    /// The arena holding the open layer's states.
    fn arena(&self) -> &StateArena;

    /// Push the next layer's ids into `ids` (empty), or return `false`
    /// when the walk is over.
    fn open(&mut self, ids: &mut Vec<StateId>) -> bool;

    /// The budget's `states` axis and the approximate footprint in bytes.
    fn usage(&self) -> (usize, usize);

    /// Inspect the sorted open layer; `true` ends the walk there.
    fn enter(&mut self, ids: &[StateId]) -> bool;

    /// Fill `edge` for `step` and return the voluntary mask of its
    /// successors, or `Break(n)` when all `n` are cut.
    fn edge(&self, step: &Step, edge: &mut Self::Edge) -> ControlFlow<usize, u64>;

    /// Admit successor configuration `cfg` of `src`, at positions `pp`,
    /// into the layer being built.
    fn merge(&mut self, src: StateId, edge: &Self::Edge, cfg: u64, pp: &PackedPos);

    /// A source state is done; `cut` successors were cut outright.
    fn merged(&mut self, cut: usize) -> Result<(), DpError>;

    /// The open layer has expanded.
    fn close(&mut self) {}
}

/// One source state's step, in buffers reused from step to step.
#[derive(Default)]
pub(crate) struct Step {
    pub(crate) id: StateId,
    pub(crate) cfg: u64,
    pub(crate) rx: u64,
    /// The pages this step fetches: one fault each.
    pub(crate) fault_mask: u64,
    pos: Vec<u32>,
    pub(crate) next: Vec<u32>,
    /// Per core, whether it faults this step.
    pub(crate) faulted: Vec<bool>,
    voluntary: u64,
}

impl Step {
    /// Call `f` on each successor configuration the DP's voluntary mask
    /// admits, in the enumeration's canonical order.
    fn successors(&self, inst: &DpInstance, f: impl FnMut(u64)) {
        for_each_successor_config_rx(inst, self.cfg, self.rx, self.voluntary, f)
    }
}

/// Walk `dp` with `jobs` workers (0 = the process-wide setting) until it
/// ends or `budget` trips at a layer boundary. A trip leaves the open
/// layer unexpanded and returns its reason, for the DP to snapshot.
pub(crate) fn walk<F: Frontier>(
    inst: &DpInstance,
    dp: &mut F,
    jobs: usize,
    budget: &Budget,
) -> Result<Option<TripReason>, DpError> {
    let (mut ids, mut step, mut edge) = (Vec::new(), Step::default(), F::Edge::default());
    loop {
        ids.clear();
        if !dp.open(&mut ids) {
            return Ok(None);
        }
        dp.arena().sort_ids(&mut ids);
        if budget.is_limited() {
            let (states, mem) = dp.usage();
            if let Err(reason) = budget.check(states, mem) {
                return Ok(Some(reason));
            }
        }
        if dp.enter(&ids) {
            return Ok(None);
        }
        let pool = pool_for(jobs, ids.len());
        if pool.jobs() <= 1 {
            // Merge each successor as the enumeration yields it.
            for &id in &ids {
                let cut = match expand(inst, dp, id, &mut step, &mut edge) {
                    ControlFlow::Break(cut) => cut,
                    ControlFlow::Continue(pp) => {
                        step.successors(inst, |cfg| dp.merge(id, &edge, cfg, &pp));
                        0
                    }
                };
                dp.merged(cut)?;
            }
        } else {
            // Workers ship back each state's successors; each thread
            // reuses one step's buffers.
            thread_local!(static STEP: RefCell<Step> = RefCell::default());
            let shared: &F = dp;
            let expanded = pool.par_map(&ids, |_, &id| {
                let mut edge = F::Edge::default();
                let successors = STEP.with(|step| {
                    let step = &mut *step.borrow_mut();
                    let pp = expand(inst, shared, id, step, &mut edge)?;
                    let mut cfgs = Vec::new();
                    step.successors(inst, |cfg| cfgs.push(cfg));
                    ControlFlow::Continue((pp, cfgs))
                });
                (successors, edge)
            });
            for (&id, (successors, edge)) in ids.iter().zip(expanded) {
                let cut = match successors {
                    ControlFlow::Break(cut) => cut,
                    ControlFlow::Continue((pp, cfgs)) => {
                        cfgs.into_iter()
                            .for_each(|cfg| dp.merge(id, &edge, cfg, &pp));
                        0
                    }
                };
                dp.merged(cut)?;
            }
        }
        dp.close();
    }
}

/// The pool a layer of `tasks` states expands on.
fn pool_for(jobs: usize, tasks: usize) -> mcp_exec::Pool {
    // Tests lower the threshold to push tiny layers onto the pool.
    #[cfg(test)]
    let min_parallel_tasks = tests::threshold(tasks);
    #[cfg(not(test))]
    let min_parallel_tasks = MIN_PARALLEL_TASKS;
    if tasks < min_parallel_tasks {
        mcp_exec::Pool::new(1)
    } else if jobs == 0 {
        mcp_exec::Pool::global()
    } else {
        mcp_exec::Pool::new(jobs)
    }
}

/// Take the step out of state `id` into `step` and let `dp` fill `edge`:
/// the successors' packed positions, or `Break(n)` when all `n` are cut.
fn expand<F: Frontier>(
    inst: &DpInstance,
    dp: &F,
    id: StateId,
    step: &mut Step,
    edge: &mut F::Edge,
) -> ControlFlow<usize, PackedPos> {
    let arena = dp.arena();
    (step.id, step.cfg) = (id, arena.cfg(id));
    arena.positions_into(id, &mut step.pos);
    debug_assert!(!inst.all_finished(&step.pos), "terminals never expand");
    (step.rx, step.fault_mask) =
        step_effect_into(inst, step.cfg, &step.pos, &mut step.next, &mut step.faulted);
    step.voluntary = dp.edge(step, edge)?;
    ControlFlow::Continue(arena.pack(&step.next))
}

#[cfg(test)]
mod tests {
    use crate::{
        ftf_dp_governed_with_stats, pif_decide_with_stats, pif_witness, FtfOptions, FtfOutcome,
        FtfSchedule, PifOptions,
    };
    use mcp_core::{Budget, SimConfig, Workload};
    use std::cell::Cell;

    thread_local! {
        static THRESHOLD: Cell<usize> = const { Cell::new(super::MIN_PARALLEL_TASKS) };
        static LARGEST: Cell<usize> = const { Cell::new(0) };
    }

    /// The pool threshold the driver applies on this thread; records the
    /// largest layer it applies it to.
    pub(super) fn threshold(tasks: usize) -> usize {
        LARGEST.with(|largest| largest.set(largest.get().max(tasks)));
        THRESHOLD.with(Cell::get)
    }

    /// A schedule in a stable order.
    fn schedule(s: FtfSchedule) -> String {
        let mut decisions: Vec<_> = s.decisions.into_iter().collect();
        decisions.sort_by_key(|&(key, _)| key);
        format!("{decisions:?} {:?}", s.voluntary)
    }

    /// Everything the DPs report on `w` at `jobs` workers: FTF lazy, full,
    /// bounded and witness runs, complete and cut short by a state cap
    /// (minimum, states, schedule or snapshot, statistics), PIF decisions
    /// with the bound on and off (answer, statistics) and PIF witnesses.
    fn run_all(w: &Workload, cfg: SimConfig, jobs: usize) -> Vec<String> {
        let mut out = Vec::new();
        for (lazy, bound, reconstruct) in [
            (true, false, false),
            (false, false, false),
            (true, true, false),
            (true, true, true),
            (false, true, true),
        ] {
            let options = FtfOptions {
                lazy,
                bound,
                reconstruct,
                jobs,
                ..FtfOptions::default()
            };
            for cap in [usize::MAX, 12] {
                let budget = Budget::unlimited().with_max_states(cap);
                let (outcome, stats) =
                    ftf_dp_governed_with_stats(w, cfg, options, &budget, None).unwrap();
                out.push(match outcome {
                    FtfOutcome::Complete(r) => {
                        let witness = r.schedule.map(schedule);
                        format!("{} {} {witness:?} {stats:?}", r.min_faults, r.states)
                    }
                    FtfOutcome::Truncated(t) => format!("{t:?} {stats:?}"),
                });
            }
        }
        let bounds = vec![2; w.num_cores()];
        for (full_transitions, bound) in [(true, true), (true, false), (false, true)] {
            let options = PifOptions {
                full_transitions,
                bound,
                jobs,
                ..PifOptions::default()
            };
            for horizon in [3, 6, 40] {
                let decide = pif_decide_with_stats(w, cfg, horizon, &bounds, options);
                let witness = pif_witness(w, cfg, horizon, &bounds, options).unwrap();
                out.push(format!("{decide:?} {:?}", witness.map(schedule)));
            }
        }
        out
    }

    /// The pooled path on layers too small for the pool: with the
    /// threshold at 0, jobs 2 and 4 fan every layer out, and must report
    /// exactly what the inline path does at one job.
    #[test]
    fn pooled_tiny_layers_match_the_inline_path() {
        let cases: [(&[&[u32]], usize, u64); 3] = [
            (&[&[1, 2, 3, 1], &[7, 8, 7, 8]], 3, 1),
            (&[&[0, 0, 1, 2], &[2, 0, 2, 0]], 2, 1),
            (&[&[1, 2, 1], &[4, 5, 4], &[1, 6, 1]], 4, 0),
        ];
        for (seqs, k, tau) in cases {
            let w = Workload::from_u32(seqs.iter().map(|s| s.to_vec())).unwrap();
            let cfg = SimConfig::new(k, tau);
            LARGEST.with(|largest| largest.set(0));
            let inline = run_all(&w, cfg, 1);
            let largest = LARGEST.with(Cell::get);
            assert!(largest < super::MIN_PARALLEL_TASKS, "a layer of {largest}");
            for jobs in [2, 4] {
                THRESHOLD.with(|threshold| threshold.set(0));
                let pooled = run_all(&w, cfg, jobs);
                THRESHOLD.with(|threshold| threshold.set(super::MIN_PARALLEL_TASKS));
                assert_eq!(pooled, inline, "{seqs:?} k={k} tau={tau} jobs={jobs}");
            }
        }
    }
}
