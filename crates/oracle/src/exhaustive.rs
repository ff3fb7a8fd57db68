//! Tiny-scale exhaustive offline oracles: naive enumeration of every
//! decision, one run of the naive reference engine ([`crate::reference`])
//! per schedule. Decisions go through the strategy hooks — victims
//! through `choose_cell`, K(t) shed sets through `shrink_victims`, PIF
//! drops through `voluntary_evictions`, stalls through `defer` — so the
//! oracles carry no step rule of their own. They re-derive the answers of
//! `mcp_offline`'s DPs (Algorithms 1 and 2) and of its searches on the
//! production engine, as a third independent path.
//!
//! The enumeration is an odometer over the decision script: a run replays
//! the script and takes option 0 at every decision past its end; the next
//! script advances the deepest decision that has an untried option. The
//! only cuts are the incumbent (a run that can no longer beat the best
//! schedule found stops branching, its faults counted with one for every
//! page nobody has requested yet) and PIF's stop at the first witness.
//!
//! Exponential in every direction — feed these single-digit-length
//! instances only. Every entry point takes a cap on reference runs and
//! returns `None` when it trips, so callers simply skip the cross-check on
//! instances that turn out too large.

use crate::reference::reference_simulate_with_capacity;
use mcp_core::{Cache, CacheStrategy, CapacitySchedule, PageId, SimConfig, Time, Workload};

/// The four honest optima: over every victim (and K(t) shed) choice of a
/// lazy, honest strategy — the class `mcp_offline`'s brute-force searches
/// explore. Honest service is optimal for total faults (Theorem 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HonestOptima {
    /// Minimum total faults (FINAL-TOTAL-FAULTS).
    pub faults: u64,
    /// Minimum makespan (completion time of the last request).
    pub makespan: u64,
    /// Lexicographic optimum `(faults, makespan)`.
    pub faults_then_makespan: (u64, u64),
    /// Lexicographic optimum `(makespan, faults)`.
    pub makespan_then_faults: (u64, u64),
}

/// A run's decisions, replayed by the next run up to the one it advances.
#[derive(Default)]
struct Script {
    /// `(taken, options)` per decision, in the order the run meets them.
    decisions: Vec<(usize, usize)>,
    /// Decisions the current run has met.
    depth: usize,
    /// The run can no longer matter: it takes option 0 everywhere from
    /// here on and records nothing.
    frozen: bool,
}

impl Script {
    /// The option taken at the next decision among `options`.
    fn choose(&mut self, options: usize) -> usize {
        if self.frozen || options < 2 {
            return 0;
        }
        if self.depth == self.decisions.len() {
            self.decisions.push((0, options));
        }
        let (taken, recorded) = self.decisions[self.depth];
        assert_eq!(recorded, options, "replay diverged from its script");
        self.depth += 1;
        taken
    }

    /// Stop branching: no schedule below the decisions taken so far can
    /// change the answer, so the run takes option 0 from here on.
    fn freeze(&mut self) {
        self.frozen = true;
        self.decisions.truncate(self.depth);
    }

    /// Advance to the next script; `false` once every one was run.
    fn advance(&mut self) -> bool {
        self.depth = 0;
        self.frozen = false;
        while let Some((taken, options)) = self.decisions.pop() {
            if taken + 1 < options {
                self.decisions.push((taken + 1, options));
                return true;
            }
        }
        false
    }
}

/// What the enumeration decides and what it looks for.
enum Goal<'a> {
    /// Victims and K(t) shed sets; the best `(faults, makespan)` in both
    /// lexicographic orders.
    Honest {
        best_fm: (u64, u64),
        best_mf: (u64, u64),
    },
    /// Victims and voluntary drops up to the checkpoint; a schedule whose
    /// per-core faults issued by `checkpoint` stay within `bounds`.
    Pif {
        checkpoint: Time,
        bounds: &'a [u64],
        found: bool,
    },
    /// Victims and serve-or-defer for every due core; the fewest faults
    /// of a schedule serving no step after `horizon`.
    Stall { horizon: Time, best: u64 },
}

/// The scripted strategy: lazy (an empty cell first), and otherwise the
/// script's choice at every decision.
struct Enumeration<'a> {
    w: &'a Workload,
    tau: Time,
    goal: Goal<'a>,
    script: Script,
    /// Next request index per core.
    pos: Vec<usize>,
    faults: u64,
    /// Completion time of the last request served so far: a hit at `t`
    /// completes at `t`, a fault at `t + τ`.
    completion: Time,
    /// Per-core faults issued at or before the PIF checkpoint.
    faults_at_cp: Vec<u64>,
    /// The run served a step past the stall horizon: it does not count.
    void: bool,
}

impl<'a> Enumeration<'a> {
    fn new(w: &'a Workload, cfg: SimConfig, goal: Goal<'a>) -> Self {
        Enumeration {
            w,
            tau: cfg.tau,
            goal,
            script: Script::default(),
            pos: vec![0; w.num_cores()],
            faults: 0,
            completion: 0,
            faults_at_cp: vec![0; w.num_cores()],
            void: false,
        }
    }

    /// Run the reference once per script until the scripts run out, the
    /// goal is met (a PIF witness), or `max_runs` runs were spent (`None`).
    fn explore(
        mut self,
        cfg: SimConfig,
        capacity: &CapacitySchedule,
        max_runs: usize,
    ) -> Option<Goal<'a>> {
        let w = self.w;
        for _ in 0..max_runs {
            self.pos.fill(0);
            self.faults = 0;
            self.completion = 0;
            self.faults_at_cp.fill(0);
            self.void = false;
            let result = reference_simulate_with_capacity(w, cfg, capacity.clone(), &mut self)
                .expect("a valid schedule, and scripted decisions are legal");
            let (faults, makespan) = (result.total_faults(), result.makespan);
            match &mut self.goal {
                Goal::Honest { best_fm, best_mf } => {
                    *best_fm = (*best_fm).min((faults, makespan));
                    *best_mf = (*best_mf).min((makespan, faults));
                }
                Goal::Pif {
                    checkpoint,
                    bounds,
                    found,
                } => {
                    let at = result.fault_vector_at(*checkpoint);
                    *found = at.iter().zip(bounds.iter()).all(|(f, b)| f <= b);
                    if *found {
                        return Some(self.goal);
                    }
                }
                Goal::Stall { best, .. } => {
                    if !self.void {
                        *best = (*best).min(faults);
                    }
                }
            }
            if !self.script.advance() {
                return Some(self.goal);
            }
        }
        None
    }

    /// Freeze the run at a decision at `time` if it can no longer matter.
    fn cut(&mut self, time: Time) {
        let hopeless = match &self.goal {
            Goal::Honest { best_fm, best_mf } => {
                let faults = self.faults + self.cold_pages();
                (faults, self.completion) >= *best_fm && (self.completion, faults) >= *best_mf
            }
            Goal::Pif {
                checkpoint, bounds, ..
            } => {
                time > *checkpoint
                    || self
                        .faults_at_cp
                        .iter()
                        .zip(bounds.iter())
                        .any(|(f, b)| f > b)
            }
            Goal::Stall { best, .. } => self.faults + self.cold_pages() >= *best,
        };
        if hopeless {
            self.script.freeze();
        }
    }

    /// Distinct pages no core has requested yet: a lazy cache holds only
    /// pages requested before, so each of them faults at least once more.
    fn cold_pages(&self) -> u64 {
        let seqs = self.w.sequences();
        let requested =
            |page: &PageId| (0..seqs.len()).any(|c| seqs[c][..self.pos[c]].contains(page));
        let mut cold: Vec<PageId> = Vec::new();
        for (seq, &pos) in seqs.iter().zip(&self.pos) {
            for &page in &seq[pos..] {
                if !cold.contains(&page) && !requested(&page) {
                    cold.push(page);
                }
            }
        }
        cold.len() as u64
    }

    /// Charge one served request of `core` at `time`.
    fn serve(&mut self, core: usize, time: Time, fault: bool) {
        self.pos[core] += 1;
        if fault {
            self.faults += 1;
            self.completion = self.completion.max(time + self.tau);
            if matches!(self.goal, Goal::Pif { checkpoint, .. } if time <= checkpoint) {
                self.faults_at_cp[core] += 1;
            }
        } else {
            self.completion = self.completion.max(time);
        }
    }
}

/// Every `size`-subset of `cells`.
fn subsets(cells: &[usize], size: usize) -> Vec<Vec<usize>> {
    if size == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for (i, &cell) in cells.iter().enumerate() {
        for mut rest in subsets(&cells[i + 1..], size - 1) {
            rest.insert(0, cell);
            out.push(rest);
        }
    }
    out
}

impl CacheStrategy for Enumeration<'_> {
    fn name(&self) -> String {
        "enumeration".into()
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
        self.serve(core, time, true);
    }

    fn choose_cell(&mut self, core: usize, _page: PageId, time: Time, cache: &Cache) -> usize {
        self.serve(core, time, true);
        if let Some(cell) = cache.empty_cell() {
            return cell;
        }
        let victims: Vec<usize> = cache.evictable_cells().map(|(cell, _, _)| cell).collect();
        self.cut(time);
        victims[self.script.choose(victims.len())]
    }

    fn shrink_victims(&mut self, need: usize, time: Time, cache: &Cache) -> Vec<usize> {
        let evictable: Vec<usize> = cache.evictable_cells().map(|(cell, _, _)| cell).collect();
        let mut sets = subsets(&evictable, need.min(evictable.len()));
        self.cut(time);
        let choice = self.script.choose(sets.len());
        sets.swap_remove(choice)
    }

    fn voluntary_evictions(&mut self, time: Time, cache: &Cache) -> Vec<usize> {
        if !matches!(self.goal, Goal::Pif { .. }) {
            return Vec::new();
        }
        // Dropping a page nobody requests again changes nothing.
        let requested_later = |page: PageId| {
            (0..self.w.num_cores()).any(|c| self.w.sequence(c)[self.pos[c]..].contains(&page))
        };
        let droppable: Vec<usize> = cache
            .evictable_cells()
            .filter(|&(_, page, _)| requested_later(page))
            .map(|(cell, _, _)| cell)
            .collect();
        self.cut(time);
        let mask = self.script.choose(1 << droppable.len());
        (0..droppable.len())
            .filter(|bit| mask >> bit & 1 == 1)
            .map(|bit| droppable[bit])
            .collect()
    }

    fn defers(&self) -> bool {
        matches!(self.goal, Goal::Stall { .. })
    }

    fn defer(&mut self, _core: usize, _page: PageId, time: Time, _cache: &Cache) -> bool {
        if matches!(self.goal, Goal::Stall { horizon, .. } if time > horizon) {
            self.void = true;
            self.script.freeze();
        }
        self.cut(time);
        self.script.choose(2) == 1
    }
}

/// Exhaustive minimum total faults, or `None` if the enumeration took
/// more than `max_runs` reference runs. Cross-checks
/// [`mcp_offline::ftf_min_faults`].
pub fn oracle_min_faults(w: &Workload, cfg: SimConfig, max_runs: usize) -> Option<u64> {
    oracle_optima(w, cfg, max_runs).map(|optima| optima.faults)
}

/// All four honest optima in one enumeration, or `None` if it took more
/// than `max_runs` reference runs. Cross-checks `mcp_offline`'s
/// `brute_force_min_faults`, `brute_force_min_makespan`,
/// `brute_force_faults_then_makespan` and
/// `brute_force_makespan_then_faults`.
pub fn oracle_optima(w: &Workload, cfg: SimConfig, max_runs: usize) -> Option<HonestOptima> {
    honest(w, cfg, &CapacitySchedule::fixed(cfg.cache_size), max_runs)
}

/// Exhaustive minimum total faults under a dynamic capacity schedule
/// `K(t)`, or `None` if the enumeration took more than `max_runs`
/// reference runs. It enumerates fault victims *and* the pages to shed at
/// each capacity drop, so it lower-bounds every honest strategy under the
/// schedule — the K(t)-aware ground truth behind experiment X05.
pub fn oracle_min_faults_with_capacity(
    w: &Workload,
    cfg: SimConfig,
    capacity: &CapacitySchedule,
    max_runs: usize,
) -> Option<u64> {
    honest(w, cfg, capacity, max_runs).map(|optima| optima.faults)
}

fn honest(
    w: &Workload,
    cfg: SimConfig,
    capacity: &CapacitySchedule,
    max_runs: usize,
) -> Option<HonestOptima> {
    let goal = Goal::Honest {
        best_fm: (u64::MAX, u64::MAX),
        best_mf: (u64::MAX, u64::MAX),
    };
    match Enumeration::new(w, cfg, goal).explore(cfg, capacity, max_runs)? {
        Goal::Honest { best_fm, best_mf } => Some(HonestOptima {
            faults: best_fm.0,
            makespan: best_mf.0,
            faults_then_makespan: best_fm,
            makespan_then_faults: best_mf,
        }),
        _ => unreachable!("the goal is kept"),
    }
}

/// Exhaustive PARTIAL-INDIVIDUAL-FAULTS decision: can the workload be
/// served so that core `j` has faulted at most `bounds[j]` times by
/// `checkpoint`? Honesty is not known to be WLOG here — deliberately
/// evicting a page can save another core a fault — so besides victims the
/// enumeration tries every subset of droppable pages (resident, not read
/// this step, requested again later) at every step up to the checkpoint:
/// contents are unobservable between steps, so any voluntary eviction is
/// one of these drops. `None` if no witness turned up within `max_runs`
/// reference runs. Cross-checks [`mcp_offline::pif_decide`].
pub fn oracle_pif_feasible(
    w: &Workload,
    cfg: SimConfig,
    checkpoint: Time,
    bounds: &[u64],
    max_runs: usize,
) -> Option<bool> {
    assert_eq!(bounds.len(), w.num_cores());
    let goal = Goal::Pif {
        checkpoint,
        bounds,
        found: false,
    };
    let capacity = CapacitySchedule::fixed(cfg.cache_size);
    match Enumeration::new(w, cfg, goal).explore(cfg, &capacity, max_runs)? {
        Goal::Pif { found, .. } => Some(found),
        _ => unreachable!("the goal is kept"),
    }
}

/// Exhaustive minimum total faults in the scheduling-capable model, where
/// any due core may be deferred one timestep at every step; or `None` if
/// the enumeration took more than `max_runs` reference runs or no
/// schedule served its last step by `horizon`. Cross-checks
/// [`mcp_offline::sched_min`].
pub fn oracle_sched_min_faults(
    w: &Workload,
    cfg: SimConfig,
    horizon: Time,
    max_runs: usize,
) -> Option<u64> {
    let goal = Goal::Stall {
        horizon,
        best: u64::MAX,
    };
    let capacity = CapacitySchedule::fixed(cfg.cache_size);
    match Enumeration::new(w, cfg, goal).explore(cfg, &capacity, max_runs)? {
        Goal::Stall { best, .. } => (best != u64::MAX).then_some(best),
        _ => unreachable!("the goal is kept"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcp_offline::Objective;

    const CAP: usize = 5_000_000;

    fn w(seqs: &[&[u32]]) -> Workload {
        Workload::from_u32(seqs.iter().map(|s| s.to_vec())).unwrap()
    }

    #[test]
    fn min_faults_on_known_instances() {
        // Single core, K=2: [1,2,3,1,2] — OPT evicts the furthest page.
        let wl = w(&[&[1, 2, 3, 1, 2]]);
        assert_eq!(
            oracle_min_faults(&wl, SimConfig::new(2, 0), CAP),
            Some(4) // 1,2,3 cold; keep {3,1}? Belady: evict 2 at 3 → 1 hits, 2 faults
        );
        // Aligned thrash: K=2, both cores alternate, every request faults.
        let wl = w(&[&[1, 2, 1, 2], &[7, 8, 7, 8]]);
        assert_eq!(oracle_min_faults(&wl, SimConfig::new(2, 1), CAP), Some(8));
    }

    #[test]
    fn makespan_objectives_on_known_instances() {
        // Fault at t=1 completes at 4; hits at 5, 6, 7.
        let wl = w(&[&[1, 1, 1, 1]]);
        let optima = oracle_optima(&wl, SimConfig::new(1, 3), CAP).unwrap();
        assert_eq!(optima.makespan, 7);
        // Aligned thrash: all 8 requests fault, each core issuing at
        // t = 1, 3, 5, 7, so the last completes at 8 on every schedule.
        let wl = w(&[&[1, 2, 1, 2], &[7, 8, 7, 8]]);
        let optima = oracle_optima(&wl, SimConfig::new(2, 1), CAP).unwrap();
        assert_eq!(optima.faults_then_makespan, (8, 8));
        assert_eq!(optima.makespan_then_faults, (8, 8));
    }

    #[test]
    fn pif_trivially_feasible_and_infeasible() {
        let wl = w(&[&[1, 2], &[7, 8]]);
        let cfg = SimConfig::new(4, 0);
        // Everything fits: cold misses only, bounds = 2 each at the end.
        assert_eq!(oracle_pif_feasible(&wl, cfg, 10, &[2, 2], CAP), Some(true));
        // No schedule avoids the cold miss at t = 1.
        assert_eq!(oracle_pif_feasible(&wl, cfg, 10, &[0, 2], CAP), Some(false));
    }

    #[test]
    fn sched_matches_no_sched_for_single_core() {
        let wl = w(&[&[1, 2, 3, 1, 2]]);
        let cfg = SimConfig::new(2, 1);
        let horizon = (wl.total_len() as u64 + 4) * (cfg.tau + 1) + 4;
        assert_eq!(
            oracle_sched_min_faults(&wl, cfg, horizon, CAP),
            oracle_min_faults(&wl, cfg, CAP)
        );
    }

    #[test]
    fn stalling_waits_out_a_shared_fetch() {
        // Core 1 wants the page core 0 is fetching: served at once it
        // joins the fetch (a fault); deferred until the fetch lands, it
        // hits. Without stalls both cores fault. The engine-driven search
        // must find the wait although core 0 has nothing left to serve.
        let wl = w(&[&[1], &[1]]);
        let cfg = SimConfig::new(2, 1);
        assert_eq!(oracle_min_faults(&wl, cfg, CAP), Some(2));
        assert_eq!(oracle_sched_min_faults(&wl, cfg, 10, CAP), Some(1));
        let search = mcp_offline::sched_min(&wl, cfg, Objective::Faults, 10, None, CAP);
        assert_eq!(search, Ok(1));
        // ... unless the horizon forbids the wait.
        assert_eq!(oracle_sched_min_faults(&wl, cfg, 2, CAP), Some(2));
        let search = mcp_offline::sched_min(&wl, cfg, Objective::Faults, 2, None, CAP);
        assert_eq!(search, Ok(2));
    }

    #[test]
    fn fixed_capacity_schedule_matches_plain_oracle() {
        let cases: &[(&[&[u32]], usize, u64)] = &[
            (&[&[1, 2, 3, 1, 2]], 2, 0),
            (&[&[1, 2, 1, 2], &[7, 8, 7, 8]], 2, 1),
            (&[&[1, 2, 3, 1], &[7, 8, 7]], 3, 2),
        ];
        for &(seqs, k, tau) in cases {
            let wl = w(seqs);
            let cfg = SimConfig::new(k, tau);
            let fixed = CapacitySchedule::fixed(k);
            assert_eq!(
                oracle_min_faults_with_capacity(&wl, cfg, &fixed, CAP),
                oracle_min_faults(&wl, cfg, CAP),
            );
        }
    }

    #[test]
    fn capacity_drop_forces_extra_faults() {
        // Single core, K=3, working set {1,2,3} fits — 3 cold faults and
        // the rest hit. Dropping to K=2 at t=4 forces OPT to shed a page
        // it still needs: strictly more than the fixed-K minimum.
        let wl = w(&[&[1, 2, 3, 1, 2, 3, 1, 2, 3]]);
        let cfg = SimConfig::new(3, 0);
        let fixed = oracle_min_faults(&wl, cfg, CAP).unwrap();
        assert_eq!(fixed, 3);
        let schedule: CapacitySchedule = "3,2@4".parse().unwrap();
        let dropped = oracle_min_faults_with_capacity(&wl, cfg, &schedule, CAP).unwrap();
        assert!(
            dropped > fixed,
            "capacity drop must cost OPT extra faults ({dropped} vs {fixed})"
        );
        // Best play: shed 3 at the drop (hit 1,2), then alternate —
        // fault 3 evicting 2, hit 1, fault 2 evicting the dead 1, hit 3.
        assert_eq!(dropped, 5);
    }

    #[test]
    fn harmless_drop_leaves_optimum_unchanged() {
        // Working set {1,2} fits in 2 cells, so dropping K from 3 to 2 at
        // t=3 never forces OPT to shed a live page: minimum unchanged.
        let wl = w(&[&[1, 2, 1, 2, 1, 2]]);
        let cfg = SimConfig::new(3, 0);
        let schedule: CapacitySchedule = "3,2@3".parse().unwrap();
        assert_eq!(
            oracle_min_faults_with_capacity(&wl, cfg, &schedule, CAP),
            oracle_min_faults(&wl, cfg, CAP),
        );
    }

    #[test]
    fn run_cap_trips_to_none() {
        let wl = w(&[&[1, 2, 3, 4, 1, 2, 3, 4], &[7, 8, 9, 7, 8, 9]]);
        assert_eq!(oracle_min_faults(&wl, SimConfig::new(3, 1), 10), None);
    }
}
