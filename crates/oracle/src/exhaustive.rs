//! Tiny-scale exhaustive offline oracles: brute-force searches over every
//! eviction (and, for PIF, voluntary-eviction; for the scheduling model,
//! stalling) choice, written with cloned `Vec`/`HashSet` states and zero
//! cleverness. They re-derive the answers of `mcp_offline`'s `ftf_dp`,
//! `pif_decide`, `sched_min` and engine-driven brute-force searches from
//! nothing but the model rules, so the dynamic programs and searches are
//! checked against an independent transcription instead of their own
//! recorded fingerprints.
//!
//! Exponential in every direction — feed these single-digit-length
//! instances only. Every entry point takes a node cap and returns `None`
//! when it trips, so callers simply skip the cross-check on instances that
//! turn out too large.

use mcp_core::{CapacitySchedule, PageId, SimConfig, Time, Workload};
use std::collections::HashSet;

/// The full model state between timesteps, cloned at every branch.
#[derive(Clone, Debug)]
struct State {
    /// Next request index per core.
    pos: Vec<usize>,
    /// Issue time of each core's next request.
    ready: Vec<Time>,
    /// Resident pages (readable by every core).
    resident: Vec<PageId>,
    /// In-flight fetches: `(page, time at which it becomes resident)`.
    in_flight: Vec<(PageId, Time)>,
    /// Total faults so far.
    faults: u64,
    /// Completion time of the last request served so far: a hit at `t`
    /// completes at `t`, a fault at `t + τ` (read by [`Goal`] only).
    completion: Time,
    /// Per-core faults issued at or before the PIF checkpoint.
    faults_at_cp: Vec<u64>,
    /// Capacity limit currently in force (`K(t)` after the changes applied
    /// so far; constant `cfg.cache_size` for fixed-capacity searches).
    limit: usize,
    /// Number of capacity-schedule changes already applied.
    cap_idx: usize,
}

impl State {
    fn initial(p: usize, limit: usize) -> State {
        State {
            pos: vec![0; p],
            ready: vec![1; p],
            resident: Vec::new(),
            in_flight: Vec::new(),
            faults: 0,
            completion: 0,
            faults_at_cp: vec![0; p],
            limit,
            cap_idx: 0,
        }
    }

    /// Earliest time any unfinished core issues, if any.
    fn next_event(&self, w: &Workload) -> Option<Time> {
        (0..w.num_cores())
            .filter(|&c| self.pos[c] < w.len(c))
            .map(|c| self.ready[c])
            .min()
    }

    /// Make every fetch completed by `now` resident.
    fn promote(&mut self, now: Time) {
        let (done, pending): (Vec<_>, Vec<_>) = self.in_flight.iter().partition(|(_, r)| *r <= now);
        self.resident.extend(done.into_iter().map(|(p, _)| p));
        self.in_flight = pending;
    }

    /// Cores issuing a request at `t`, in increasing core order.
    fn due(&self, w: &Workload, t: Time) -> Vec<usize> {
        (0..w.num_cores())
            .filter(|&c| self.pos[c] < w.len(c) && self.ready[c] == t)
            .collect()
    }

    /// Pages requested by the due cores at `t` (the pinned set `R(t)`).
    fn requested(&self, w: &Workload, due: &[usize]) -> HashSet<PageId> {
        due.iter().map(|&c| w.sequence(c)[self.pos[c]]).collect()
    }

    fn occupied(&self) -> usize {
        self.resident.len() + self.in_flight.len()
    }

    /// `true` iff `page` appears in some core's remaining requests.
    fn requested_later(&self, w: &Workload, page: PageId) -> bool {
        (0..w.num_cores()).any(|c| w.sequence(c)[self.pos[c]..].contains(&page))
    }
}

// ---------------------------------------------------------------------------
// FINAL-TOTAL-FAULTS: minimum total faults over all victim choices.
// Honest (lazy) service is optimal for this objective (paper, Theorem 4),
// so the search branches over victims only. The same search minimizes
// makespan and the two lexicographic orders over the honest lazy
// schedules, the class `mcp_offline`'s brute-force searches explore.
// ---------------------------------------------------------------------------

/// What [`MinScore`] minimizes, compared as a `(primary, secondary)` pair.
#[derive(Clone, Copy)]
enum Goal {
    Faults,
    Makespan,
    FaultsThenMakespan,
    MakespanThenFaults,
}

impl Goal {
    fn key(self, st: &State) -> (u64, u64) {
        match self {
            Goal::Faults => (st.faults, 0),
            Goal::Makespan => (st.completion, 0),
            Goal::FaultsThenMakespan => (st.faults, st.completion),
            Goal::MakespanThenFaults => (st.completion, st.faults),
        }
    }
}

struct MinScore<'w> {
    w: &'w Workload,
    cfg: SimConfig,
    capacity: &'w CapacitySchedule,
    goal: Goal,
    best: (u64, u64),
    nodes: usize,
    cap: usize,
    tripped: bool,
}

impl MinScore<'_> {
    /// `true` iff `st` can no longer beat the incumbent (both objectives
    /// only grow along a schedule).
    fn pruned(&self, st: &State) -> bool {
        self.tripped || self.goal.key(st) >= self.best
    }

    fn at_time(&mut self, mut st: State) {
        if self.pruned(&st) {
            return;
        }
        let Some(mut t) = st.next_event(self.w) else {
            self.best = self.best.min(self.goal.key(&st));
            return;
        };
        // A capacity change before the next request is itself an event:
        // the forced shrink evictions happen at the change time, not when
        // the next request arrives.
        let changes = self.capacity.changes();
        if let Some(&(ct, _)) = changes.get(st.cap_idx) {
            if ct < t {
                t = ct;
            }
        }
        st.promote(t);
        while st.cap_idx < changes.len() && changes[st.cap_idx].0 <= t {
            st.limit = changes[st.cap_idx].1;
            st.cap_idx += 1;
        }
        let due = st.due(self.w, t);
        let pinned = st.requested(self.w, &due);
        self.shrink(st, t, &due, &pinned, 0);
    }

    /// Branch over every way of evicting down to the limit after a
    /// capacity drop (the offline algorithm chooses the shrink victims
    /// too). `start` enforces increasing-index victim choice so each
    /// victim *set* is tried exactly once. No-op when within the limit.
    fn shrink(
        &mut self,
        st: State,
        t: Time,
        due: &[usize],
        pinned: &HashSet<PageId>,
        start: usize,
    ) {
        if self.pruned(&st) {
            return;
        }
        if st.occupied() <= st.limit {
            self.serve(st, t, due, 0, pinned);
            return;
        }
        for v in start..st.resident.len() {
            if pinned.contains(&st.resident[v]) {
                continue;
            }
            let mut next = st.clone();
            next.resident.remove(v);
            self.shrink(next, t, due, pinned, v);
        }
        // Over the limit with nothing evictable (all pinned/in-flight)
        // cannot happen while K(t) ≥ p; falling through prunes the branch.
    }

    fn serve(&mut self, mut st: State, t: Time, due: &[usize], i: usize, pinned: &HashSet<PageId>) {
        self.nodes += 1;
        if self.nodes > self.cap {
            self.tripped = true;
        }
        if self.pruned(&st) {
            return;
        }
        let Some(&core) = due.get(i) else {
            self.at_time(st);
            return;
        };
        let page = self.w.sequence(core)[st.pos[core]];
        st.pos[core] += 1;
        if st.resident.contains(&page) {
            st.ready[core] = t + 1; // hit
            st.completion = st.completion.max(t);
            self.serve(st, t, due, i + 1, pinned);
        } else if st.in_flight.iter().any(|(p, _)| *p == page) {
            st.faults += 1; // shared-fetch join: fault, no new cell
            st.ready[core] = t + self.cfg.tau + 1;
            st.completion = st.completion.max(t + self.cfg.tau);
            self.serve(st, t, due, i + 1, pinned);
        } else {
            st.faults += 1;
            st.ready[core] = t + self.cfg.tau + 1;
            st.completion = st.completion.max(t + self.cfg.tau);
            if st.occupied() < st.limit {
                st.in_flight.push((page, t + self.cfg.tau + 1));
                self.serve(st, t, due, i + 1, pinned);
            } else {
                // Branch over every legal victim: resident and not read
                // this parallel step. In-flight cells are never victims.
                for v in 0..st.resident.len() {
                    if pinned.contains(&st.resident[v]) {
                        continue;
                    }
                    let mut next = st.clone();
                    next.resident.swap_remove(v);
                    next.in_flight.push((page, t + self.cfg.tau + 1));
                    self.serve(next, t, due, i + 1, pinned);
                }
            }
        }
    }
}

/// Exhaustive minimum total faults, or `None` if the search exceeded
/// `max_nodes`. Cross-checks [`mcp_offline::ftf_min_faults`].
pub fn oracle_min_faults(w: &Workload, cfg: SimConfig, max_nodes: usize) -> Option<u64> {
    let capacity = CapacitySchedule::fixed(cfg.cache_size);
    oracle_min_faults_with_capacity(w, cfg, &capacity, max_nodes)
}

/// Exhaustive minimum total faults under a dynamic capacity schedule
/// `K(t)`, or `None` if the search exceeded `max_nodes`. The search
/// branches over fault victims *and* over which pages to shed at each
/// capacity drop, so it lower-bounds every honest strategy under the
/// schedule — the K(t)-aware ground truth behind experiment X05.
pub fn oracle_min_faults_with_capacity(
    w: &Workload,
    cfg: SimConfig,
    capacity: &CapacitySchedule,
    max_nodes: usize,
) -> Option<u64> {
    assert_eq!(
        capacity.initial_k(),
        cfg.cache_size,
        "capacity schedule must start at the configured cache size"
    );
    assert!(
        capacity.min_k() >= w.num_cores(),
        "capacity schedule must keep K(t) >= p"
    );
    optimum(w, cfg, capacity, Goal::Faults, max_nodes).map(|(faults, _)| faults)
}

/// Exhaustive minimum makespan (completion time of the last request) over
/// honest lazy schedules, or `None` if the search exceeded `max_nodes`.
/// Cross-checks [`mcp_offline::brute_force_min_makespan`].
pub fn oracle_min_makespan(w: &Workload, cfg: SimConfig, max_nodes: usize) -> Option<u64> {
    let capacity = CapacitySchedule::fixed(cfg.cache_size);
    optimum(w, cfg, &capacity, Goal::Makespan, max_nodes).map(|(makespan, _)| makespan)
}

/// Exhaustive lexicographic optimum `(faults, makespan)`, or `None` if the
/// search exceeded `max_nodes`. Cross-checks
/// [`mcp_offline::brute_force_faults_then_makespan`].
pub fn oracle_faults_then_makespan(
    w: &Workload,
    cfg: SimConfig,
    max_nodes: usize,
) -> Option<(u64, u64)> {
    let capacity = CapacitySchedule::fixed(cfg.cache_size);
    optimum(w, cfg, &capacity, Goal::FaultsThenMakespan, max_nodes)
}

/// Exhaustive lexicographic optimum `(makespan, faults)`, or `None` if the
/// search exceeded `max_nodes`. Cross-checks
/// [`mcp_offline::brute_force_makespan_then_faults`].
pub fn oracle_makespan_then_faults(
    w: &Workload,
    cfg: SimConfig,
    max_nodes: usize,
) -> Option<(u64, u64)> {
    let capacity = CapacitySchedule::fixed(cfg.cache_size);
    optimum(w, cfg, &capacity, Goal::MakespanThenFaults, max_nodes)
}

fn optimum(
    w: &Workload,
    cfg: SimConfig,
    capacity: &CapacitySchedule,
    goal: Goal,
    max_nodes: usize,
) -> Option<(u64, u64)> {
    let mut search = MinScore {
        w,
        cfg,
        capacity,
        goal,
        best: (u64::MAX, u64::MAX),
        nodes: 0,
        cap: max_nodes,
        tripped: false,
    };
    search.at_time(State::initial(w.num_cores(), cfg.cache_size));
    (!search.tripped).then_some(search.best)
}

// ---------------------------------------------------------------------------
// PARTIAL-INDIVIDUAL-FAULTS: can the workload be served so that core j has
// faulted at most bounds[j] times by the checkpoint? Unlike FTF, honesty is
// NOT known to be WLOG here — deliberately evicting a page (slowing one
// core within its bound) can save another core a fault. Every voluntary
// eviction is equivalent to dropping pages in the transition into the next
// event step (contents are unobservable between events), so the search
// additionally branches over drop subsets before serving each step.
// ---------------------------------------------------------------------------

struct Pif<'w> {
    w: &'w Workload,
    cfg: SimConfig,
    checkpoint: Time,
    bounds: &'w [u64],
    found: bool,
    nodes: usize,
    cap: usize,
    tripped: bool,
}

impl Pif<'_> {
    fn at_time(&mut self, mut st: State) {
        if self.found || self.tripped {
            return;
        }
        let Some(t) = st.next_event(self.w) else {
            self.found = true; // everything served within bounds
            return;
        };
        if t > self.checkpoint {
            self.found = true; // no fault at ≤ checkpoint can still occur
            return;
        }
        st.promote(t);
        let due = st.due(self.w, t);
        let pinned = st.requested(self.w, &due);
        // Droppable pages: resident, not requested this step, and requested
        // again later (dropping a never-reused page changes nothing).
        let droppable: Vec<usize> = (0..st.resident.len())
            .filter(|&v| {
                !pinned.contains(&st.resident[v]) && st.requested_later(self.w, st.resident[v])
            })
            .collect();
        for mask in 0..(1usize << droppable.len()) {
            let mut next = st.clone();
            // Remove highest indices first so earlier indices stay valid.
            for (bit, &v) in droppable.iter().enumerate().rev() {
                if mask >> bit & 1 == 1 {
                    next.resident.swap_remove(v);
                }
            }
            self.serve(next, t, &due, 0, &pinned);
            if self.found || self.tripped {
                return;
            }
        }
    }

    fn serve(&mut self, mut st: State, t: Time, due: &[usize], i: usize, pinned: &HashSet<PageId>) {
        self.nodes += 1;
        if self.nodes > self.cap {
            self.tripped = true;
        }
        if self.found || self.tripped {
            return;
        }
        let Some(&core) = due.get(i) else {
            self.at_time(st);
            return;
        };
        let page = self.w.sequence(core)[st.pos[core]];
        st.pos[core] += 1;
        let fault = |st: &mut State| -> bool {
            st.faults += 1;
            if t <= self.checkpoint {
                st.faults_at_cp[core] += 1;
            }
            st.ready[core] = t + self.cfg.tau + 1;
            st.faults_at_cp[core] <= self.bounds[core]
        };
        if st.resident.contains(&page) {
            st.ready[core] = t + 1;
            self.serve(st, t, due, i + 1, pinned);
        } else if st.in_flight.iter().any(|(p, _)| *p == page) {
            if fault(&mut st) {
                self.serve(st, t, due, i + 1, pinned);
            }
        } else {
            if !fault(&mut st) {
                return;
            }
            if st.occupied() < self.cfg.cache_size {
                st.in_flight.push((page, t + self.cfg.tau + 1));
                self.serve(st, t, due, i + 1, pinned);
            } else {
                for v in 0..st.resident.len() {
                    if pinned.contains(&st.resident[v]) {
                        continue;
                    }
                    let mut next = st.clone();
                    next.resident.swap_remove(v);
                    next.in_flight.push((page, t + self.cfg.tau + 1));
                    self.serve(next, t, due, i + 1, pinned);
                    if self.found || self.tripped {
                        return;
                    }
                }
            }
        }
    }
}

/// Exhaustive PARTIAL-INDIVIDUAL-FAULTS decision, or `None` if the search
/// exceeded `max_nodes`. Cross-checks [`mcp_offline::pif_decide`].
pub fn oracle_pif_feasible(
    w: &Workload,
    cfg: SimConfig,
    checkpoint: Time,
    bounds: &[u64],
    max_nodes: usize,
) -> Option<bool> {
    assert_eq!(bounds.len(), w.num_cores());
    let mut search = Pif {
        w,
        cfg,
        checkpoint,
        bounds,
        found: false,
        nodes: 0,
        cap: max_nodes,
        tripped: false,
    };
    search.at_time(State::initial(w.num_cores(), cfg.cache_size));
    if search.found {
        Some(true) // a witness is a witness, even if the cap tripped later
    } else {
        (!search.tripped).then_some(false)
    }
}

// ---------------------------------------------------------------------------
// The scheduling-capable model (Hassidim's): at every timestep any due core
// may be stalled for one tick instead of served. Mirrors the model of
// `mcp_offline::sched_min`: pins accumulate in serve order (a page is
// protected once a core already chose to read it this step), in-flight
// cells are never victims.
// ---------------------------------------------------------------------------

struct Sched<'w> {
    w: &'w Workload,
    cfg: SimConfig,
    horizon: Time,
    best: u64,
    nodes: usize,
    cap: usize,
    tripped: bool,
}

impl Sched<'_> {
    fn at_time(&mut self, mut st: State) {
        if self.tripped || st.faults >= self.best {
            return;
        }
        let Some(t) = st.next_event(self.w) else {
            self.best = self.best.min(st.faults);
            return;
        };
        if t > self.horizon {
            return;
        }
        st.promote(t);
        let due = st.due(self.w, t);
        self.serve(st, t, &due, 0, HashSet::new());
    }

    fn serve(&mut self, mut st: State, t: Time, due: &[usize], i: usize, pinned: HashSet<PageId>) {
        self.nodes += 1;
        if self.nodes > self.cap {
            self.tripped = true;
        }
        if self.tripped || st.faults >= self.best {
            return;
        }
        let Some(&core) = due.get(i) else {
            self.at_time(st);
            return;
        };

        // Option A: stall this core for one timestep (the scheduling power).
        let mut stalled = st.clone();
        stalled.ready[core] = t + 1;
        self.serve(stalled, t, due, i + 1, pinned.clone());

        // Option B: serve it.
        let page = self.w.sequence(core)[st.pos[core]];
        st.pos[core] += 1;
        if st.resident.contains(&page) {
            st.ready[core] = t + 1;
            let mut pinned = pinned;
            pinned.insert(page);
            self.serve(st, t, due, i + 1, pinned);
        } else if st.in_flight.iter().any(|(p, _)| *p == page) {
            st.faults += 1; // join the in-flight fetch (it cannot be evicted)
            st.ready[core] = t + self.cfg.tau + 1;
            self.serve(st, t, due, i + 1, pinned);
        } else {
            st.faults += 1;
            st.ready[core] = t + self.cfg.tau + 1;
            let mut pinned = pinned;
            pinned.insert(page);
            if st.occupied() < self.cfg.cache_size {
                st.in_flight.push((page, t + self.cfg.tau + 1));
                self.serve(st, t, due, i + 1, pinned);
            } else {
                for v in 0..st.resident.len() {
                    if pinned.contains(&st.resident[v]) {
                        continue;
                    }
                    let mut next = st.clone();
                    next.resident.swap_remove(v);
                    next.in_flight.push((page, t + self.cfg.tau + 1));
                    self.serve(next, t, due, i + 1, pinned.clone());
                }
            }
        }
    }
}

/// Exhaustive minimum total faults in the scheduling-capable model, or
/// `None` if the search exceeded `max_nodes` or no schedule completed
/// within `horizon`. Cross-checks [`mcp_offline::sched_min`].
pub fn oracle_sched_min_faults(
    w: &Workload,
    cfg: SimConfig,
    horizon: Time,
    max_nodes: usize,
) -> Option<u64> {
    let mut search = Sched {
        w,
        cfg,
        horizon,
        best: u64::MAX,
        nodes: 0,
        cap: max_nodes,
        tripped: false,
    };
    search.at_time(State::initial(w.num_cores(), cfg.cache_size));
    (!search.tripped && search.best != u64::MAX).then_some(search.best)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(oracle_min_makespan(&wl, SimConfig::new(1, 3), CAP), Some(7));
        // Aligned thrash: all 8 requests fault, each core issuing at
        // t = 1, 3, 5, 7, so the last completes at 8 on every schedule.
        let wl = w(&[&[1, 2, 1, 2], &[7, 8, 7, 8]]);
        let cfg = SimConfig::new(2, 1);
        assert_eq!(oracle_faults_then_makespan(&wl, cfg, CAP), Some((8, 8)));
        assert_eq!(oracle_makespan_then_faults(&wl, cfg, CAP), Some((8, 8)));
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
    fn node_cap_trips_to_none() {
        let wl = w(&[&[1, 2, 3, 4, 1, 2, 3, 4], &[7, 8, 9, 7, 8, 9]]);
        assert_eq!(oracle_min_faults(&wl, SimConfig::new(3, 1), 10), None);
    }
}
