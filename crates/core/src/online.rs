//! Incremental (online) simulation: the engine behind `mcp serve`.
//!
//! [`OnlineSimulator`] is a thin front over the event engine
//! ([`crate::sim::Simulator`]) running on a workload it owns: requests
//! arrive one at a time via [`OnlineSimulator::push`], and the engine
//! commits timesteps as soon as — and only when — they can no longer be
//! affected by future arrivals. That safe-horizon rule is documented, and
//! implemented, in [`crate::sim`].
//!
//! Under the rule the committed trace is, at every moment, a prefix of the
//! offline run on whatever the final admitted log turns out to be. After
//! [`OnlineSimulator::close_all`] and a draining
//! [`OnlineSimulator::advance`], the fault counts, fault times and
//! makespan are **bit-identical** to [`crate::sim::simulate`] on the
//! recorded log — this is the serve layer's replay contract, and the
//! tests below pin it.
//!
//! A silent open core therefore throttles the horizon: nothing commits
//! until it receives work or closes. This is inherent to the model, not
//! an implementation artifact; the serve layer surfaces it as backlog.
//!
//! Strategies whose [`CacheStrategy::begin`] reads the full request
//! sequences (offline strategies: FITF, per-part Belady, the LRU-mimic
//! and sacrifice constructions) cannot run online — `begin` here sees
//! `p` empty sequences. The online-safe families (shared LRU/FIFO/CLOCK/
//! LFU/MRU/FWF/LRU-2/random/marking and uniform static partitions) ignore
//! the sequences in `begin`, which the serve replay tests and the
//! differential fuzz verify per strategy.

use crate::capacity::CapacitySchedule;
use crate::sim::{SimError, SimResult, Simulator};
use crate::strategy::CacheStrategy;
use crate::types::{PageId, SimConfig, Time, Workload};
use std::fmt;

/// Errors from feeding an [`OnlineSimulator`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OnlineError {
    /// The core index is out of range.
    UnknownCore {
        /// The offending core index.
        core: usize,
        /// Number of cores the engine was built with.
        cores: usize,
    },
    /// The core was already closed; its sequence is final.
    CoreClosed {
        /// The offending core index.
        core: usize,
    },
}

impl fmt::Display for OnlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnlineError::UnknownCore { core, cores } => {
                write!(f, "core {core} out of range (p = {cores})")
            }
            OnlineError::CoreClosed { core } => {
                write!(f, "core {core} is closed; cannot admit more requests")
            }
        }
    }
}

impl std::error::Error for OnlineError {}

/// The incremental engine: a [`Simulator`] whose workload grows via
/// [`OnlineSimulator::push`] and commits under the safe-horizon rule.
pub struct OnlineSimulator<S: CacheStrategy> {
    sim: Simulator<'static, S, Workload>,
}

impl<S: CacheStrategy> OnlineSimulator<S> {
    /// Create an engine for `num_cores` open cores. Calls the strategy's
    /// [`CacheStrategy::begin`] with `num_cores` empty sequences (see the
    /// module docs for which strategies that excludes).
    pub fn new(num_cores: usize, cfg: SimConfig, strategy: S) -> Result<Self, SimError> {
        OnlineSimulator::with_capacity(
            num_cores,
            cfg,
            CapacitySchedule::fixed(cfg.cache_size),
            strategy,
        )
    }

    /// [`OnlineSimulator::new`] with cache capacity following `capacity`
    /// (`mcp serve --capacity`). Same validation as
    /// [`Simulator::with_capacity`]; the replay contract extends verbatim:
    /// the finished result is bit-identical to
    /// [`crate::sim::simulate_with_capacity`] on the admitted log.
    pub fn with_capacity(
        num_cores: usize,
        cfg: SimConfig,
        capacity: CapacitySchedule,
        strategy: S,
    ) -> Result<Self, SimError> {
        Ok(OnlineSimulator {
            sim: Simulator::open(num_cores, cfg, capacity, strategy)?,
        })
    }

    /// Number of cores `p`.
    pub fn num_cores(&self) -> usize {
        self.sim.workload().num_cores()
    }

    /// Admit one request at the tail of `core`'s sequence.
    #[inline]
    pub fn push(&mut self, core: usize, page: PageId) -> Result<(), OnlineError> {
        self.sim.push(core, page)
    }

    /// Declare `core`'s sequence final: no more pushes, and the horizon
    /// stops waiting on it. Idempotent.
    pub fn close(&mut self, core: usize) -> Result<(), OnlineError> {
        self.sim.close(core)
    }

    /// Close every core (end of stream).
    pub fn close_all(&mut self) {
        self.sim.close_all();
    }

    /// Whether `core` is closed.
    pub fn is_closed(&self, core: usize) -> bool {
        self.sim.is_closed(core)
    }

    /// Requests served so far, per core.
    pub fn positions(&self) -> &[usize] {
        self.sim.positions()
    }

    /// Time at which each core's next request issues.
    pub fn ready_times(&self) -> &[Time] {
        self.sim.ready_times()
    }

    /// Faults so far, per core.
    pub fn faults(&self) -> &[u64] {
        self.sim.faults()
    }

    /// Hits so far, per core.
    pub fn hits(&self) -> &[u64] {
        self.sim.hits()
    }

    /// Issue times of the faults committed so far, per core, ascending.
    pub fn fault_times(&self) -> &[Vec<Time>] {
        self.sim.fault_times()
    }

    /// Completion time of the last request served so far.
    pub fn makespan(&self) -> Time {
        self.sim.makespan()
    }

    /// Admitted-but-unserved requests, total.
    pub fn backlog(&self) -> usize {
        self.admitted() - self.positions().iter().sum::<usize>()
    }

    /// Requests admitted so far, total.
    pub fn admitted(&self) -> usize {
        self.sim.workload().total_len()
    }

    /// `true` once every core is closed and every admitted request served.
    pub fn finished(&self) -> bool {
        self.sim.finished()
    }

    /// Commit every step the safe horizon allows. Returns the number of
    /// requests served; stopping with admitted backlog left (or with open
    /// starved cores) means more input — or closes — are needed before
    /// model time can progress.
    pub fn advance(&mut self) -> Result<usize, SimError> {
        self.sim.advance()
    }

    /// A copy of the admitted log as a [`Workload`] — the replay trace.
    pub fn admitted_log(&self) -> Workload {
        self.sim.workload().clone()
    }

    /// Consume the engine, returning the aggregate result and the admitted
    /// log. The result equals [`crate::sim::simulate`] on that log when
    /// the engine is [`OnlineSimulator::finished`]; callers wanting the
    /// replay contract should `close_all` + `advance` first.
    pub fn finish(self) -> (SimResult, Workload) {
        self.sim.into_parts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use crate::sim::simulate;

    /// Evict the lowest-indexed evictable cell.
    struct FirstFit;
    impl CacheStrategy for FirstFit {
        fn name(&self) -> String {
            "FirstFit".into()
        }
        fn choose_cell(&mut self, _c: usize, _p: PageId, _t: Time, cache: &Cache) -> usize {
            cache
                .empty_cell()
                .or_else(|| cache.evictable_cells().map(|(i, _, _)| i).next())
                .expect("victim exists when K >= p")
        }
    }

    /// Global-LRU over stamps, implemented locally so mcp-core's tests
    /// need no policies crate.
    #[derive(Default)]
    struct MiniLru {
        stamps: std::collections::HashMap<PageId, u64>,
        clock: u64,
    }
    impl MiniLru {
        fn touch(&mut self, page: PageId) {
            self.clock += 1;
            self.stamps.insert(page, self.clock);
        }
    }
    impl CacheStrategy for MiniLru {
        fn name(&self) -> String {
            "MiniLru".into()
        }
        fn on_hit(&mut self, _c: usize, page: PageId, _t: Time, _cell: usize, _cache: &Cache) {
            self.touch(page);
        }
        fn on_fault(&mut self, _c: usize, page: PageId, _t: Time, _cell: usize, _cache: &Cache) {
            self.touch(page);
        }
        fn on_shared_fetch_miss(
            &mut self,
            _c: usize,
            page: PageId,
            _t: Time,
            _cell: usize,
            _cache: &Cache,
        ) {
            self.touch(page);
        }
        fn on_evict(&mut self, page: PageId, _cell: usize) {
            self.stamps.remove(&page);
        }
        fn choose_cell(&mut self, _c: usize, _p: PageId, _t: Time, cache: &Cache) -> usize {
            if let Some(cell) = cache.empty_cell() {
                return cell;
            }
            let (cell, _, _) = cache
                .evictable_cells()
                .min_by_key(|(cell, p, _)| (self.stamps.get(p).copied().unwrap_or(0), *cell))
                .expect("cache full implies a victim");
            cell
        }
    }

    /// Flush-when-full with a declared voluntary flush time, to exercise
    /// the voluntary-eviction path online.
    struct Flusher {
        at: Time,
    }
    impl CacheStrategy for Flusher {
        fn name(&self) -> String {
            "Flusher".into()
        }
        fn choose_cell(&mut self, _c: usize, _p: PageId, _t: Time, cache: &Cache) -> usize {
            cache
                .empty_cell()
                .or_else(|| cache.evictable_cells().map(|(i, _, _)| i).next())
                .expect("victim exists")
        }
        fn next_voluntary_time(&self) -> Option<Time> {
            Some(self.at)
        }
        fn voluntary_evictions(&mut self, t: Time, cache: &Cache) -> Vec<usize> {
            if t == self.at {
                cache.evictable_cells().map(|(i, _, _)| i).collect()
            } else {
                Vec::new()
            }
        }
    }

    fn w(seqs: &[&[u32]]) -> Workload {
        Workload::from_u32(seqs.iter().map(|s| s.to_vec())).unwrap()
    }

    fn splitmix64(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Feed `workload` into an online engine under a seeded interleaving
    /// of pushes, closes and advances, then assert the finished result is
    /// bit-identical to the offline run.
    fn check_online<S: CacheStrategy>(
        workload: &Workload,
        cfg: SimConfig,
        offline: S,
        online: S,
        seed: u64,
    ) {
        let expect = simulate(workload, cfg, offline).unwrap();
        let mut eng = OnlineSimulator::new(workload.num_cores(), cfg, online).unwrap();
        let mut cursor = vec![0usize; workload.num_cores()];
        let mut rng = seed;
        loop {
            let open: Vec<usize> = (0..workload.num_cores())
                .filter(|&j| cursor[j] < workload.len(j))
                .collect();
            if open.is_empty() {
                break;
            }
            rng = splitmix64(rng);
            let j = open[(rng % open.len() as u64) as usize];
            // Push a random-length burst from core j, then sometimes advance.
            rng = splitmix64(rng);
            let burst = 1 + (rng % 3) as usize;
            for _ in 0..burst {
                if cursor[j] < workload.len(j) {
                    eng.push(j, workload.sequence(j)[cursor[j]]).unwrap();
                    cursor[j] += 1;
                }
            }
            rng = splitmix64(rng);
            if rng.is_multiple_of(2) {
                eng.advance().unwrap();
            }
        }
        eng.close_all();
        eng.advance().unwrap();
        assert!(eng.finished());
        let (got, log) = eng.finish();
        assert_eq!(&log, workload, "admitted log must equal the input");
        assert_eq!(got, expect, "online result diverged (seed {seed})");
    }

    #[test]
    fn matches_offline_firstfit_and_lru() {
        let cases = [
            (w(&[&[1, 2, 1, 2], &[7, 7, 8, 8]]), 3, 2),
            (w(&[&[1], &[1]]), 2, 4),
            (w(&[&[1, 2, 3, 1, 2, 3], &[7, 8, 7, 8]]), 4, 0),
            (
                w(&[&[1, 2, 3, 4, 1, 2, 3, 4], &[5, 6, 5, 6], &[9, 9, 9]]),
                5,
                3,
            ),
            (w(&[&[], &[]]), 2, 3),
        ];
        for (wl, k, tau) in cases {
            let cfg = SimConfig::new(k, tau);
            for seed in 0..8 {
                check_online(&wl, cfg, FirstFit, FirstFit, seed);
                check_online(
                    &wl,
                    cfg,
                    MiniLru::default(),
                    MiniLru::default(),
                    seed ^ 0xABCD,
                );
            }
        }
    }

    #[test]
    fn matches_offline_with_voluntary_evictions() {
        let wl = w(&[&[1, 2, 3, 1, 2, 3], &[7, 8, 7, 8]]);
        let cfg = SimConfig::new(4, 2);
        for at in [2, 5, 9] {
            for seed in 0..4 {
                check_online(&wl, cfg, Flusher { at }, Flusher { at }, seed);
            }
        }
    }

    #[test]
    fn randomized_interleavings_large() {
        // A bigger seeded instance: 3 cores, overlapping pages so the
        // shared-fetch-miss path fires under tau > 0.
        let mut seqs: Vec<Vec<u32>> = vec![Vec::new(); 3];
        let mut rng = 0xfeed_beefu64;
        for seq in &mut seqs {
            for _ in 0..120 {
                rng = splitmix64(rng);
                seq.push((rng % 12) as u32);
            }
        }
        let wl = Workload::from_u32(seqs).unwrap();
        let cfg = SimConfig::new(6, 3);
        for seed in 0..6 {
            check_online(&wl, cfg, MiniLru::default(), MiniLru::default(), seed);
        }
    }

    #[test]
    fn horizon_blocks_on_silent_open_core() {
        let mut eng = OnlineSimulator::new(2, SimConfig::new(2, 1), FirstFit).unwrap();
        eng.push(0, PageId(1)).unwrap();
        eng.push(0, PageId(2)).unwrap();
        // Core 1 is open and starved with ready = 1 <= any candidate t:
        // nothing may commit yet.
        assert_eq!(eng.advance().unwrap(), 0);
        assert_eq!(eng.backlog(), 2);
        // Closing core 1 releases the horizon.
        eng.close(1).unwrap();
        assert_eq!(eng.advance().unwrap(), 2);
        assert_eq!(eng.backlog(), 0);
        assert!(!eng.finished(), "core 0 still open");
        eng.close_all();
        assert!(eng.finished());
    }

    /// Drain `eng` and assert its result equals the offline run on its
    /// admitted log.
    fn drains_to_offline<S: CacheStrategy>(
        mut eng: OnlineSimulator<S>,
        cfg: SimConfig,
        offline: S,
    ) {
        eng.close_all();
        eng.advance().unwrap();
        assert!(eng.finished());
        let (got, log) = eng.finish();
        assert_eq!(got, simulate(&log, cfg, offline).unwrap());
    }

    #[test]
    fn core_whose_last_request_faults_is_refilled_after_its_fetch() {
        // τ = 2. Core 0's only admitted request faults at t = 1; its
        // wake-up stays queued at t = 4 and holds the horizon there.
        let mut eng = OnlineSimulator::new(2, SimConfig::new(3, 2), FirstFit).unwrap();
        eng.push(0, PageId(1)).unwrap();
        for _ in 0..5 {
            eng.push(1, PageId(7)).unwrap();
        }
        eng.advance().unwrap();
        assert_eq!(eng.positions(), &[1, 1], "t = 4 waits for core 0");
        // The refill issues at t = 4, after the fetch completed: a hit.
        eng.push(0, PageId(1)).unwrap();
        eng.advance().unwrap();
        assert_eq!(eng.positions(), &[2, 2], "t = 5 waits for core 0 again");
        assert_eq!((eng.faults()[0], eng.hits()[0]), (1, 1));
        drains_to_offline(eng, SimConfig::new(3, 2), FirstFit);
    }

    #[test]
    fn core_whose_last_request_hits_is_refilled() {
        // τ = 2. Core 0's last admitted request hits at t = 4, so its
        // wake-up waits at t = 5 in the next-step list.
        let mut eng = OnlineSimulator::new(2, SimConfig::new(3, 2), FirstFit).unwrap();
        eng.push(0, PageId(1)).unwrap();
        eng.push(0, PageId(1)).unwrap();
        for _ in 0..6 {
            eng.push(1, PageId(7)).unwrap();
        }
        eng.advance().unwrap();
        assert_eq!(eng.positions(), &[2, 2], "t = 5 waits for core 0");
        // The refill faults at t = 5; core 0 then holds the horizon at 8.
        eng.push(0, PageId(2)).unwrap();
        eng.advance().unwrap();
        assert_eq!(eng.positions(), &[3, 5]);
        assert_eq!(eng.fault_times()[0], vec![1, 5]);
        drains_to_offline(eng, SimConfig::new(3, 2), FirstFit);
    }

    #[test]
    fn starved_core_closed_with_its_wake_up_queued() {
        // τ = 2. Core 0's fetch of page 1 (t = 1) rides its wake-up at
        // t = 4, where core 0 is starved. Closed, the wake-up is dead: it
        // releases the horizon and still completes the fetch, so core 1's
        // request for page 1 at t = 5 hits.
        let mut eng = OnlineSimulator::new(2, SimConfig::new(3, 2), FirstFit).unwrap();
        eng.push(0, PageId(1)).unwrap();
        for page in [5, 5, 1] {
            eng.push(1, PageId(page)).unwrap();
        }
        assert_eq!(eng.advance().unwrap(), 2);
        eng.close(0).unwrap();
        assert_eq!(eng.advance().unwrap(), 2);
        assert_eq!(eng.hits(), &[0, 2]);
        assert_eq!(eng.fault_times(), &[vec![1], vec![1]]);
        drains_to_offline(eng, SimConfig::new(3, 2), FirstFit);
    }

    #[test]
    fn voluntary_time_before_a_starved_core_commits_and_at_it_waits() {
        // τ = 2. Core 0 faults at t = 1 and t = 4, then is starved with
        // its wake-up at t = 7. Core 1 hits at 4, faults at 5 and has no
        // work before t = 8. Pages 1 and 2 are resident from t = 4.
        // Today's gate is kept exactly: a voluntary step before t = 7
        // commits (no request pushed later can issue before 7); one at
        // t = 7 waits, since core 0 may yet be served in that step.
        for (at, committed) in [(6, true), (7, false)] {
            let mut eng = OnlineSimulator::new(2, SimConfig::new(4, 2), Flusher { at }).unwrap();
            for page in [1, 4] {
                eng.push(0, PageId(page)).unwrap();
            }
            for page in [2, 2, 3, 2] {
                eng.push(1, PageId(page)).unwrap();
            }
            assert_eq!(eng.advance().unwrap(), 5);
            // The flush at 6 evicts pages 1 and 2; pages 4 and 3 are still
            // in flight.
            let occupied = if committed { 2 } else { 4 };
            assert_eq!(eng.sim.cache().occupied(), occupied, "flush at {at}");
            eng.push(0, PageId(1)).unwrap();
            drains_to_offline(eng, SimConfig::new(4, 2), Flusher { at });
        }
    }

    #[test]
    fn partial_commits_are_prefixes() {
        // Serving as input arrives must never overcommit: after each
        // advance the served prefix agrees with the final offline run.
        let wl = w(&[&[1, 2, 3, 1, 2, 3], &[7, 8, 9, 7, 8, 9]]);
        let cfg = SimConfig::new(4, 2);
        let expect = simulate(&wl, cfg, MiniLru::default()).unwrap();
        let mut eng = OnlineSimulator::new(2, cfg, MiniLru::default()).unwrap();
        for i in 0..6 {
            eng.push(0, wl.sequence(0)[i]).unwrap();
            eng.push(1, wl.sequence(1)[i]).unwrap();
            eng.advance().unwrap();
            for core in 0..2 {
                let n = eng.fault_times()[core].len();
                assert_eq!(
                    eng.fault_times()[core],
                    expect.fault_times[core][..n],
                    "fault-time prefix diverged at i={i} core={core}"
                );
            }
        }
        eng.close_all();
        eng.advance().unwrap();
        let (got, _) = eng.finish();
        assert_eq!(got, expect);
    }

    #[test]
    fn push_and_close_are_guarded() {
        let mut eng = OnlineSimulator::new(2, SimConfig::new(2, 0), FirstFit).unwrap();
        assert!(matches!(
            eng.push(5, PageId(1)),
            Err(OnlineError::UnknownCore { core: 5, cores: 2 })
        ));
        eng.close(0).unwrap();
        assert!(matches!(
            eng.push(0, PageId(1)),
            Err(OnlineError::CoreClosed { core: 0 })
        ));
        assert!(eng.close(9).is_err());
        // Errors render.
        assert!(OnlineError::CoreClosed { core: 0 }
            .to_string()
            .contains("closed"));
        assert!(OnlineError::UnknownCore { core: 5, cores: 2 }
            .to_string()
            .contains("out of range"));
    }

    #[test]
    fn capacity_replay_matches_offline() {
        // The replay contract under a capacity schedule: pushing the
        // workload through in seeded interleavings and finishing must be
        // bit-identical to the offline capacity run on the same log.
        let wl = w(&[&[1, 2, 3, 1, 2, 3, 1, 2], &[7, 8, 9, 7, 8, 9, 7, 8]]);
        let cfg = SimConfig::new(5, 2);
        for spec in ["5,3@4", "5,2@3,5@9", "5,4@2,3@6,2@11"] {
            let cap: CapacitySchedule = spec.parse().unwrap();
            let expect =
                crate::sim::simulate_with_capacity(&wl, cfg, cap.clone(), MiniLru::default())
                    .unwrap();
            for seed in 0..6u64 {
                let mut eng = OnlineSimulator::with_capacity(
                    wl.num_cores(),
                    cfg,
                    cap.clone(),
                    MiniLru::default(),
                )
                .unwrap();
                let mut cursor = vec![0usize; wl.num_cores()];
                let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) + 1;
                loop {
                    let open: Vec<usize> = (0..wl.num_cores())
                        .filter(|&j| cursor[j] < wl.len(j))
                        .collect();
                    if open.is_empty() {
                        break;
                    }
                    rng = splitmix64(rng);
                    let j = open[(rng % open.len() as u64) as usize];
                    eng.push(j, wl.sequence(j)[cursor[j]]).unwrap();
                    cursor[j] += 1;
                    rng = splitmix64(rng);
                    if rng.is_multiple_of(2) {
                        eng.advance().unwrap();
                    }
                }
                eng.close_all();
                eng.advance().unwrap();
                assert!(eng.finished());
                let (got, log) = eng.finish();
                assert_eq!(&log, &wl);
                assert_eq!(
                    got, expect,
                    "capacity online diverged (cap {spec} seed {seed})"
                );
            }
        }
    }

    #[test]
    fn capacity_change_respects_horizon() {
        // A pending capacity drop must not commit while a starved open
        // core could still receive a request issuing at or before it.
        let cap: CapacitySchedule = "3,2@2".parse().unwrap();
        let mut eng =
            OnlineSimulator::with_capacity(2, SimConfig::new(3, 0), cap, FirstFit).unwrap();
        eng.push(0, PageId(1)).unwrap();
        eng.push(0, PageId(2)).unwrap();
        eng.push(0, PageId(3)).unwrap();
        // Core 1 open and starved: nothing commits, including the t=2 drop.
        assert_eq!(eng.advance().unwrap(), 0);
        eng.close(1).unwrap();
        assert_eq!(eng.advance().unwrap(), 3);
        // After the drop to 2, only two cells may be occupied.
        assert!(eng.sim.cache().occupied() <= 2);
    }

    #[test]
    fn empty_run_finishes_clean() {
        let mut eng = OnlineSimulator::new(3, SimConfig::new(3, 2), FirstFit).unwrap();
        eng.close_all();
        assert_eq!(eng.advance().unwrap(), 0);
        assert!(eng.finished());
        let (r, log) = eng.finish();
        assert_eq!(r.total_faults(), 0);
        assert_eq!(r.makespan, 0);
        assert!(log.is_empty());
    }
}
