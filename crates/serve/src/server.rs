//! The serve driver: one thread that drains the admission queues in
//! batches, feeds the [`OnlineSimulator`], and emits periodic metrics
//! snapshots.
//!
//! Producers (socket decoder threads, in-process clients) hold a cloned
//! [`QueueSet`] and never touch the engine; the driver owns the unique
//! [`Consumer`] and the engine, so the simulation itself is single-
//! threaded and deterministic. With a deterministic producer (the seeded
//! `mcp serve` mode pushes via [`QueueSet::offer_blocking`], which never
//! drops), the admitted log — and therefore every fault count and fault
//! time — is bit-identical run to run and independent of `--jobs`,
//! drain batching, and snapshot cadence. The replay log the driver
//! writes on shutdown pipes straight into `mcp simulate -`.

use crate::metrics::Snapshot;
use crate::queue::{Consumer, Discipline, QueueSet, QueueTotals};
use crate::ring::Msg;
use crate::transport::{read_frame, Frame};
use mcp_analysis::fairness;
use mcp_analysis::stats::QuantileSketch;
use mcp_core::online::OnlineSimulator;
use mcp_core::{CacheStrategy, PageId, SimConfig, SimError, SimResult, Workload};
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Read};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A boxed strategy as the CLI hands it to [`Server::new`].
pub type BoxedStrategy = Box<dyn CacheStrategy + Send>;

/// Errors from building or running a server.
#[derive(Debug)]
pub enum ServeError {
    /// The underlying simulation rejected the configuration or a step.
    Sim(SimError),
    /// Writing the replay log failed.
    Io(io::Error),
    /// The serve configuration itself is unusable.
    Config(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Sim(e) => write!(f, "simulation error: {e}"),
            ServeError::Io(e) => write!(f, "replay-log write failed: {e}"),
            ServeError::Config(msg) => write!(f, "bad serve configuration: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SimError> for ServeError {
    fn from(e: SimError) -> Self {
        ServeError::Sim(e)
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Configuration for a serve run.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Number of engine cores `p`.
    pub cores: usize,
    /// The paper-model parameters (cache size `K`, fault penalty `τ`).
    pub sim: SimConfig,
    /// Queue discipline ([`Discipline::Cfcfs`] or [`Discipline::Dfcfs`]).
    pub discipline: Discipline,
    /// Per-ring capacity (rounded up to a power of two).
    pub depth: usize,
    /// Maximum messages drained per driver iteration.
    pub batch: usize,
    /// Emit a snapshot at least this often (`None`: final snapshot only).
    pub snapshot_every: Option<Duration>,
    /// Where to write the admitted log on shutdown.
    pub replay_log: Option<PathBuf>,
    /// Dynamic cache capacity `K(t)` (`None`: fixed at `sim.cache_size`).
    /// The replay contract extends verbatim: the finished result is
    /// bit-identical to `mcp_core::sim::simulate_with_capacity` on the
    /// admitted log under the same schedule.
    pub capacity: Option<mcp_core::CapacitySchedule>,
}

impl ServeConfig {
    /// A config with serving defaults: dFCFS, depth 1024, batch 256,
    /// final snapshot only.
    pub fn new(cores: usize, sim: SimConfig) -> Self {
        ServeConfig {
            cores,
            sim,
            discipline: Discipline::Dfcfs,
            depth: 1024,
            batch: 256,
            snapshot_every: None,
            replay_log: None,
            capacity: None,
        }
    }
}

/// What a finished run hands back.
#[derive(Debug)]
pub struct ServeReport {
    /// The aggregate simulation result (bit-identical to
    /// `mcp_core::sim::simulate` on [`ServeReport::log`]).
    pub result: SimResult,
    /// The admitted log — the replay trace.
    pub log: Workload,
    /// Final admission counters (`offered == admitted + dropped`).
    pub totals: QueueTotals,
    /// Admitted requests the engine refused as arriving after close.
    pub rejected_late: u64,
    /// Requests served.
    pub served: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// The final metrics snapshot (also passed to the emit callback).
    pub final_snapshot: Snapshot,
}

/// The serve driver. Build with [`Server::new`], hand producer handles
/// out via [`Server::client`], then [`Server::run`] on the thread that
/// should own the simulation.
pub struct Server<S: CacheStrategy> {
    cfg: ServeConfig,
    strategy_name: String,
    engine: OnlineSimulator<S>,
    queues: QueueSet,
    consumer: Consumer,
}

impl<S: CacheStrategy> Server<S> {
    /// Build a server. The strategy's `begin` sees `cores` empty
    /// sequences — offline strategies (FITF, per-part Belady, mimic,
    /// sacrifice) must be rejected by the caller before this point.
    pub fn new(cfg: ServeConfig, strategy: S) -> Result<Self, ServeError> {
        if cfg.cores == 0 {
            return Err(ServeError::Config("need at least one core".into()));
        }
        if cfg.batch == 0 {
            return Err(ServeError::Config("batch must be at least 1".into()));
        }
        let strategy_name = strategy.name();
        let schedule = cfg
            .capacity
            .clone()
            .unwrap_or_else(|| mcp_core::CapacitySchedule::fixed(cfg.sim.cache_size));
        let engine = OnlineSimulator::with_capacity(cfg.cores, cfg.sim, schedule, strategy)?;
        let (queues, consumer) = QueueSet::new(cfg.discipline, cfg.cores, cfg.depth);
        Ok(Server {
            cfg,
            strategy_name,
            engine,
            queues,
            consumer,
        })
    }

    /// A producer handle for clients (cloneable, thread-safe).
    pub fn client(&self) -> QueueSet {
        self.queues.clone()
    }

    /// Run the driver loop until the stream ends (every core closed and
    /// all admitted requests served) or cancellation is requested via
    /// `mcp_core::budget::request_cancel` (SIGINT under the CLI). Emits
    /// a snapshot every `snapshot_every` plus one final snapshot.
    pub fn run(self, mut emit: impl FnMut(&Snapshot)) -> Result<ServeReport, ServeError> {
        let Server {
            cfg,
            strategy_name,
            mut engine,
            queues,
            mut consumer,
        } = self;
        let cores = cfg.cores;
        let start = Instant::now();
        // Admission timestamps (ns since start) per engine core, as
        // `(timestamp, count)` runs in service order: every request
        // drained in one iteration shares one timestamp.
        let mut admit_ns: Vec<AdmitRuns> = (0..cores).map(|_| AdmitRuns::default()).collect();
        let mut latency = QuantileSketch::default_latency();
        // cFCFS dispatch: the next core in rotation (DESIGN §14).
        let mut cursor = 0usize;
        let mut last_pos = vec![0usize; cores];
        let mut rejected_late = 0u64;
        let mut seq = 0u64;
        let mut iter = 0u64;
        let mut last_snap = start;
        let mut closing = false;
        let mut idle_spins = 0u32;
        loop {
            chaos_drain_probe(iter);
            iter = iter.wrapping_add(1);
            let now_ns = start.elapsed().as_nanos() as u64;
            let drained = consumer.drain(cfg.batch, |msg| match msg {
                Msg::Req { core, page } => {
                    let target = match cfg.discipline {
                        Discipline::Dfcfs => core as usize,
                        Discipline::Cfcfs => cursor,
                    };
                    match engine.push(target, PageId(page)) {
                        Ok(()) => {
                            if cfg.discipline == Discipline::Cfcfs {
                                cursor = if cursor + 1 == cores { 0 } else { cursor + 1 };
                            }
                            admit_ns[target].push(now_ns);
                        }
                        Err(_) => rejected_late += 1,
                    }
                }
                Msg::Close { core } => {
                    if core == u32::MAX || cfg.discipline == Discipline::Cfcfs {
                        engine.close_all();
                    } else if (core as usize) < cores {
                        let _ = engine.close(core as usize);
                    }
                }
            });
            let served_now = engine.advance()?;
            if served_now > 0 {
                let done_ns = start.elapsed().as_nanos() as u64;
                for core in 0..cores {
                    let pos = engine.positions()[core];
                    admit_ns[core].pop((pos - last_pos[core]) as u64, |t0, n| {
                        latency.add_n(done_ns.saturating_sub(t0) as f64, n)
                    });
                    last_pos[core] = pos;
                }
            }
            if !closing && mcp_core::budget::cancel_requested() {
                closing = true;
                queues.gate_close_all();
            }
            if closing && consumer.is_empty() {
                // Producers are gated and the rings are drained: everything
                // that will ever be admitted is in the engine. End the
                // stream so the horizon releases the tail.
                engine.close_all();
            }
            if let Some(every) = cfg.snapshot_every {
                if last_snap.elapsed() >= every {
                    seq += 1;
                    emit(&make_snapshot(
                        seq,
                        &start,
                        &cfg,
                        &strategy_name,
                        &engine,
                        queues.totals(),
                        rejected_late,
                        &latency,
                    ));
                    last_snap = Instant::now();
                }
            }
            if engine.finished() && consumer.is_empty() {
                break;
            }
            if drained == 0 && served_now == 0 {
                idle_spins += 1;
                if idle_spins < 128 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(Duration::from_micros(200));
                }
            } else {
                idle_spins = 0;
            }
        }
        seq += 1;
        let final_snapshot = make_snapshot(
            seq,
            &start,
            &cfg,
            &strategy_name,
            &engine,
            queues.totals(),
            rejected_late,
            &latency,
        );
        emit(&final_snapshot);
        let elapsed = start.elapsed();
        let served: u64 = engine.positions().iter().map(|&p| p as u64).sum();
        let (result, log) = engine.finish();
        if let Some(path) = &cfg.replay_log {
            let totals = queues.totals();
            let mut text = String::new();
            text.push_str("# mcp serve replay log (pipe into `mcp simulate -`)\n");
            text.push_str(&format!(
                "# p={} k={} tau={} strategy={} discipline={}\n",
                cores, cfg.sim.cache_size, cfg.sim.tau, strategy_name, cfg.discipline
            ));
            text.push_str(&format!(
                "# offered={} admitted={} dropped={} rejected_late={} served={}\n",
                totals.offered, totals.admitted, totals.dropped, rejected_late, served
            ));
            text.push_str(&format!(
                "# total_faults={} makespan={}\n",
                result.total_faults(),
                result.makespan
            ));
            text.push_str(&log.to_string());
            mcp_chaos::io::atomic_write(path, text.as_bytes(), "serve.replay_log")?;
        }
        Ok(ServeReport {
            result,
            log,
            totals: queues.totals(),
            rejected_late,
            served,
            elapsed,
            final_snapshot,
        })
    }
}

/// One core's admission timestamps as `(timestamp, count)` runs, oldest
/// first. Requests drained in one driver iteration share a timestamp, so
/// a run stands for a whole batch and the latency sketch takes one
/// [`QuantileSketch::add_n`] per run instead of one `add` per request.
#[derive(Default)]
struct AdmitRuns(VecDeque<(u64, u64)>);

impl AdmitRuns {
    /// Record one request admitted at `t`.
    fn push(&mut self, t: u64) {
        match self.0.back_mut() {
            Some((last, n)) if *last == t => *n += 1,
            _ => self.0.push_back((t, 1)),
        }
    }

    /// Retire the `k` oldest requests, reporting them as `(timestamp,
    /// count)` runs to `sink`.
    fn pop(&mut self, mut k: u64, mut sink: impl FnMut(u64, u64)) {
        while k > 0 {
            let Some((t, n)) = self.0.front_mut() else {
                return;
            };
            let take = k.min(*n);
            sink(*t, take);
            k -= take;
            *n -= take;
            if *n == 0 {
                self.0.pop_front();
            }
        }
    }
}

/// Build a metrics snapshot from the live engine and counters.
#[allow(clippy::too_many_arguments)]
fn make_snapshot<S: CacheStrategy>(
    seq: u64,
    start: &Instant,
    cfg: &ServeConfig,
    strategy_name: &str,
    engine: &OnlineSimulator<S>,
    totals: QueueTotals,
    rejected_late: u64,
    latency: &QuantileSketch,
) -> Snapshot {
    let served: u64 = engine.positions().iter().map(|&p| p as u64).sum();
    // Jain's index over slowdowns needs only counts and τ, not fault
    // times — a minimal SimResult suffices mid-run.
    let live = SimResult {
        faults: engine.faults().to_vec(),
        hits: engine.hits().to_vec(),
        makespan: engine.makespan(),
        fault_times: vec![Vec::new(); cfg.cores],
        config: cfg.sim,
    };
    let jain = fairness::jain_index(&fairness::slowdowns(&live));
    Snapshot {
        seq,
        uptime_ms: start.elapsed().as_millis() as u64,
        discipline: cfg.discipline.to_string(),
        strategy: strategy_name.to_string(),
        offered: totals.offered,
        admitted: totals.admitted,
        dropped: totals.dropped,
        rejected_late,
        served,
        backlog: totals.admitted.saturating_sub(served + rejected_late),
        faults: engine.faults().to_vec(),
        total_faults: live.total_faults(),
        total_hits: engine.hits().iter().sum(),
        makespan: engine.makespan(),
        latency_ns: latency.p50_p90_p99(),
        jain_slowdown: jain,
    }
}

/// Chaos probe for the driver loop: `task_point("serve.drain", …)` can
/// inject a panic; the driver catches *injected* panics and retries with
/// an incremented attempt counter (the plan's `max_consecutive` bounds
/// the adversary), so the service self-heals. Genuine panics propagate.
fn chaos_drain_probe(iter: u64) {
    if !mcp_chaos::armed() {
        return;
    }
    let mut attempt = 0u32;
    loop {
        match std::panic::catch_unwind(|| mcp_chaos::task_point("serve.drain", iter, attempt)) {
            Ok(()) => return,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("");
                if mcp_chaos::is_injected_panic(msg) {
                    attempt += 1;
                    continue;
                }
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// Decode frames from one connection into the queue set until clean EOF.
/// Malformed frames error out — the caller drops that connection; the
/// service keeps running.
pub fn serve_connection(stream: &mut impl Read, queues: &QueueSet) -> io::Result<()> {
    loop {
        match read_frame(stream)? {
            None => return Ok(()),
            Some(Frame::Reqs(batch)) => {
                queues.offer_many(&batch);
            }
            Some(Frame::Close(cores)) => {
                if cores.is_empty() {
                    queues.close(None);
                } else {
                    for core in cores {
                        queues.close(Some(core));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Evict the lowest-indexed evictable cell (no external policy dep).
    struct FirstFit;
    impl CacheStrategy for FirstFit {
        fn name(&self) -> String {
            "FirstFit".into()
        }
        fn choose_cell(
            &mut self,
            _c: usize,
            _p: PageId,
            _t: mcp_core::Time,
            cache: &mcp_core::Cache,
        ) -> usize {
            cache
                .empty_cell()
                .or_else(|| cache.evictable_cells().map(|(i, _, _)| i).next())
                .expect("victim exists when K >= p")
        }
    }

    fn cfg(cores: usize) -> ServeConfig {
        ServeConfig::new(cores, SimConfig::new(4, 2))
    }

    #[test]
    fn inprocess_roundtrip_dfcfs() {
        let server = Server::new(cfg(2), FirstFit).unwrap();
        let client = server.client();
        for i in 0..10u32 {
            assert!(client.offer(i % 2, i % 3));
        }
        client.close(None);
        let mut snaps = 0;
        let report = server.run(|_| snaps += 1).unwrap();
        assert_eq!(snaps, 1, "final snapshot only by default");
        assert_eq!(report.served, 10);
        assert_eq!(report.totals.offered, 10);
        assert_eq!(report.totals.admitted, 10);
        assert_eq!(report.rejected_late, 0);
        assert_eq!(report.final_snapshot.backlog, 0);
        assert_eq!(
            report.result.total_faults() + report.result.total_hits(),
            10
        );
        // The admitted log replays to the identical result.
        let replay = mcp_core::simulate(&report.log, report.result.config, FirstFit).unwrap();
        assert_eq!(replay, report.result);
    }

    #[test]
    fn cfcfs_balances_and_replays() {
        let mut c = cfg(2);
        c.discipline = Discipline::Cfcfs;
        let server = Server::new(c, FirstFit).unwrap();
        let client = server.client();
        for i in 0..8u32 {
            // cFCFS ignores the advisory core field for routing.
            assert!(client.offer(0, i));
        }
        client.close(None);
        let report = server.run(|_| {}).unwrap();
        assert_eq!(report.served, 8);
        // Least-assigned dispatch splits the stream 4/4.
        let lens: Vec<usize> = (0..2).map(|j| report.log.len(j)).collect();
        assert_eq!(lens, vec![4, 4]);
        let replay = mcp_core::simulate(&report.log, report.result.config, FirstFit).unwrap();
        assert_eq!(replay, report.result);
    }

    /// The cFCFS dispatch rule before the rotating cursor, verbatim: the
    /// open core with the fewest requests assigned, ties to the lowest
    /// id; a request finding every core closed is rejected late. Closes
    /// under cFCFS close every core. Returns the per-core page sequences
    /// and the late count.
    fn least_assigned_reference(cores: usize, msgs: &[Msg]) -> (Vec<Vec<u32>>, u64) {
        let mut closed = vec![false; cores];
        let mut assigned = vec![0u64; cores];
        let mut seqs = vec![Vec::new(); cores];
        let mut late = 0;
        for &msg in msgs {
            match msg {
                Msg::Req { page, .. } => {
                    let target = (0..cores)
                        .filter(|&c| !closed[c])
                        .min_by_key(|&c| (assigned[c], c))
                        .unwrap_or(0);
                    if closed[target] {
                        late += 1;
                    } else {
                        assigned[target] += 1;
                        seqs[target].push(page);
                    }
                }
                Msg::Close { .. } => closed.iter_mut().for_each(|c| *c = true),
            }
        }
        (seqs, late)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn cfcfs_rotation_matches_least_assigned_argmin(
            cores in 1usize..7,
            pages in proptest::collection::vec((0u32..9, 0u32..6), 0..120),
            close_at in proptest::collection::vec(0usize..130, 1..3),
            batch in 1usize..9,
        ) {
            // Requests with closes spliced in; later ones arrive behind a
            // close marker, as a producer racing the close can deliver.
            let mut msgs = Vec::new();
            for (i, &(core, page)) in pages.iter().enumerate() {
                if close_at.contains(&i) {
                    msgs.push(Msg::Close { core });
                }
                msgs.push(Msg::Req { core, page });
            }
            msgs.push(Msg::Close { core: u32::MAX });
            let mut c = cfg(cores);
            c.discipline = Discipline::Cfcfs;
            c.depth = msgs.len();
            c.batch = batch;
            c.sim = SimConfig::new(cores + 2, 1);
            let server = Server::new(c, FirstFit).unwrap();
            let client = server.client();
            for &msg in &msgs {
                client.push_raw(0, msg);
            }
            let report = server.run(|_| {}).unwrap();
            let (want, late) = least_assigned_reference(cores, &msgs);
            let got: Vec<Vec<u32>> = (0..cores)
                .map(|j| report.log.sequence(j).iter().map(|p| p.0).collect())
                .collect();
            proptest::prop_assert_eq!(got, want);
            proptest::prop_assert_eq!(report.rejected_late, late);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Run-length admission timestamps retire the same timestamps
        /// as a per-request FIFO, in the same order.
        #[test]
        fn admit_runs_match_a_per_request_fifo(
            ops in proptest::collection::vec((0u64..4, 0u64..5, 0u64..7), 1..60),
        ) {
            let mut runs = AdmitRuns::default();
            let mut fifo = VecDeque::new();
            let mut t = 0;
            for (dt, pushes, pops) in ops {
                t += dt;
                for _ in 0..pushes {
                    runs.push(t);
                    fifo.push_back(t);
                }
                let mut got = Vec::new();
                runs.pop(pops, |t0, n| got.extend(std::iter::repeat_n(t0, n as usize)));
                let take = (pops as usize).min(fifo.len());
                let want: Vec<u64> = fifo.drain(..take).collect();
                proptest::prop_assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn connection_frames_feed_queues() {
        let server = Server::new(cfg(2), FirstFit).unwrap();
        let client = server.client();
        let mut wire = Vec::new();
        crate::transport::write_frame(&mut wire, &Frame::Reqs(vec![(0, 1), (1, 2), (0, 1)]))
            .unwrap();
        crate::transport::write_frame(&mut wire, &Frame::Close(vec![])).unwrap();
        serve_connection(&mut io::Cursor::new(wire), &client).unwrap();
        let report = server.run(|_| {}).unwrap();
        assert_eq!(report.served, 3);
        assert_eq!(report.totals.offered, 3);
    }

    #[test]
    fn bad_config_is_rejected() {
        assert!(matches!(
            Server::new(cfg(0), FirstFit),
            Err(ServeError::Config(_))
        ));
        let mut c = cfg(2);
        c.batch = 0;
        assert!(matches!(
            Server::new(c, FirstFit),
            Err(ServeError::Config(_))
        ));
        // K < p fails through the simulation validator.
        let c = ServeConfig::new(8, SimConfig::new(4, 1));
        assert!(matches!(Server::new(c, FirstFit), Err(ServeError::Sim(_))));
    }

    #[test]
    fn late_offers_after_close_are_dropped_not_lost() {
        let server = Server::new(cfg(2), FirstFit).unwrap();
        let client = server.client();
        assert!(client.offer(0, 1));
        client.close(Some(0));
        assert!(!client.offer(0, 2), "gate drops immediately");
        client.close(Some(1));
        let report = server.run(|_| {}).unwrap();
        let t = &report.totals;
        assert_eq!(t.offered, 2);
        assert_eq!(t.admitted + t.dropped, t.offered);
        assert_eq!(report.served, 1);
    }
}
