//! The serve workloads, measured in burst-drain mode: the whole request
//! stream is encoded into wire frames during set-up, the queues are sized
//! to hold all of it, and a pass feeds the frames through
//! `serve_connection` (decode + admission) and then drains them with
//! `Server::run` on the same thread. This times the driver thread — the
//! serial bottleneck of `mcp serve` — without a second spinning thread
//! letting the scheduler set the number.

use crate::harness::{median, median_ns, Bench, Fingerprint, Fnv, Metrics};
use crate::trace::Tracer;
use mcp_core::online::OnlineSimulator;
use mcp_core::{SimConfig, Workload};
use mcp_policies::{shared_lru, Lru, Shared};
use mcp_serve::transport::{read_frame, write_frame, Frame};
use mcp_serve::{serve_connection, Discipline, QueueSet, ServeConfig, ServeReport, Server};
use std::io::Cursor;
use std::sync::atomic::AtomicBool;
use std::time::Instant;

/// Requests per `REQS` frame (the `mcp blast` default batch).
const FRAME_BATCH: usize = 512;
/// Repetitions of each layer probe (the median is reported).
const PROBE_REPS: usize = 3;

/// How the request stream is generated.
#[derive(Clone, Copy, Debug)]
pub enum Traffic {
    /// `mcp_workloads::staggered_thrash` with a private cycle per core.
    Staggered {
        /// Requests per core.
        n_per_core: usize,
        /// Cold pages each core cycles through.
        cycle: u32,
    },
    /// `mcp_workloads::zipf_shared` over one shared universe.
    ZipfShared {
        /// Requests per core.
        n_per_core: usize,
        /// Shared page universe.
        universe: u32,
    },
}

/// A serve workload: one traffic shape and one server configuration.
#[derive(Clone, Debug)]
pub struct ServeBench {
    cores: usize,
    sim: SimConfig,
    discipline: Discipline,
    traffic: Traffic,
    /// Run the two-thread live probe in traced runs.
    live_probe: bool,
}

impl ServeBench {
    /// `serve-sparse`: 256 cores with τ = 300, so about one core is due
    /// per model step; K = 2p, dFCFS, shared LRU.
    pub fn sparse() -> Self {
        ServeBench {
            cores: 256,
            sim: SimConfig::new(512, 300),
            discipline: Discipline::Dfcfs,
            traffic: Traffic::Staggered {
                n_per_core: 600,
                cycle: 8,
            },
            live_probe: false,
        }
    }

    /// `serve-dense`: 4 cores drawing Zipf(0.9) from 48 shared pages with
    /// K = 64 and τ = 1 (after warm-up nearly every request hits); cFCFS,
    /// shared LRU. The stream (524K requests) just fits a ring of 2^19
    /// slots (32 MB), the smallest ring above the allocator's largest mmap
    /// threshold: every set-up and pass maps fresh pages, so the peak RSS
    /// does not drift with how the heap was reused. (Smaller rings come
    /// from the heap, where their aligned blocks fragment it.)
    pub fn dense() -> Self {
        ServeBench {
            cores: 4,
            sim: SimConfig::new(64, 1),
            discipline: Discipline::Cfcfs,
            traffic: Traffic::ZipfShared {
                n_per_core: 131_000,
                universe: 48,
            },
            live_probe: true,
        }
    }

    fn server(&self, depth: usize) -> (Server<Shared<Lru>>, QueueSet) {
        let mut cfg = ServeConfig::new(self.cores, self.sim);
        cfg.discipline = self.discipline;
        cfg.depth = depth;
        let server = Server::new(cfg, shared_lru()).expect("valid serve config");
        let client = server.client();
        (server, client)
    }
}

/// Generated inputs of a serve workload.
pub struct ServeInput {
    /// The generated per-core request sequences.
    pub workload: Workload,
    /// The stream in arrival order: `(core, page)`, cores round-robin.
    pub stream: Vec<(u32, u32)>,
    /// The stream encoded as wire frames, ending with a close-all frame.
    pub frames: Vec<u8>,
    /// Ring depth that holds the whole stream (plus close markers).
    pub depth: usize,
}

/// One pass: the server's report (or the error that stopped it) and the
/// client handle, returned so the rings are freed outside the timed
/// section.
pub struct ServeOutput {
    /// The finished run.
    pub report: Result<ServeReport, String>,
    _client: QueueSet,
}

impl Bench for ServeBench {
    type Input = ServeInput;
    type Ready = (Server<Shared<Lru>>, QueueSet);
    type Output = ServeOutput;

    fn items(&self, input: &ServeInput) -> u64 {
        input.stream.len() as u64
    }

    fn setup(&self, seed: u64, tr: &mut Tracer) -> ServeInput {
        let p = self.cores;
        let workload = tr.span("workloads.gen", |_| match self.traffic {
            Traffic::Staggered { n_per_core, cycle } => {
                mcp_workloads::staggered_thrash(p, n_per_core, cycle, p, seed)
            }
            Traffic::ZipfShared {
                n_per_core,
                universe,
            } => mcp_workloads::zipf_shared(p, n_per_core, universe, 0.9, seed),
        });
        tr.span("serve.encode", |_| {
            let longest = (0..p).map(|j| workload.len(j)).max().unwrap_or(0);
            let mut stream = Vec::with_capacity(workload.total_len());
            for i in 0..longest {
                for j in 0..p {
                    if let Some(page) = workload.sequence(j).get(i) {
                        stream.push((j as u32, page.0));
                    }
                }
            }
            let mut frames = Vec::with_capacity(stream.len() * 8 + stream.len() / 64 + 64);
            for batch in stream.chunks(FRAME_BATCH) {
                write_frame(&mut frames, &Frame::Reqs(batch.to_vec())).expect("in-memory write");
            }
            write_frame(&mut frames, &Frame::Close(Vec::new())).expect("in-memory write");
            let depth = match self.discipline {
                Discipline::Cfcfs => stream.len() + 1,
                Discipline::Dfcfs => longest + 1,
            };
            ServeInput {
                workload,
                stream,
                frames,
                depth,
            }
        })
    }

    fn ready(&self, input: &ServeInput) -> Self::Ready {
        self.server(input.depth)
    }

    fn pass(&self, input: &ServeInput, ready: Self::Ready, tr: &mut Tracer) -> ServeOutput {
        let (server, client) = ready;
        let fed = tr.span("serve.connection", |_| {
            serve_connection(&mut Cursor::new(&input.frames[..]), &client)
        });
        let report = match fed {
            Ok(()) => tr
                .span("serve.server.run", |_| server.run(|_| {}))
                .map_err(|e| e.to_string()),
            Err(e) => Err(format!("frame decode failed: {e}")),
        };
        ServeOutput {
            report,
            _client: client,
        }
    }

    fn latency_us(&self, out: &ServeOutput) -> (f64, f64) {
        match &out.report {
            Ok(r) => (
                r.final_snapshot.latency_ns.0 / 1e3,
                r.final_snapshot.latency_ns.2 / 1e3,
            ),
            Err(_) => (0.0, 0.0),
        }
    }

    fn check(&self, input: &ServeInput, out: &ServeOutput, failures: &mut Vec<String>) -> u64 {
        let n = input.stream.len() as u64;
        let r = match &out.report {
            Ok(r) => r,
            Err(e) => {
                failures.push(format!("serve pass failed: {e}"));
                return n;
            }
        };
        let t = &r.totals;
        let mut failed = 0;
        // Dropped, late-rejected and unoffered requests all go unserved.
        if t.offered != n || r.served != n {
            failed += n.abs_diff(r.served).max(1);
            failures.push(format!(
                "offered {} and served {} of {n} requests (dropped {}, rejected late {})",
                t.offered, r.served, t.dropped, r.rejected_late
            ));
        }
        if t.offered != t.admitted + t.dropped {
            failed += 1;
            failures.push(format!(
                "conservation: offered {} != admitted {} + dropped {}",
                t.offered, t.admitted, t.dropped
            ));
        }
        if r.served + r.rejected_late != t.admitted {
            failed += 1;
            failures.push(format!(
                "conservation: served {} + rejected_late {} != admitted {}",
                r.served, r.rejected_late, t.admitted
            ));
        }
        failed
    }

    fn verify(&self, input: &ServeInput, out: &ServeOutput, failures: &mut Vec<String>) {
        let Ok(r) = &out.report else { return };
        match mcp_core::simulate(&r.log, self.sim, shared_lru()) {
            Ok(replay) if replay == r.result => {}
            Ok(_) => failures.push("replay parity: simulate(log) != served result".into()),
            Err(e) => failures.push(format!("replay parity: simulate(log) failed: {e:?}")),
        }
        // dFCFS routes every request by its own core, so the admitted log
        // is the generated workload itself.
        if self.discipline == Discipline::Dfcfs && r.log != input.workload {
            failures.push("dFCFS admitted log differs from the generated workload".into());
        }
    }

    fn fingerprint(&self, _input: &ServeInput, out: &ServeOutput) -> Fingerprint {
        let Ok(r) = &out.report else {
            return vec![("serve.failed", 1)];
        };
        let mut log = Fnv::default();
        for j in 0..r.log.num_cores() {
            log.word(j as u64);
            for page in r.log.sequence(j) {
                log.word(u64::from(page.0));
            }
        }
        vec![
            ("core.faults", r.result.total_faults()),
            ("core.makespan", r.result.makespan),
            ("serve.served", r.served),
            ("serve.log_hash", log.0),
        ]
    }

    fn layers(&self, input: &ServeInput, out: &ServeOutput, tr: &mut Tracer, m: &mut Metrics) {
        let n = input.stream.len() as f64;
        let per_req = |ns: f64| ns / n;
        m.set(
            "serve.connection_ns_per_req",
            per_req(median(&tr.durations_ns("serve.connection"))),
            "ns",
        );
        let run_ns = per_req(median(&tr.durations_ns("serve.server.run")));
        m.set("serve.server.run_ns_per_req", run_ns, "ns");

        // Probes from outside the pass: each layer's calls alone.
        let mut frames = Vec::new();
        let decode = tr.span("serve.transport.decode", |_| {
            median_ns(PROBE_REPS, || {
                let mut cursor = Cursor::new(&input.frames[..]);
                frames.clear();
                while let Ok(Some(frame)) = read_frame(&mut cursor) {
                    frames.push(frame);
                }
            })
        });
        m.set("serve.transport.decode_ns_per_req", per_req(decode), "ns");

        let mut dropped = 0;
        let admit = tr.span("serve.queue.admit", |_| {
            let mut times = Vec::new();
            for _ in 0..PROBE_REPS {
                let (queues, consumer) = QueueSet::new(self.discipline, self.cores, input.depth);
                let t0 = Instant::now();
                for frame in &frames {
                    if let Frame::Reqs(batch) = frame {
                        for &(core, page) in batch {
                            queues.offer(core, page);
                        }
                    }
                }
                times.push(t0.elapsed().as_nanos() as f64);
                dropped = queues.totals().dropped;
                drop((queues, consumer));
            }
            median(&times)
        });
        m.set("serve.queue.admit_ns_per_req", per_req(admit), "ns");
        m.set("serve.queue.dropped", dropped as f64, "count");

        if let Ok(r) = &out.report {
            let advance = tr.span("core.online.advance", |_| {
                let mut times = Vec::new();
                for _ in 0..PROBE_REPS {
                    let mut engine = OnlineSimulator::new(self.cores, self.sim, shared_lru())
                        .expect("valid online config");
                    let t0 = Instant::now();
                    for j in 0..r.log.num_cores() {
                        for &page in r.log.sequence(j) {
                            engine.push(j, page).expect("open core");
                        }
                    }
                    engine.close_all();
                    while !engine.finished() {
                        engine.advance().expect("valid step");
                    }
                    times.push(t0.elapsed().as_nanos() as f64);
                }
                median(&times)
            });
            let advance = per_req(advance);
            m.set("core.online.advance_ns_per_req", advance, "ns");
            m.set(
                "serve.server.driver_self_ns_per_req",
                run_ns - advance,
                "ns",
            );
            let simulate = tr.span("core.sim.simulate", |_| {
                median_ns(PROBE_REPS, || {
                    std::hint::black_box(mcp_core::simulate(&r.log, self.sim, shared_lru()).ok());
                })
            });
            m.set("core.sim.simulate_ns_per_req", per_req(simulate), "ns");
        }

        for depth in [256usize, 4096] {
            let rps = if self.live_probe {
                tr.span("serve.live", |_| {
                    median(
                        &(0..PROBE_REPS)
                            .map(|_| self.live_rps(input, depth))
                            .collect::<Vec<_>>(),
                    )
                })
            } else {
                0.0
            };
            m.set(&format!("serve.live_rps.depth{depth}"), rps, "1/s");
        }
    }
}

impl ServeBench {
    /// Informational: the stream through one `offer_blocking` producer
    /// thread plus `Server::run` at ring depth `depth`, in requests/s.
    fn live_rps(&self, input: &ServeInput, depth: usize) -> f64 {
        let (server, client) = self.server(depth);
        let t0 = Instant::now();
        let served = std::thread::scope(|s| {
            let producer = s.spawn(|| {
                let stop = AtomicBool::new(false);
                for &(core, page) in &input.stream {
                    client.offer_blocking(core, page, &stop);
                }
                client.close(None);
            });
            let report = server.run(|_| {});
            producer.join().expect("producer thread");
            report.map(|r| r.served).unwrap_or(0)
        });
        served as f64 / t0.elapsed().as_secs_f64()
    }
}
