//! `mcp serve` — the streaming online cache-management service.
//!
//! ```text
//! # seeded, self-driving (deterministic; writes an oracle-checkable log)
//! mcp serve --cores 4 --k 32 --tau 4 --strategy lru --seed 7 --n 200000 \
//!           --replay-log run.trace
//! mcp simulate --trace run.trace --k 32 --tau 4 --strategy lru   # same faults
//!
//! # dynamic capacity: the replay contract extends verbatim
//! mcp serve --cores 4 --k 32 --strategy lru --seed 7 --capacity 32,16@500 \
//!           --replay-log run.trace
//! mcp simulate --trace run.trace --k 32 --strategy lru --capacity 32,16@500
//!
//! # socket mode (clients connect with `mcp blast`); SIGINT drains and exits 0
//! mcp serve --cores 4 --k 32 --strategy lru --listen unix:/tmp/mcp.sock \
//!           --snapshot-ms 500
//! ```
//!
//! Metrics snapshots stream to **stdout**, one JSON object per line; the
//! human summary goes to **stderr** so stdout stays machine-parseable.

use super::{build_strategy, capacity_from, CliError};
use crate::args::{ArgError, Args};
use mcp_core::{SimConfig, Workload};
use mcp_policies::{FAMILIES, OFFLINE_ONLY};
use mcp_serve::{serve_connection, Discipline, ServeConfig, ServeError, ServeReport, Server};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::time::Duration;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn serve_err(e: ServeError) -> CliError {
    CliError::Other(e.to_string())
}

/// Run `mcp serve`.
pub fn run(args: &Args) -> Result<String, CliError> {
    let cores: usize = args.parse_required("cores")?;
    let k: usize = args.parse_required("k")?;
    let tau: u64 = args.parse_or("tau", 0u64)?;
    let sim = SimConfig::new(k, tau);

    let spec = args.get("strategy").unwrap_or("lru");
    let head = spec.split_once(':').map(|(h, _)| h).unwrap_or(spec);
    if OFFLINE_ONLY.contains(&head) {
        let online: Vec<&str> = FAMILIES
            .iter()
            .copied()
            .filter(|f| !OFFLINE_ONLY.contains(f))
            .collect();
        return Err(CliError::Other(format!(
            "strategy {spec:?} is offline-only (its begin reads the full future trace) and \
             cannot serve a live stream; online-safe strategies: {} (partition takes \
             [:sizes])",
            online.join(", ")
        )));
    }
    // Online strategies ignore the sequences in `begin`, so building
    // against an empty p-core workload is exact, not an approximation.
    let empty =
        Workload::new(vec![Vec::new(); cores]).map_err(|e| CliError::Other(e.to_string()))?;
    sim.validate(&empty)
        .map_err(|e| CliError::Other(e.to_string()))?;
    let strategy = build_strategy(spec, &empty, sim)?;

    let mut cfg = ServeConfig::new(cores, sim);
    let disc_spec = args.get("discipline").unwrap_or("dfcfs");
    cfg.discipline = disc_spec.parse::<Discipline>().map_err(|_| {
        CliError::Args(ArgError::BadValue {
            key: "discipline".into(),
            value: disc_spec.into(),
            expected: "cfcfs or dfcfs",
        })
    })?;
    cfg.depth = args.parse_or("depth", 1024usize)?;
    cfg.batch = args.parse_or("batch", 256usize)?;
    let snapshot_ms: u64 = args.parse_or("snapshot-ms", 0u64)?;
    if snapshot_ms > 0 {
        cfg.snapshot_every = Some(Duration::from_millis(snapshot_ms));
    }
    cfg.replay_log = args.get("replay-log").map(PathBuf::from);
    cfg.capacity = capacity_from(args, k)?;
    let quiet = args.flag("quiet");

    let seed = args.get("seed");
    let listen = args.get("listen");
    let server = Server::new(cfg, strategy).map_err(serve_err)?;

    let report = match (seed, listen) {
        (Some(_), Some(_)) => {
            return Err(CliError::Other(
                "--seed (self-driving) and --listen (socket) are mutually exclusive".into(),
            ))
        }
        (None, None) => {
            return Err(CliError::Other(
                "mcp serve needs an input: --seed S (deterministic self-driving stream) \
                 or --listen unix:PATH|tcp:ADDR"
                    .into(),
            ))
        }
        (Some(_), None) => {
            let seed: u64 = args.parse_required("seed")?;
            let n: u64 = args.parse_or("n", 100_000u64)?;
            let universe: u64 = args.parse_or("universe", 64u64)?.max(1);
            let client = server.client();
            // One deterministic producer over the lossless path: the
            // admitted log depends only on (seed, n, universe, cores),
            // never on timing, batching, or --jobs.
            let producer = std::thread::spawn(move || {
                let stop = AtomicBool::new(false);
                let mut rng = seed;
                for i in 0..n {
                    rng = splitmix64(rng);
                    let core = (i % cores as u64) as u32;
                    if !client.offer_blocking(core, (rng % universe) as u32, &stop) {
                        break; // stream gated (SIGINT): stop cleanly
                    }
                }
                client.close(None);
            });
            let report = server
                .run(|snap| println!("{}", snap.to_json()))
                .map_err(serve_err)?;
            producer.join().expect("producer thread panicked");
            report
        }
        (None, Some(endpoint)) => {
            let queues = server.client();
            let cleanup = spawn_listener(endpoint, queues, quiet)?;
            let report = server
                .run(|snap| println!("{}", snap.to_json()))
                .map_err(serve_err)?;
            if let Some(path) = cleanup {
                let _ = std::fs::remove_file(path);
            }
            report
        }
    };

    if !quiet {
        eprintln!("{}", summary(&report));
    }
    Ok(String::new())
}

/// Bind the endpoint and run accept/decoder threads in the background.
/// Returns the socket path to unlink on shutdown (Unix sockets only).
/// Threads never touch the engine — they die with the process.
fn spawn_listener(
    endpoint: &str,
    queues: mcp_serve::QueueSet,
    quiet: bool,
) -> Result<Option<PathBuf>, CliError> {
    let (scheme, addr) = endpoint.split_once(':').ok_or_else(|| {
        CliError::Args(ArgError::BadValue {
            key: "listen".into(),
            value: endpoint.into(),
            expected: "unix:PATH or tcp:HOST:PORT",
        })
    })?;
    match scheme {
        "unix" => {
            let path = PathBuf::from(addr);
            let _ = std::fs::remove_file(&path); // stale socket from a previous run
            let listener = std::os::unix::net::UnixListener::bind(&path)?;
            if !quiet {
                eprintln!("listening on unix:{addr}");
            }
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    let Ok(mut stream) = stream else { continue };
                    let queues = queues.clone();
                    std::thread::spawn(move || {
                        if let Err(e) = serve_connection(&mut stream, &queues) {
                            eprintln!("connection dropped: {e}");
                        }
                    });
                }
            });
            Ok(Some(path))
        }
        "tcp" => {
            let listener = std::net::TcpListener::bind(addr).map_err(CliError::Io)?;
            if !quiet {
                eprintln!("listening on tcp:{addr}");
            }
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    let Ok(mut stream) = stream else { continue };
                    let queues = queues.clone();
                    std::thread::spawn(move || {
                        if let Err(e) = serve_connection(&mut stream, &queues) {
                            eprintln!("connection dropped: {e}");
                        }
                    });
                }
            });
            Ok(None)
        }
        other => Err(CliError::Args(ArgError::BadValue {
            key: "listen".into(),
            value: other.into(),
            expected: "unix:PATH or tcp:HOST:PORT",
        })),
    }
}

fn summary(report: &ServeReport) -> String {
    let t = &report.totals;
    let secs = report.elapsed.as_secs_f64();
    let rate = if secs > 0.0 {
        report.served as f64 / secs
    } else {
        0.0
    };
    format!(
        "served {} requests in {:.2}s ({:.0} req/s): offered {}, admitted {}, dropped {}, \
         rejected-late {}; faults {}, makespan {}",
        report.served,
        secs,
        rate,
        t.offered,
        t.admitted,
        t.dropped,
        report.rejected_late,
        report.result.total_faults(),
        report.result.makespan
    )
}
