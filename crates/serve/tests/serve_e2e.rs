//! End-to-end serve-layer tests at the library level: concurrent real
//! clients against real policies, the replay contract, backpressure
//! accounting, and chaos survival. The CLI binary gets its own e2e
//! coverage in `crates/cli/tests/`.

use mcp_core::{simulate, CacheStrategy, SimConfig};
use mcp_policies::{shared_fifo, shared_lru, Clock, Mru, Shared};
use mcp_serve::{Discipline, ServeConfig, ServeReport, Server};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Pages for `core`: overlapping universes so shared-fetch misses fire.
fn page_stream(core: u64, len: usize, universe: u64) -> Vec<u32> {
    let mut rng = 0xD1CE_0000 + core;
    (0..len)
        .map(|_| {
            rng = splitmix64(rng);
            (rng % universe) as u32
        })
        .collect()
}

/// Run a dFCFS server with one lossless producer thread per core and
/// return the report.
fn run_threaded<S: CacheStrategy + Send + 'static>(
    strategy: S,
    cores: usize,
    per_core: usize,
    universe: u64,
    depth: usize,
) -> ServeReport {
    let mut cfg = ServeConfig::new(cores, SimConfig::new(8, 3));
    cfg.depth = depth;
    let server = Server::new(cfg, strategy).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let producers: Vec<_> = (0..cores)
        .map(|core| {
            let client = server.client();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for page in page_stream(core as u64, per_core, universe) {
                    assert!(client.offer_blocking(core as u32, page, &stop));
                }
                client.close(Some(core as u32));
            })
        })
        .collect();
    let report = server.run(|_| {}).unwrap();
    for p in producers {
        p.join().unwrap();
    }
    report
}

#[test]
fn threaded_clients_replay_identically_for_real_policies() {
    // One constructor pair per online-safe family exercised here: the
    // served run and the offline replay must be bit-identical.
    let report = run_threaded(shared_lru(), 4, 800, 16, 256);
    assert_eq!(report.served, 4 * 800);
    assert_eq!(report.rejected_late, 0);
    let replay = simulate(&report.log, report.result.config, shared_lru()).unwrap();
    assert_eq!(replay, report.result, "S_LRU replay diverged");

    let report = run_threaded(shared_fifo(), 3, 500, 10, 128);
    let replay = simulate(&report.log, report.result.config, shared_fifo()).unwrap();
    assert_eq!(replay, report.result, "S_FIFO replay diverged");

    let report = run_threaded(Shared::new(Clock::new()), 2, 400, 12, 64);
    let replay = simulate(&report.log, report.result.config, Shared::new(Clock::new())).unwrap();
    assert_eq!(replay, report.result, "S_CLOCK replay diverged");

    let report = run_threaded(Shared::new(Mru::new()), 2, 300, 9, 64);
    let replay = simulate(&report.log, report.result.config, Shared::new(Mru::new())).unwrap();
    assert_eq!(replay, report.result, "S_MRU replay diverged");
}

/// A single deterministic producer: round-robin over cores, seeded pages,
/// lossless admission. This is exactly what seeded `mcp serve` does.
fn run_seeded(discipline: Discipline, batch: usize, depth: usize) -> ServeReport {
    let cores = 3;
    let mut cfg = ServeConfig::new(cores, SimConfig::new(6, 2));
    cfg.discipline = discipline;
    cfg.batch = batch;
    cfg.depth = depth;
    let server = Server::new(cfg, shared_lru()).unwrap();
    let client = server.client();
    let stop = Arc::new(AtomicBool::new(false));
    let producer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut rng = 0xBEEF_u64;
            for i in 0..3000u32 {
                rng = splitmix64(rng);
                assert!(client.offer_blocking(i % cores as u32, (rng % 14) as u32, &stop));
            }
            client.close(None);
        })
    };
    let report = server.run(|_| {}).unwrap();
    producer.join().unwrap();
    report
}

#[test]
fn seeded_runs_are_invariant_to_batching_and_depth() {
    for discipline in [Discipline::Dfcfs, Discipline::Cfcfs] {
        let base = run_seeded(discipline, 256, 1024);
        for (batch, depth) in [(7, 16), (1, 2048), (256, 1024)] {
            let other = run_seeded(discipline, batch, depth);
            assert_eq!(
                other.log, base.log,
                "admitted log varied ({discipline}, batch {batch}, depth {depth})"
            );
            assert_eq!(other.result, base.result, "result varied ({discipline})");
        }
    }
}

#[test]
fn backpressure_accounting_is_exact() {
    let cores = 2;
    let mut cfg = ServeConfig::new(cores, SimConfig::new(4, 1));
    cfg.depth = 8; // tiny rings: drops guaranteed with no concurrent drain
    let server = Server::new(cfg, shared_lru()).unwrap();
    let offered_per = 5_000u64;
    let producers: Vec<_> = (0..4u32)
        .map(|t| {
            let client = server.client();
            std::thread::spawn(move || {
                for i in 0..offered_per {
                    client.offer(t % cores as u32, (i % 30) as u32);
                }
            })
        })
        .collect();
    for p in producers {
        p.join().unwrap(); // all offers land before the driver drains
    }
    // The rings are full, so the close markers only fit once the driver
    // starts draining — close from a side thread.
    let closer = {
        let client = server.client();
        std::thread::spawn(move || client.close(None))
    };
    let report = server.run(|_| {}).unwrap();
    closer.join().unwrap();
    let t = &report.totals;
    assert_eq!(t.offered, 4 * offered_per);
    assert_eq!(t.offered, t.admitted + t.dropped, "exact conservation");
    assert!(t.dropped > 0, "depth 8 must shed load");
    assert!(t.admitted >= 2, "rings hold something");
    assert_eq!(report.served + report.rejected_late, t.admitted);
    assert_eq!(report.final_snapshot.backlog, 0);
    assert_eq!(t.ring_dropped.iter().sum::<u64>(), t.dropped);
}

#[test]
fn snapshots_conserve_while_frames_race_the_driver() {
    // Frame-sized offers from four threads into shallow rings while the
    // driver drains and snapshots every iteration: every snapshot must
    // balance, and nothing popped may outrun what was admitted.
    let cores = 3;
    let mut cfg = ServeConfig::new(cores, SimConfig::new(6, 1));
    cfg.depth = 16;
    cfg.batch = 8;
    cfg.snapshot_every = Some(std::time::Duration::ZERO);
    let server = Server::new(cfg, shared_lru()).unwrap();
    let frames_per = 200u32;
    let mut snaps = Vec::new();
    let report = std::thread::scope(|s| {
        let producers: Vec<_> = (0..4u32)
            .map(|t| {
                let client = server.client();
                s.spawn(move || {
                    for f in 0..frames_per {
                        // Core 3 is unroutable under dFCFS: some drops
                        // happen even when the rings have room.
                        let frame: Vec<(u32, u32)> = (0..24)
                            .map(|i| ((t + f + i) % 4, (f * 7 + i) % 11))
                            .collect();
                        client.offer_many(&frame);
                    }
                })
            })
            .collect();
        let closer = server.client();
        s.spawn(move || {
            for p in producers {
                p.join().unwrap();
            }
            closer.close(None);
        });
        server.run(|snap| snaps.push(snap.clone())).unwrap()
    });
    assert!(snaps.len() > 1, "snapshots every iteration");
    for snap in &snaps {
        assert_eq!(
            snap.offered,
            snap.admitted + snap.dropped,
            "seq {}",
            snap.seq
        );
        assert!(
            snap.served + snap.rejected_late <= snap.admitted,
            "seq {}: served {} + late {} > admitted {}",
            snap.seq,
            snap.served,
            snap.rejected_late,
            snap.admitted
        );
    }
    let t = &report.totals;
    assert_eq!(t.offered, 4 * u64::from(frames_per) * 24);
    assert!(t.dropped > 0, "unroutable core 3 drops");
    assert_eq!(report.served + report.rejected_late, t.admitted);
    let replay = simulate(&report.log, report.result.config, shared_lru()).unwrap();
    assert_eq!(replay, report.result);
}

#[test]
fn replay_log_round_trips_through_text_trace() {
    let cores = 2;
    let path = std::env::temp_dir().join(format!(
        "mcp_serve_replay_{}_{}.trace",
        std::process::id(),
        0xA11CE_u32
    ));
    let mut cfg = ServeConfig::new(cores, SimConfig::new(5, 2));
    cfg.replay_log = Some(path.clone());
    let server = Server::new(cfg, shared_lru()).unwrap();
    let client = server.client();
    for i in 0..40u32 {
        assert!(client.offer(i % 2, i % 7));
    }
    client.close(None);
    let report = server.run(|_| {}).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(text.starts_with("# mcp serve replay log"));
    let parsed = mcp_workloads::trace::read_text(text.as_bytes()).unwrap();
    assert_eq!(parsed, report.log, "text round-trip must be lossless");
    let replay = simulate(&parsed, report.result.config, shared_lru()).unwrap();
    assert_eq!(replay, report.result);
}

#[test]
fn chaos_armed_run_survives_and_stays_exact() {
    // 10% injected panics at the drain probe, bounded bursts of 3. The
    // driver must retry through every one and still match offline.
    let plan = mcp_chaos::FaultPlan::parse("0xC0FFEE:0,0,100,3,0").unwrap();
    let _guard = mcp_chaos::arm_scoped(plan);
    let cores = 2;
    let cfg = ServeConfig::new(cores, SimConfig::new(4, 2));
    let server = Server::new(cfg, shared_lru()).unwrap();
    let client = server.client();
    for i in 0..500u32 {
        assert!(client.offer(i % 2, i % 9));
    }
    client.close(None);
    let report = server.run(|_| {}).unwrap();
    assert_eq!(report.served, 500);
    let replay = simulate(&report.log, report.result.config, shared_lru()).unwrap();
    assert_eq!(replay, report.result, "chaos must not corrupt the run");
}
