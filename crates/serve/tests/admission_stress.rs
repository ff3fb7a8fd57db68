//! Concurrency stress for frame admission: four producers offer
//! random-length frames into small rings while a live consumer drains
//! them. Ignored by default (under a second in release); run with
//! `cargo test --release -p mcp-serve --test admission_stress -- --ignored`.
//!
//! Each request's page encodes its producer and that producer's sequence
//! number, so the consumer side can check that nothing is lost or
//! duplicated and that each producer's requests leave each ring in the
//! order they were offered.

use mcp_core::SimConfig;
use mcp_policies::shared_lru;
use mcp_serve::{Discipline, Msg, QueueSet, ServeConfig, Server};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

const PRODUCERS: u32 = 4;
const FRAMES: u32 = 40_000;
/// Routable cores; producers also address core `CORES` (unroutable under
/// dFCFS).
const CORES: u32 = 3;
const SEQ_BITS: u32 = 24;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Offer `FRAMES` random frames from producer `id`: lengths 0..48, cores
/// in runs of random length. Returns the number of requests offered.
fn produce(queues: &QueueSet, id: u32) -> u64 {
    let mut rng = splitmix64(0x5EED ^ u64::from(id));
    let mut seq = 0u32;
    let mut offered = 0u64;
    let mut frame = Vec::new();
    for _ in 0..FRAMES {
        rng = splitmix64(rng);
        let len = (rng % 48) as usize;
        frame.clear();
        let mut core = 0;
        while frame.len() < len {
            rng = splitmix64(rng);
            if rng.is_multiple_of(4) {
                core = ((rng >> 8) % u64::from(CORES + 1)) as u32;
            }
            frame.push((core, id << SEQ_BITS | seq));
            seq += 1;
        }
        queues.offer_many(&frame);
        offered += len as u64;
    }
    offered
}

fn decode(page: u32) -> (usize, u32) {
    ((page >> SEQ_BITS) as usize, page & ((1 << SEQ_BITS) - 1))
}

/// Producers race a consumer that pops as fast as it can: every request
/// is popped or counted dropped, and per-producer FIFO holds per ring.
fn rings_under_a_live_consumer(discipline: Discipline) {
    let (queues, mut consumer) = QueueSet::new(discipline, CORES as usize, 8);
    let done = AtomicUsize::new(0);
    let start = Barrier::new(PRODUCERS as usize + 1);
    let mut popped: Vec<Msg> = Vec::new();
    let offered: u64 = std::thread::scope(|s| {
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|id| {
                let (queues, done, start) = (queues.clone(), &done, &start);
                s.spawn(move || {
                    start.wait();
                    let n = produce(&queues, id);
                    done.fetch_add(1, Ordering::Release);
                    n
                })
            })
            .collect();
        start.wait();
        loop {
            let finished = done.load(Ordering::Acquire) == PRODUCERS as usize;
            let got = consumer.drain(64, |m| popped.push(m));
            if finished && got == 0 && consumer.is_empty() {
                break;
            }
        }
        producers.into_iter().map(|h| h.join().unwrap()).sum()
    });

    let t = queues.totals();
    assert_eq!(t.offered, offered);
    assert_eq!(t.offered, t.admitted + t.dropped);
    assert_eq!(
        popped.len() as u64,
        t.admitted,
        "every admitted request popped"
    );
    assert!(
        t.dropped > 0,
        "rings of 8 under four producers must shed load"
    );

    // Per producer and ring, sequence numbers strictly increase. Under
    // cFCFS there is one ring; under dFCFS the ring is the core.
    let mut last = vec![vec![None::<u32>; CORES as usize]; PRODUCERS as usize];
    for msg in &popped {
        let Msg::Req { core, page } = *msg else {
            panic!("no closes were offered: {msg:?}");
        };
        let ring = match discipline {
            Discipline::Cfcfs => 0,
            Discipline::Dfcfs => core as usize,
        };
        assert!(ring < CORES as usize, "unroutable core {core} admitted");
        let (producer, seq) = decode(page);
        let prev = last[producer][ring].replace(seq);
        assert!(
            prev.is_none_or(|p| p < seq),
            "producer {producer} reordered in ring {ring}: {prev:?} then {seq}"
        );
    }
}

/// The same racing frames against the serve driver: at the end
/// `served + rejected_late == admitted`.
fn driver_under_racing_frames(discipline: Discipline) {
    let mut cfg = ServeConfig::new(CORES as usize, SimConfig::new(8, 1));
    cfg.discipline = discipline;
    cfg.depth = 8;
    cfg.batch = 16;
    let server = Server::new(cfg, shared_lru()).unwrap();
    let report = std::thread::scope(|s| {
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|id| {
                let queues = server.client();
                s.spawn(move || produce(&queues, id))
            })
            .collect();
        let closer = server.client();
        let offered = s.spawn(move || {
            let n: u64 = producers.into_iter().map(|h| h.join().unwrap()).sum();
            closer.close(None);
            n
        });
        let report = server.run(|_| {}).unwrap();
        assert_eq!(report.totals.offered, offered.join().unwrap());
        report
    });
    let t = &report.totals;
    assert_eq!(t.offered, t.admitted + t.dropped);
    assert_eq!(report.served + report.rejected_late, t.admitted);
    assert_eq!(report.served, report.log.total_len() as u64);
}

#[test]
#[ignore]
fn racing_frames_keep_fifo_and_accounting() {
    for discipline in [Discipline::Cfcfs, Discipline::Dfcfs] {
        rings_under_a_live_consumer(discipline);
        driver_under_racing_frames(discipline);
    }
}
