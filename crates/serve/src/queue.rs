//! Queue disciplines and admission accounting.
//!
//! A [`QueueSet`] is the admission boundary between transport threads
//! and the driver: **cFCFS** funnels every request through one shared
//! ring, **dFCFS** keeps one ring per core keyed by the request's
//! issuing core (the two disciplines of the `carvalhof/sim` exemplar,
//! mapped onto the paper's per-core sequences). Admission is strictly
//! accounted: every request handed to [`QueueSet::offer_many`] (one
//! decoded frame at a time) either *admits* into a ring or *drops* (ring
//! full, unroutable core, or closed gate). Only `offered` and `dropped`
//! are counted; `admitted` is derived as their difference, so
//! `offered == admitted + dropped` holds exactly at all times — the
//! backpressure contract the serve tests pin.

use crate::ring::{Msg, Ring};
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// How requests map onto the engine's cores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Discipline {
    /// One shared FCFS queue; the driver assigns each popped request to
    /// the open engine core with the fewest requests assigned so far
    /// (ties to the lowest core id) — a rotation over the cores, since
    /// under cFCFS they are all open or all closed. The assignment
    /// depends only on the admission order, never on drain batching or
    /// timing, so seeded runs replay bit-identically.
    Cfcfs,
    /// One queue per core; a request is routed by its own `core` field.
    Dfcfs,
}

impl Discipline {
    /// The canonical lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            Discipline::Cfcfs => "cfcfs",
            Discipline::Dfcfs => "dfcfs",
        }
    }
}

impl fmt::Display for Discipline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Discipline {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "cfcfs" => Ok(Discipline::Cfcfs),
            "dfcfs" => Ok(Discipline::Dfcfs),
            other => Err(format!("unknown discipline {other:?}; try cfcfs or dfcfs")),
        }
    }
}

struct Shared {
    discipline: Discipline,
    cores: usize,
    rings: Vec<Ring>,
    /// Requests presented. A batch publishes its whole size *before* its
    /// first push, so any request the consumer can pop is already
    /// counted here.
    offered: AtomicU64,
    /// Requests refused. A batch publishes its drops (release) *after*
    /// its last push, so a reader that loads `dropped` (acquire) before
    /// `offered` never sees a drop without its offer.
    dropped: AtomicU64,
    /// Drops attributed per ring (queue-full only; unroutable cores have
    /// no ring).
    ring_dropped: Vec<AtomicU64>,
    /// Producer-side close hints: set the moment a close is *enqueued*,
    /// so later offers for that core drop at the gate instead of dying
    /// inside the engine.
    closed: Vec<AtomicBool>,
    all_closed: AtomicBool,
}

/// Cloneable producer handle: transport threads and in-process clients
/// offer requests and closes through this.
#[derive(Clone)]
pub struct QueueSet {
    inner: Arc<Shared>,
}

/// The unique consumer token — popping is single-consumer by
/// construction because `Consumer` is not `Clone`.
pub struct Consumer {
    inner: Arc<Shared>,
    /// The ring [`Consumer::drain`] pops from next.
    next_ring: usize,
}

/// A point-in-time copy of the admission counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueueTotals {
    /// Requests presented to the queue set.
    pub offered: u64,
    /// Requests offered and not dropped: `offered - dropped`. Exactly
    /// the requests that entered a ring once producers are quiescent;
    /// mid-batch it also counts the batch's not-yet-pushed tail, so it
    /// never undercounts what the consumer has popped.
    pub admitted: u64,
    /// Requests refused (full ring or unroutable core).
    pub dropped: u64,
    /// Queue-full drops per ring.
    pub ring_dropped: Vec<u64>,
}

impl QueueSet {
    /// Build the queue set and its unique consumer. `depth` is the
    /// per-ring capacity (rounded up to a power of two).
    pub fn new(discipline: Discipline, cores: usize, depth: usize) -> (QueueSet, Consumer) {
        let nrings = match discipline {
            Discipline::Cfcfs => 1,
            Discipline::Dfcfs => cores,
        };
        let inner = Arc::new(Shared {
            discipline,
            cores,
            rings: (0..nrings).map(|_| Ring::new(depth)).collect(),
            offered: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            ring_dropped: (0..nrings).map(|_| AtomicU64::new(0)).collect(),
            closed: (0..cores).map(|_| AtomicBool::new(false)).collect(),
            all_closed: AtomicBool::new(false),
        });
        (
            QueueSet {
                inner: Arc::clone(&inner),
            },
            Consumer {
                inner,
                next_ring: 0,
            },
        )
    }

    /// The discipline in force.
    pub fn discipline(&self) -> Discipline {
        self.inner.discipline
    }

    /// Number of engine cores.
    pub fn cores(&self) -> usize {
        self.inner.cores
    }

    fn ring_of(&self, core: u32) -> Option<usize> {
        match self.inner.discipline {
            Discipline::Cfcfs => Some(0),
            Discipline::Dfcfs => {
                if (core as usize) < self.inner.cores {
                    Some(core as usize)
                } else {
                    None
                }
            }
        }
    }

    /// `true` when the producer-side gate refuses `core`'s requests.
    fn gate_closed(&self, core: u32) -> bool {
        let s = &*self.inner;
        s.all_closed.load(Ordering::Acquire)
            || (s.discipline == Discipline::Dfcfs
                && s.closed[core as usize].load(Ordering::Acquire))
    }

    /// Offer a batch of `(core, page)` requests in order — one decoded
    /// `REQS` frame. Returns how many were admitted; the rest dropped
    /// (full queue, unroutable core, or core already closed).
    ///
    /// The frame is admitted in runs that map to one ring, never
    /// reordered: under cFCFS the whole frame is one run, under dFCFS a
    /// run is consecutive requests of one core. A run costs one
    /// routability check, one gate check and one ring reservation
    /// ([`Ring::push_run`]); the part of a run that does not fit drops
    /// and is counted against its ring. The frame costs two counter
    /// updates (one when nothing drops).
    pub fn offer_many(&self, reqs: &[(u32, u32)]) -> usize {
        if reqs.is_empty() {
            return 0;
        }
        let s = &*self.inner;
        s.offered.fetch_add(reqs.len() as u64, Ordering::Relaxed);
        let mut admitted = 0;
        let mut rest = reqs;
        while let Some(&(core, _)) = rest.first() {
            let len = match s.discipline {
                Discipline::Cfcfs => rest.len(),
                Discipline::Dfcfs => rest
                    .iter()
                    .position(|&(c, _)| c != core)
                    .unwrap_or(rest.len()),
            };
            let (run, tail) = rest.split_at(len);
            admitted += self.admit_run(core, run);
            rest = tail;
        }
        let dropped = (reqs.len() - admitted) as u64;
        if dropped > 0 {
            s.dropped.fetch_add(dropped, Ordering::Release);
        }
        admitted
    }

    /// Push the longest prefix of `run` that fits into `core`'s ring, if
    /// `core` is routable and ungated; returns the prefix length. Counts
    /// nothing but the run's queue-full drops against its ring.
    fn admit_run(&self, core: u32, run: &[(u32, u32)]) -> usize {
        let s = &*self.inner;
        let Some(ring) = self.ring_of(core) else {
            return 0;
        };
        if self.gate_closed(core) {
            return 0;
        }
        let pushed = s.rings[ring].push_run(run, |&(core, page)| Msg::Req { core, page });
        if pushed < run.len() {
            s.ring_dropped[ring].fetch_add((run.len() - pushed) as u64, Ordering::Relaxed);
        }
        pushed
    }

    /// Offer one request. Returns `true` when admitted, `false` when
    /// dropped (full queue, unroutable core, or core already closed).
    pub fn offer(&self, core: u32, page: u32) -> bool {
        self.offer_many(&[(core, page)]) == 1
    }

    /// Offer, spinning until admitted — the lossless path for seeded
    /// deterministic producers. Gives up (returning `false`, counted as
    /// a drop) once `stop` reads `true` or the stream is closed.
    pub fn offer_blocking(&self, core: u32, page: u32, stop: &AtomicBool) -> bool {
        let s = &*self.inner;
        s.offered.fetch_add(1, Ordering::Relaxed);
        let admitted = self.ring_of(core).is_some_and(|ring| loop {
            if stop.load(Ordering::Acquire) || self.gate_closed(core) {
                break false;
            }
            if s.rings[ring].try_push(Msg::Req { core, page }).is_ok() {
                break true;
            }
            std::hint::spin_loop();
        });
        if !admitted {
            s.dropped.fetch_add(1, Ordering::Release);
        }
        admitted
    }

    /// Enqueue a close for `core` (`None` = every core). Closes travel
    /// through the rings so they cannot overtake queued requests — under
    /// dFCFS a close-all therefore lands one marker in *every* ring, so
    /// no ring's queued requests can be orphaned behind another ring's
    /// close. The producer-side gates flip immediately so later offers
    /// drop. Spins until each marker is admitted (close is never lost).
    pub fn close(&self, core: Option<u32>) {
        let s = &*self.inner;
        match core {
            None => {
                s.all_closed.store(true, Ordering::Release);
                for gate in &s.closed {
                    gate.store(true, Ordering::Release);
                }
                match s.discipline {
                    Discipline::Cfcfs => self.push_marker(0, Msg::Close { core: u32::MAX }),
                    Discipline::Dfcfs => {
                        for ring in 0..s.rings.len() {
                            self.push_marker(ring, Msg::Close { core: ring as u32 });
                        }
                    }
                }
            }
            Some(c) => {
                let Some(ring) = self.ring_of(c) else {
                    return; // unroutable close: nothing to end
                };
                if s.discipline == Discipline::Dfcfs {
                    s.closed[c as usize].store(true, Ordering::Release);
                } else {
                    // cFCFS has one logical input stream: any close
                    // ends it (documented in DESIGN §14).
                    s.all_closed.store(true, Ordering::Release);
                }
                self.push_marker(ring, Msg::Close { core: c });
            }
        }
    }

    /// Spin a marker into `ring` (markers must never be dropped).
    fn push_marker(&self, ring: usize, marker: Msg) {
        let mut msg = marker;
        while let Err(back) = self.inner.rings[ring].try_push(msg) {
            msg = back;
            std::thread::yield_now();
        }
    }

    /// Flip every producer-side close gate *without* enqueuing markers —
    /// the driver's shutdown path. The driver closes the engine directly
    /// and must not push into rings only it drains (a full ring would
    /// deadlock it against itself); producers racing this gate have their
    /// offers dropped and accounted as usual.
    pub fn gate_close_all(&self) {
        let s = &*self.inner;
        s.all_closed.store(true, Ordering::Release);
        for gate in &s.closed {
            gate.store(true, Ordering::Release);
        }
    }

    /// Current counter values. `dropped` is read before `offered` (see
    /// the field docs), so `admitted = offered - dropped` cannot
    /// underflow and, read on the consumer thread, is at least every
    /// request popped so far.
    pub fn totals(&self) -> QueueTotals {
        let s = &*self.inner;
        let dropped = s.dropped.load(Ordering::Acquire);
        let offered = s.offered.load(Ordering::Relaxed);
        QueueTotals {
            offered,
            admitted: offered - dropped,
            dropped,
            ring_dropped: s
                .ring_dropped
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

#[cfg(test)]
impl QueueSet {
    /// Push `msg` into `ring` past every gate and counter — lets tests
    /// queue requests behind a close marker, as a producer racing the
    /// close can.
    pub(crate) fn push_raw(&self, ring: usize, msg: Msg) {
        self.push_marker(ring, msg);
    }
}

impl Consumer {
    /// Drain up to `max` messages (a batched dequeue: one wake-up serves
    /// a whole batch). Ring by ring, not message by message: it pops the
    /// current ring until that ring is empty, then moves to the next,
    /// and stops after `max` messages or a full lap of empty rings. The
    /// current ring carries over to the next call. Returns the number
    /// delivered to `sink`.
    pub fn drain(&mut self, max: usize, mut sink: impl FnMut(Msg)) -> usize {
        let s = &*self.inner;
        let nrings = s.rings.len();
        let mut delivered = 0;
        let mut idle_rings = 0;
        while delivered < max && idle_rings < nrings {
            match s.rings[self.next_ring % nrings].pop() {
                Some(msg) => {
                    idle_rings = 0;
                    delivered += 1;
                    sink(msg);
                }
                None => {
                    idle_rings += 1;
                    self.next_ring = (self.next_ring + 1) % nrings;
                }
            }
        }
        delivered
    }

    /// `true` when every ring is currently empty.
    pub fn is_empty(&self) -> bool {
        self.inner.rings.iter().all(Ring::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discipline_parsing() {
        assert_eq!("cfcfs".parse::<Discipline>().unwrap(), Discipline::Cfcfs);
        assert_eq!("dfcfs".parse::<Discipline>().unwrap(), Discipline::Dfcfs);
        assert!("fcfs".parse::<Discipline>().is_err());
        assert_eq!(Discipline::Cfcfs.to_string(), "cfcfs");
    }

    #[test]
    fn accounting_is_exact_under_overflow() {
        let (q, mut c) = QueueSet::new(Discipline::Dfcfs, 2, 4);
        let mut admitted = 0;
        for i in 0..50u32 {
            if q.offer(i % 2, i) {
                admitted += 1;
            }
        }
        let t = q.totals();
        assert_eq!(t.offered, 50);
        assert_eq!(t.admitted, admitted);
        assert_eq!(t.offered, t.admitted + t.dropped, "exact conservation");
        assert!(t.dropped > 0, "depth 4 must overflow");
        assert_eq!(t.ring_dropped.iter().sum::<u64>(), t.dropped);
        // Draining frees space for more admissions.
        let mut n = 0;
        c.drain(usize::MAX, |_| n += 1);
        assert_eq!(n as u64, t.admitted);
        assert!(q.offer(0, 1));
    }

    #[test]
    fn unroutable_cores_drop() {
        let (q, _c) = QueueSet::new(Discipline::Dfcfs, 2, 8);
        assert!(!q.offer(7, 1));
        let t = q.totals();
        assert_eq!((t.offered, t.admitted, t.dropped), (1, 0, 1));
        // cFCFS routes any core id through the shared ring.
        let (q, _c) = QueueSet::new(Discipline::Cfcfs, 2, 8);
        assert!(q.offer(7, 1));
    }

    #[test]
    fn close_gates_later_offers() {
        let (q, mut c) = QueueSet::new(Discipline::Dfcfs, 2, 8);
        assert!(q.offer(0, 1));
        q.close(Some(0));
        assert!(!q.offer(0, 2), "offers after close drop at the gate");
        assert!(q.offer(1, 3), "other cores unaffected");
        let mut msgs = Vec::new();
        c.drain(usize::MAX, |m| msgs.push(m));
        assert_eq!(
            msgs,
            vec![
                Msg::Req { core: 0, page: 1 },
                Msg::Close { core: 0 },
                Msg::Req { core: 1, page: 3 },
            ]
        );
        let t = q.totals();
        assert_eq!(t.offered, 3);
        assert_eq!(t.admitted + t.dropped, 3);
    }

    #[test]
    fn close_all_ends_the_cfcfs_stream() {
        let (q, mut c) = QueueSet::new(Discipline::Cfcfs, 4, 8);
        assert!(q.offer(3, 9));
        q.close(Some(1)); // any close ends the cFCFS stream
        assert!(!q.offer(0, 1));
        let mut msgs = Vec::new();
        c.drain(usize::MAX, |m| msgs.push(m));
        assert_eq!(msgs.len(), 2);
        assert_eq!(msgs[1], Msg::Close { core: 1 });
    }

    #[test]
    fn drain_batches_ring_by_ring() {
        let (q, mut c) = QueueSet::new(Discipline::Dfcfs, 3, 16);
        for core in 0..3u32 {
            for i in 0..4u32 {
                assert!(q.offer(core, core * 10 + i));
            }
        }
        let page = |m: Msg| match m {
            Msg::Req { page, .. } => page,
            Msg::Close { .. } => unreachable!("no closes offered"),
        };
        // Ring 0 empties before ring 1 is touched; the batch cut leaves
        // the consumer on ring 1 for the next call.
        let mut got = Vec::new();
        assert_eq!(c.drain(5, |m| got.push(page(m))), 5);
        assert_eq!(got, vec![0, 1, 2, 3, 10]);
        assert!(q.offer(0, 4), "ring 0 refilled behind the cursor");
        let mut rest = Vec::new();
        assert_eq!(c.drain(usize::MAX, |m| rest.push(page(m))), 8);
        assert_eq!(rest, vec![11, 12, 13, 20, 21, 22, 23, 4]);
        assert!(c.is_empty());
        assert_eq!(c.drain(usize::MAX, |_| {}), 0);
    }

    #[test]
    fn offer_many_accounts_per_batch() {
        let (q, mut c) = QueueSet::new(Discipline::Dfcfs, 2, 4);
        // Core 5 is unroutable; ring 0 holds four.
        let batch: Vec<(u32, u32)> = (0..6).map(|i| (0, i)).chain([(5, 9), (1, 7)]).collect();
        assert_eq!(q.offer_many(&batch), 5);
        let t = q.totals();
        assert_eq!((t.offered, t.admitted, t.dropped), (8, 5, 3));
        assert_eq!(t.ring_dropped, vec![2, 0], "unroutable drops have no ring");
        assert_eq!(q.offer_many(&[]), 0);
        let mut msgs = Vec::new();
        c.drain(usize::MAX, |m| msgs.push(m));
        let want: Vec<Msg> = (0..4)
            .map(|page| Msg::Req { core: 0, page })
            .chain([Msg::Req { core: 1, page: 7 }])
            .collect();
        assert_eq!(msgs, want);
        q.close(Some(1));
        assert_eq!(q.offer_many(&[(1, 1), (0, 2)]), 1, "closed gate drops");
        let t = q.totals();
        assert_eq!((t.offered, t.admitted, t.dropped), (10, 6, 4));
    }

    #[test]
    fn offer_blocking_counts_its_give_up_as_a_drop() {
        let (q, _c) = QueueSet::new(Discipline::Cfcfs, 2, 2);
        let stop = AtomicBool::new(false);
        assert!(q.offer_blocking(0, 1, &stop));
        assert!(q.offer_blocking(1, 2, &stop));
        stop.store(true, Ordering::Release);
        assert!(
            !q.offer_blocking(0, 3, &stop),
            "full ring and stop: give up"
        );
        let t = q.totals();
        assert_eq!((t.offered, t.admitted, t.dropped), (3, 2, 1));
        assert_eq!(
            t.ring_dropped,
            vec![0],
            "a give-up is not a queue-full drop"
        );
    }

    fn drain_all(c: &mut Consumer) -> Vec<Msg> {
        let mut msgs = Vec::new();
        c.drain(usize::MAX, |m| msgs.push(m));
        msgs
    }

    fn frame(core: u32, pages: std::ops::Range<u32>) -> Vec<(u32, u32)> {
        pages.map(|page| (core, page)).collect()
    }

    #[test]
    fn a_frame_larger_than_the_free_space_admits_its_prefix() {
        let (q, mut c) = QueueSet::new(Discipline::Cfcfs, 4, 8);
        assert_eq!(q.offer_many(&frame(0, 0..3)), 3);
        // One run for the whole cFCFS frame, whatever its cores.
        let big: Vec<(u32, u32)> = (0..20).map(|i| (i % 4, 100 + i)).collect();
        assert_eq!(q.offer_many(&big), 5);
        let t = q.totals();
        assert_eq!((t.offered, t.admitted, t.dropped), (23, 8, 15));
        assert_eq!(t.ring_dropped, vec![15]);
        let want: Vec<Msg> = frame(0, 0..3)
            .into_iter()
            .chain(big[..5].iter().copied())
            .map(|(core, page)| Msg::Req { core, page })
            .collect();
        assert_eq!(drain_all(&mut c), want);
        // A frame longer than the whole ring fills it and no more.
        assert_eq!(q.offer_many(&frame(1, 0..100)), 8);
        assert_eq!(q.totals().ring_dropped, vec![15 + 92]);
    }

    #[test]
    fn gates_closed_mid_stream_drop_whole_runs() {
        let (q, mut c) = QueueSet::new(Discipline::Dfcfs, 3, 16);
        let mixed = |base: u32| -> Vec<(u32, u32)> {
            [
                (0, base),
                (0, base + 1),
                (1, base + 2),
                (2, base + 3),
                (1, base + 4),
            ]
            .into()
        };
        assert_eq!(q.offer_many(&mixed(0)), 5);
        q.close(Some(1));
        assert_eq!(
            q.offer_many(&mixed(10)),
            3,
            "core 1's two runs drop at the gate"
        );
        q.close(None);
        assert_eq!(q.offer_many(&mixed(20)), 0, "close-all gates every run");
        let t = q.totals();
        assert_eq!((t.offered, t.admitted, t.dropped), (15, 8, 7));
        assert_eq!(t.ring_dropped, vec![0, 0, 0], "gate drops have no ring");
        let msgs = drain_all(&mut c);
        assert_eq!(
            msgs.len(),
            8 + 1 + 3,
            "requests, core 1's close, close-all's"
        );
        assert_eq!(
            msgs.iter()
                .filter(|m| **m == Msg::Close { core: 1 })
                .count(),
            2,
            "core 1's own close, then close-all's marker"
        );

        let (q, mut c) = QueueSet::new(Discipline::Cfcfs, 3, 16);
        assert_eq!(q.offer_many(&mixed(0)), 5);
        q.close(Some(2));
        assert_eq!(
            q.offer_many(&mixed(10)),
            0,
            "any close ends the cFCFS stream"
        );
        assert_eq!(drain_all(&mut c).last(), Some(&Msg::Close { core: 2 }));
    }

    #[test]
    fn unroutable_cores_inside_a_dfcfs_frame_drop_alone() {
        let (q, mut c) = QueueSet::new(Discipline::Dfcfs, 2, 4);
        let batch = [
            (0, 1),
            (0, 2),
            (7, 3),
            (7, 4),
            (1, 5),
            (2, 6),
            (0, 7),
            (9, 8),
        ];
        assert_eq!(q.offer_many(&batch), 4);
        let t = q.totals();
        assert_eq!((t.offered, t.admitted, t.dropped), (8, 4, 4));
        assert_eq!(t.ring_dropped, vec![0, 0], "unroutable drops have no ring");
        let want: Vec<Msg> = [(0, 1), (0, 2), (0, 7), (1, 5)]
            .into_iter()
            .map(|(core, page)| Msg::Req { core, page })
            .collect();
        assert_eq!(drain_all(&mut c), want);
    }

    #[test]
    fn ring_drops_sum_to_the_drops_when_every_core_routes() {
        let (q, mut c) = QueueSet::new(Discipline::Dfcfs, 3, 4);
        for round in 0..20u32 {
            // Runs of varying length, so each ring overflows part way
            // through some run.
            let batch: Vec<(u32, u32)> = (0..12)
                .map(|i| ((i / (1 + round % 4)) % 3, round * 100 + i))
                .collect();
            q.offer_many(&batch);
            if round % 3 == 0 {
                drain_all(&mut c);
            }
            let t = q.totals();
            assert_eq!(t.offered, t.admitted + t.dropped);
            assert_eq!(
                t.ring_dropped.iter().sum::<u64>(),
                t.dropped,
                "round {round}"
            );
        }
        assert!(q.totals().dropped > 0, "depth 4 must overflow");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// On a quiescent queue set, offering a frame whole leaves the
        /// rings and the counters exactly as offering its requests one by
        /// one does, across both disciplines, full rings, closes,
        /// unroutable cores and partial drains.
        #[test]
        fn offer_many_matches_per_request_offers(
            dfcfs in 0u32..2,
            cores in 1usize..4,
            depth in 1usize..12,
            ops in proptest::collection::vec(
                (0u32..10, proptest::collection::vec((0u32..5, 0u32..50), 0..24), 0u32..12),
                1..40,
            ),
        ) {
            let discipline = if dfcfs == 1 { Discipline::Dfcfs } else { Discipline::Cfcfs };
            let (whole, mut whole_c) = QueueSet::new(discipline, cores, depth);
            let (single, mut single_c) = QueueSet::new(discipline, cores, depth);
            for (kind, reqs, arg) in ops {
                match kind {
                    // A close spins its marker in, so make room first.
                    9 => {
                        proptest::prop_assert_eq!(drain_all(&mut whole_c), drain_all(&mut single_c));
                        let core = (arg > 0).then_some(arg % (cores as u32 + 1));
                        whole.close(core);
                        single.close(core);
                    }
                    7 | 8 => {
                        let (mut a, mut b) = (Vec::new(), Vec::new());
                        whole_c.drain(arg as usize, |m| a.push(m));
                        single_c.drain(arg as usize, |m| b.push(m));
                        proptest::prop_assert_eq!(a, b);
                    }
                    _ => {
                        let admitted = reqs.iter().filter(|&&(c, p)| single.offer(c, p)).count();
                        proptest::prop_assert_eq!(whole.offer_many(&reqs), admitted);
                    }
                }
                proptest::prop_assert_eq!(whole.totals(), single.totals());
            }
            proptest::prop_assert_eq!(drain_all(&mut whole_c), drain_all(&mut single_c));
        }
    }
}
