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

    /// Push one request into its ring if routable, ungated and not full.
    /// Counts nothing but queue-full drops per ring.
    fn try_admit(&self, core: u32, page: u32) -> bool {
        let s = &*self.inner;
        let Some(ring) = self.ring_of(core) else {
            return false;
        };
        if self.gate_closed(core) {
            return false;
        }
        if s.rings[ring].try_push(Msg::Req { core, page }).is_ok() {
            return true;
        }
        s.ring_dropped[ring].fetch_add(1, Ordering::Relaxed);
        false
    }

    /// Offer a batch of `(core, page)` requests in order — one decoded
    /// `REQS` frame. Returns how many were admitted; the rest dropped
    /// (full queue, unroutable core, or core already closed). Costs two
    /// counter updates per batch (one when nothing drops) plus the
    /// ring's per-request CAS.
    pub fn offer_many(&self, reqs: &[(u32, u32)]) -> usize {
        if reqs.is_empty() {
            return 0;
        }
        let s = &*self.inner;
        s.offered.fetch_add(reqs.len() as u64, Ordering::Relaxed);
        let admitted = reqs
            .iter()
            .filter(|&&(core, page)| self.try_admit(core, page))
            .count();
        let dropped = (reqs.len() - admitted) as u64;
        if dropped > 0 {
            s.dropped.fetch_add(dropped, Ordering::Release);
        }
        admitted
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
}
