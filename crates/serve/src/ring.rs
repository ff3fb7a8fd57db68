//! A bounded lock-free multi-producer / single-consumer ring buffer
//! (the Vyukov bounded-queue construction) carrying the serve layer's
//! admission messages.
//!
//! Producers are connection decoder threads and in-process clients;
//! the single consumer is the driver thread. Pushes never block — a full
//! ring reports failure so the caller can account an explicit *drop*
//! (backpressure is observable, never silent). `push_run` claims a run
//! of slots with one CAS on `tail`; `try_push` is a run of one. Slots carry
//! per-slot sequence numbers, so producers and the consumer synchronize
//! per cell rather than through a shared lock; with a single producer
//! the queue degenerates to a plain SPSC ring with no contended CAS.
//!
//! Layout follows crossbeam's `ArrayQueue`: slots are packed (24 bytes
//! each, several to a cache line) and the two cursors each get their own
//! padded line, so producers bumping `tail` never invalidate the line the
//! consumer reads `head` from.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One admission message: a page request attributed to a core, or the
/// core's end-of-stream marker. Close markers travel through the same
/// ring as requests so a core's close cannot overtake its queued
/// requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Msg {
    /// A request for `page` issued by (or routed to) `core`.
    Req {
        /// Issuing core (dFCFS routing key; advisory under cFCFS).
        core: u32,
        /// Requested page.
        page: u32,
    },
    /// Core `core` has no further requests (`u32::MAX` = every core).
    Close {
        /// The closing core, or `u32::MAX` for all.
        core: u32,
    },
}

struct Slot {
    seq: AtomicUsize,
    value: UnsafeCell<Msg>,
}

/// A value alone on its cache line(s). 128 bytes, not 64: x86's
/// adjacent-line prefetcher pulls cache lines in pairs.
#[repr(align(128))]
struct CachePadded<T>(T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// The bounded MPSC ring. Capacity is rounded up to a power of two.
pub struct Ring {
    /// Consumer cursor (next slot to read). Single consumer only.
    head: CachePadded<AtomicUsize>,
    /// Producer cursor (next slot to claim).
    tail: CachePadded<AtomicUsize>,
    slots: Box<[Slot]>,
    mask: usize,
}

// SAFETY: slots are only written by the producer that claimed them via
// a tail CAS and only read by the single consumer after observing the
// slot's published sequence number (acquire/release pairs below).
unsafe impl Send for Ring {}
unsafe impl Sync for Ring {}

impl Ring {
    /// A ring holding at least `capacity` messages (rounded up to a
    /// power of two, minimum 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(Msg::Close { core: u32::MAX }),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Ring {
            head: CachePadded(AtomicUsize::new(0)),
            tail: CachePadded(AtomicUsize::new(0)),
            slots,
            mask: cap - 1,
        }
    }

    /// The ring's (rounded) capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Push without blocking. `Err(msg)` means the ring is full — the
    /// caller decides whether that is a drop or a retry.
    pub fn try_push(&self, msg: Msg) -> Result<(), Msg> {
        match self.push_run(&[msg], |&m| m) {
            1 => Ok(()),
            _ => Err(msg),
        }
    }

    /// Push the longest prefix of `items` that fits, as `msg(item)`, with
    /// one reservation: read `tail`, count the next slots that are free on
    /// this lap (sequence number equal to their position), and claim them
    /// all with a single CAS of `tail`. Returns the prefix length; the
    /// rest did not fit. Only the single consumer frees slots, and it
    /// frees them in order, so the CAS that validates `tail` also makes
    /// the counted slots this producer's alone. A slot the consumer frees
    /// after the count is not waited for: the run stops where the count
    /// did.
    pub fn push_run<T>(&self, items: &[T], msg: impl Fn(&T) -> Msg) -> usize {
        let want = items.len().min(self.slots.len());
        if want == 0 {
            return 0;
        }
        let is_free = |pos: usize| self.slots[pos & self.mask].seq.load(Ordering::Acquire) == pos;
        let mut tail = self.tail.load(Ordering::Relaxed);
        let free = loop {
            // Freed in order: if the run's last slot is free on this lap,
            // so is every slot before it, and the acquire load of its
            // sequence orders this producer's writes after the consumer's
            // reads of all of them. (A slot another producer claimed since
            // moved `tail`, so the CAS fails.) Only a run that does not
            // fit is counted slot by slot.
            let free = if is_free(tail.wrapping_add(want - 1)) {
                want
            } else {
                (0..want)
                    .take_while(|&i| is_free(tail.wrapping_add(i)))
                    .count()
            };
            if free == 0 {
                let seq = self.slots[tail & self.mask].seq.load(Ordering::Acquire);
                if (seq as isize) - (tail as isize) < 0 {
                    return 0; // full: consumer has not freed this slot
                }
                // Another producer claimed this position: catch up.
                tail = self.tail.load(Ordering::Relaxed);
                continue;
            }
            match self.tail.compare_exchange_weak(
                tail,
                tail.wrapping_add(free),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break free,
                Err(t) => tail = t,
            }
        };
        let mut pos = tail;
        for item in &items[..free] {
            let slot = &self.slots[pos & self.mask];
            // SAFETY: the CAS gave this producer exclusive ownership of
            // the slot until the seq store below.
            unsafe { *slot.value.get() = msg(item) };
            pos = pos.wrapping_add(1);
            slot.seq.store(pos, Ordering::Release);
        }
        free
    }

    /// Pop one message. **Single-consumer**: callers must guarantee only
    /// one thread ever pops (the [`crate::queue::Consumer`] token does).
    pub(crate) fn pop(&self) -> Option<Msg> {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[head & self.mask];
        let seq = slot.seq.load(Ordering::Acquire);
        if (seq as isize) - (head.wrapping_add(1) as isize) < 0 {
            return None; // empty (or the producer has not published yet)
        }
        self.head.store(head.wrapping_add(1), Ordering::Relaxed);
        // SAFETY: the acquire load above observed the producer's release
        // store, so the slot value is fully written and now exclusively
        // ours until the seq store republishes the slot.
        let msg = unsafe { *slot.value.get() };
        slot.seq.store(
            head.wrapping_add(self.mask).wrapping_add(1),
            Ordering::Release,
        );
        Some(msg)
    }

    /// Messages currently buffered (approximate under concurrency; exact
    /// when producers are quiescent).
    pub fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Relaxed);
        tail.wrapping_sub(head)
    }

    /// `true` when no messages are buffered (same caveat as [`Ring::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn req(core: u32, page: u32) -> Msg {
        Msg::Req { core, page }
    }

    #[test]
    fn fifo_and_wraparound() {
        let ring = Ring::new(4);
        assert_eq!(ring.capacity(), 4);
        for round in 0..10u32 {
            for i in 0..4 {
                ring.try_push(req(0, round * 4 + i)).unwrap();
            }
            assert!(ring.try_push(req(0, 999)).is_err(), "full ring must refuse");
            for i in 0..4 {
                assert_eq!(ring.pop(), Some(req(0, round * 4 + i)));
            }
            assert_eq!(ring.pop(), None);
        }
    }

    fn reqs(core: u32, pages: std::ops::Range<u32>) -> Vec<(u32, u32)> {
        pages.map(|page| (core, page)).collect()
    }

    fn push_reqs(ring: &Ring, reqs: &[(u32, u32)]) -> usize {
        ring.push_run(reqs, |&(core, page)| Msg::Req { core, page })
    }

    fn pop_all(ring: &Ring) -> Vec<Msg> {
        std::iter::from_fn(|| ring.pop()).collect()
    }

    #[test]
    fn run_admits_exactly_the_prefix_that_fits() {
        let ring = Ring::new(8);
        assert_eq!(push_reqs(&ring, &reqs(0, 0..3)), 3);
        assert_eq!(push_reqs(&ring, &reqs(1, 0..10)), 5, "five slots were free");
        assert_eq!(ring.len(), 8);
        assert_eq!(
            push_reqs(&ring, &reqs(2, 0..4)),
            0,
            "full ring admits nothing"
        );
        let want: Vec<Msg> = (0..3)
            .map(|p| req(0, p))
            .chain((0..5).map(|p| req(1, p)))
            .collect();
        assert_eq!(pop_all(&ring), want);
        assert_eq!(push_reqs(&ring, &[]), 0);
        assert!(ring.is_empty());
    }

    #[test]
    fn run_longer_than_the_capacity_fills_the_ring() {
        let ring = Ring::new(4);
        assert_eq!(push_reqs(&ring, &reqs(0, 0..100)), 4);
        assert_eq!(
            pop_all(&ring),
            (0..4).map(|p| req(0, p)).collect::<Vec<_>>()
        );
        // One freed slot admits one more, from the run's start.
        assert_eq!(push_reqs(&ring, &reqs(0, 50..100)), 4);
        assert_eq!(ring.pop(), Some(req(0, 50)));
        assert_eq!(push_reqs(&ring, &reqs(0, 7..100)), 1);
        let want: Vec<Msg> = (51..54).map(|p| req(0, p)).chain([req(0, 7)]).collect();
        assert_eq!(pop_all(&ring), want);
    }

    #[test]
    fn runs_wrap_around_across_laps() {
        // Runs of 5 into 8 slots with 3 popped between them: runs start at
        // every offset, straddle the end of the slot array and often fit
        // only in part, over many laps of the sequence numbers.
        let ring = Ring::new(8);
        let mut next_push = 0u32;
        let mut next_pop = 0u32;
        for _ in 0..200 {
            let free = (8 - ring.len()) as u32;
            let pushed = push_reqs(&ring, &reqs(0, next_push..next_push + 5)) as u32;
            assert_eq!(pushed, free.min(5));
            next_push += pushed;
            for _ in 0..3 {
                match ring.pop() {
                    Some(msg) => {
                        assert_eq!(msg, req(0, next_pop));
                        next_pop += 1;
                    }
                    None => assert_eq!(next_pop, next_push),
                }
            }
        }
        assert!(next_push > 3 * 8 * 8, "many laps: {next_push}");
        assert_eq!(pop_all(&ring).len() as u32, next_push - next_pop);
    }

    #[test]
    fn try_push_is_a_run_of_one() {
        let ring = Ring::new(2);
        assert_eq!(ring.try_push(req(0, 1)), Ok(()));
        assert_eq!(push_reqs(&ring, &reqs(0, 2..9)), 1);
        assert_eq!(ring.try_push(req(0, 3)), Err(req(0, 3)));
        assert_eq!(pop_all(&ring), vec![req(0, 1), req(0, 2)]);
    }

    #[test]
    fn slots_are_packed_and_cursors_padded() {
        assert!(std::mem::size_of::<Slot>() <= 24, "a slot is seq + Msg");
        let ring = Ring::new(8);
        let line = |a: &AtomicUsize| a as *const AtomicUsize as usize / 64;
        assert_ne!(line(&ring.head), line(&ring.tail), "cursors share a line");
    }

    #[test]
    fn capacity_rounds_up() {
        assert_eq!(Ring::new(0).capacity(), 2);
        assert_eq!(Ring::new(3).capacity(), 4);
        assert_eq!(Ring::new(1024).capacity(), 1024);
    }

    #[test]
    fn close_markers_keep_order() {
        let ring = Ring::new(8);
        ring.try_push(req(1, 7)).unwrap();
        ring.try_push(Msg::Close { core: 1 }).unwrap();
        assert_eq!(ring.pop(), Some(req(1, 7)));
        assert_eq!(ring.pop(), Some(Msg::Close { core: 1 }));
    }

    #[test]
    fn multi_producer_preserves_every_message() {
        let ring = Arc::new(Ring::new(64));
        let producers = 4;
        let per = 5_000u32;
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..per {
                        let mut msg = req(p, i);
                        loop {
                            match ring.try_push(msg) {
                                Ok(()) => break,
                                Err(back) => {
                                    msg = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        let mut seen: Vec<Vec<u32>> = vec![Vec::new(); producers as usize];
        let mut total = 0u64;
        while total < (producers as u64) * per as u64 {
            if let Some(Msg::Req { core, page }) = ring.pop() {
                seen[core as usize].push(page);
                total += 1;
            } else {
                std::thread::yield_now();
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ring.pop(), None);
        // Per-producer FIFO: each producer's stream arrives in order.
        for (p, pages) in seen.iter().enumerate() {
            let want: Vec<u32> = (0..per).collect();
            assert_eq!(pages, &want, "producer {p} reordered");
        }
    }
}
