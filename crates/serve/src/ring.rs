//! A bounded lock-free multi-producer / single-consumer ring buffer
//! (the Vyukov bounded-queue construction) carrying the serve layer's
//! admission messages.
//!
//! Producers are connection decoder threads and in-process clients;
//! the single consumer is the driver thread. `try_push` never blocks —
//! a full ring reports failure so the caller can account an explicit
//! *drop* (backpressure is observable, never silent). Slots carry
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
// the tail CAS and only read by the single consumer after observing the
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
        let mut tail = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[tail & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - tail as isize;
            if dif == 0 {
                match self.tail.compare_exchange_weak(
                    tail,
                    tail.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS gave this producer exclusive
                        // ownership of the slot until the seq store below.
                        unsafe { *slot.value.get() = msg };
                        slot.seq.store(tail.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(t) => tail = t,
                }
            } else if dif < 0 {
                return Err(msg); // full: consumer has not freed this slot
            } else {
                tail = self.tail.load(Ordering::Relaxed);
            }
        }
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
