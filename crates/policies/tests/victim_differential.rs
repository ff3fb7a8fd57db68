//! Differential property test of victim selection: every streamed policy
//! in `mcp_policies` against the independent slice-scan model in
//! `naive_victim`, over random insert/access/remove sequences with victim
//! queries on random eligible subsets in random candidate order.
//!
//! Policies are driven only through `choose_victim_from` (the slice
//! wrapper `choose_victim` delegates to it, so it would be no oracle).
//! Each victim must match, and so must the marking phase and FWF flush
//! counters after every operation.

mod naive_victim;

use mcp_core::PageId;
use mcp_policies::{
    Belady, Clock, EvictionPolicy, Fifo, Fwf, Lfu, Lru, LruK, Marking, MarkingTie, Mru, RandomEvict,
};
use naive_victim::{
    NaiveBelady, NaiveClock, NaiveFifo, NaiveFwf, NaiveLfu, NaiveLru, NaiveLruK, NaiveMarking,
    NaiveMru, NaivePolicy, NaiveRandom,
};
use proptest::prelude::*;

/// Pages are drawn from `0..UNIVERSE`.
const UNIVERSE: u32 = 12;

#[derive(Clone, Debug)]
enum Op {
    /// Insert the page if it is not managed, else access it.
    Touch(u32),
    /// Remove the page if it is managed.
    Remove(u32),
    /// Query a victim among the managed pages whose bit is set in `mask`,
    /// listed in the order of `salt`; remove it afterwards if `evict`.
    Query { mask: u16, salt: u32, evict: bool },
}

/// Touches, removals and queries in the ratio 5 : 1 : 3.
fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..9, 0..UNIVERSE, 0..=u16::MAX, 0..=u32::MAX).prop_map(
        |(kind, page, mask, salt)| match kind {
            0..=4 => Op::Touch(page),
            5 => Op::Remove(page),
            _ => Op::Query {
                mask,
                salt,
                evict: kind == 8,
            },
        },
    )
}

/// The policy under test, with its phase/flush counter if it has one.
trait Subject: EvictionPolicy {
    fn epochs(&self) -> u64 {
        0
    }
}

impl Subject for Lru {}
impl Subject for Fifo {}
impl Subject for Clock {}
impl Subject for Lfu {}
impl Subject for Mru {}
impl Subject for LruK {}
impl Subject for RandomEvict {}
impl Subject for Belady {}
impl Subject for Fwf {
    fn epochs(&self) -> u64 {
        self.flushes
    }
}
impl Subject for Marking {
    fn epochs(&self) -> u64 {
        self.phases
    }
}

/// Drive `subject` and `model` through `ops` in lockstep, failing at the
/// first disagreement with the step that caused it.
fn lockstep(subject: &mut dyn Subject, model: &mut dyn NaivePolicy, ops: &[Op]) {
    let mut managed: Vec<PageId> = Vec::new();
    let mut stamp = 0u64;
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Touch(v) => {
                let page = PageId(v);
                stamp += 1;
                if managed.contains(&page) {
                    subject.on_access(page, stamp);
                    model.on_access(page, stamp);
                } else {
                    managed.push(page);
                    subject.on_insert(page, stamp);
                    model.on_insert(page, stamp);
                }
            }
            Op::Remove(v) => {
                let page = PageId(v);
                if let Some(i) = managed.iter().position(|&p| p == page) {
                    managed.remove(i);
                    subject.on_remove(page);
                    model.on_remove(page);
                }
            }
            Op::Query { mask, salt, evict } => {
                let mut candidates: Vec<PageId> = managed
                    .iter()
                    .copied()
                    .filter(|p| mask & (1 << p.0) != 0)
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                candidates.sort_by_key(|p| (p.0.wrapping_mul(0x9E37_79B9) ^ salt, p.0));
                let got = subject.choose_victim_from(&mut candidates.iter().copied(), &|p| {
                    candidates.contains(&p)
                });
                let want = model.choose_victim(&candidates);
                prop_assert_eq!(got, want, "victim at step {} over {:?}", step, candidates);
                if evict {
                    managed.retain(|&p| p != got);
                    subject.on_remove(got);
                    model.on_remove(got);
                }
            }
        }
        prop_assert_eq!(
            subject.epochs(),
            model.epochs(),
            "phase/flush count at step {}",
            step
        );
    }
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(arb_op(), 0..160)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn deterministic_rules_match_the_naive_model(ops in ops()) {
        lockstep(&mut Lru::new(), &mut NaiveLru::default(), &ops);
        lockstep(&mut Fifo::new(), &mut NaiveFifo::default(), &ops);
        lockstep(&mut Clock::new(), &mut NaiveClock::default(), &ops);
        lockstep(&mut Lfu::new(), &mut NaiveLfu::default(), &ops);
        lockstep(&mut Mru::new(), &mut NaiveMru::default(), &ops);
        lockstep(&mut Fwf::new(), &mut NaiveFwf::default(), &ops);
        lockstep(&mut LruK::new(2), &mut NaiveLruK::new(2), &ops);
        lockstep(&mut Marking::new(MarkingTie::Lru), &mut NaiveMarking::new(None), &ops);
    }

    #[test]
    fn random_rules_match_the_naive_model(ops in ops(), seed in 0..=u64::MAX) {
        lockstep(&mut RandomEvict::new(seed), &mut NaiveRandom::new(seed), &ops);
        lockstep(
            &mut Marking::new(MarkingTie::Random(seed)),
            &mut NaiveMarking::new(Some(seed)),
            &ops,
        );
    }

    #[test]
    fn belady_matches_the_naive_model(
        ops in ops(),
        seq in prop::collection::vec(0..UNIVERSE, 0..120),
    ) {
        let seq: Vec<PageId> = seq.into_iter().map(PageId).collect();
        lockstep(&mut Belady::for_sequence(&seq), &mut NaiveBelady::for_sequence(&seq), &ops);
    }
}
