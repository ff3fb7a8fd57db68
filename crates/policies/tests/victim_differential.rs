//! Differential property test of victim selection: every cell-keyed
//! policy in `mcp_policies` against the independent slice-scan model in
//! `naive_victim`, over random insert/access/remove sequences with victim
//! queries on random eligible subsets.
//!
//! Each page that enters the managed set is placed in a random free cell
//! of a cache wider than one mask word, so cell order — the candidate
//! order a [`Victims`] mask presents — is a random page order. A query is
//! a cell mask; the naive model receives the same candidates as a page
//! slice in cell order. Each victim must match, and so must the marking
//! phase and FWF flush counters after every operation.

mod naive_victim;

use mcp_core::{PageId, Victims};
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

/// Cache cells: more than one mask word, so masks and selection cross a
/// word boundary.
const CELLS: usize = 80;

#[derive(Clone, Debug)]
enum Op {
    /// Insert the page if it is not managed — into the free cell of rank
    /// `slot` modulo the free-cell count — else access it.
    Touch { page: u32, slot: usize },
    /// Remove the page if it is managed.
    Remove(u32),
    /// Query a victim among the managed pages whose bit is set in `mask`;
    /// remove it afterwards if `evict`.
    Query { mask: u16, evict: bool },
}

/// Touches, removals and queries in the ratio 5 : 1 : 3.
fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..9, 0..UNIVERSE, 0..=u16::MAX, 0..CELLS).prop_map(|(kind, page, mask, slot)| match kind {
        0..=4 => Op::Touch { page, slot },
        5 => Op::Remove(page),
        _ => Op::Query {
            mask,
            evict: kind == 8,
        },
    })
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
    // `cells[c]` is the page managed in cell `c`, if any.
    let mut cells: Vec<Option<PageId>> = vec![None; CELLS];
    let cell_of =
        |cells: &[Option<PageId>], page: PageId| cells.iter().position(|&p| p == Some(page));
    let mut stamp = 0u64;
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Touch { page, slot } => {
                let page = PageId(page);
                stamp += 1;
                if let Some(cell) = cell_of(&cells, page) {
                    subject.on_access(cell, page, stamp);
                    model.on_access(page, stamp);
                } else {
                    let free: Vec<usize> = (0..CELLS).filter(|&c| cells[c].is_none()).collect();
                    let cell = free[slot % free.len()];
                    cells[cell] = Some(page);
                    subject.on_insert(cell, page, stamp);
                    model.on_insert(page, stamp);
                }
            }
            Op::Remove(v) => {
                let page = PageId(v);
                if let Some(cell) = cell_of(&cells, page) {
                    cells[cell] = None;
                    subject.on_remove(cell);
                    model.on_remove(page);
                }
            }
            Op::Query { mask, evict } => {
                let mut words = vec![0u64; CELLS.div_ceil(64)];
                let mut candidates: Vec<PageId> = Vec::new();
                for (cell, page) in cells.iter().enumerate() {
                    if let Some(page) = *page {
                        if mask & (1 << page.0) != 0 {
                            words[cell / 64] |= 1 << (cell % 64);
                            candidates.push(page);
                        }
                    }
                }
                if candidates.is_empty() {
                    continue;
                }
                let pages: Vec<PageId> = cells
                    .iter()
                    .map(|p| p.unwrap_or(PageId(u32::MAX)))
                    .collect();
                let got = subject.choose_victim(&Victims::new(&words, &pages));
                let want = model.choose_victim(&candidates);
                prop_assert_eq!(
                    cells[got],
                    Some(want),
                    "victim at step {} over {:?} (cell {})",
                    step,
                    candidates,
                    got
                );
                if evict {
                    cells[got] = None;
                    subject.on_remove(got);
                    model.on_remove(want);
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
