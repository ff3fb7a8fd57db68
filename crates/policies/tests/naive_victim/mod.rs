//! A deliberately naive victim model: the slice-scan eviction policies
//! the streamed implementations in `mcp_policies` replaced, kept here as
//! an independent oracle. Every rule scans the candidate slice it is
//! given and keeps per-page state in std `HashMap`s; none of it shares
//! code with the crate under test.

use mcp_core::PageId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};

/// The naive counterpart of `mcp_policies::EvictionPolicy`.
pub trait NaivePolicy {
    fn on_insert(&mut self, page: PageId, stamp: u64);
    fn on_access(&mut self, page: PageId, stamp: u64);
    fn on_remove(&mut self, page: PageId);
    /// Choose a victim among `candidates` (nonempty; each is managed), in
    /// the order given.
    fn choose_victim(&mut self, candidates: &[PageId]) -> PageId;
    /// Completed marking phases or FWF flushes (0 for other rules).
    fn epochs(&self) -> u64 {
        0
    }
}

/// Oldest last use.
#[derive(Default)]
pub struct NaiveLru {
    last_use: HashMap<PageId, u64>,
}

impl NaivePolicy for NaiveLru {
    fn on_insert(&mut self, page: PageId, stamp: u64) {
        self.last_use.insert(page, stamp);
    }
    fn on_access(&mut self, page: PageId, stamp: u64) {
        self.last_use.insert(page, stamp);
    }
    fn on_remove(&mut self, page: PageId) {
        self.last_use.remove(&page);
    }
    fn choose_victim(&mut self, candidates: &[PageId]) -> PageId {
        *candidates
            .iter()
            .min_by_key(|p| self.last_use[p])
            .expect("candidates nonempty")
    }
}

/// Newest last use.
#[derive(Default)]
pub struct NaiveMru {
    last_use: HashMap<PageId, u64>,
}

impl NaivePolicy for NaiveMru {
    fn on_insert(&mut self, page: PageId, stamp: u64) {
        self.last_use.insert(page, stamp);
    }
    fn on_access(&mut self, page: PageId, stamp: u64) {
        self.last_use.insert(page, stamp);
    }
    fn on_remove(&mut self, page: PageId) {
        self.last_use.remove(&page);
    }
    fn choose_victim(&mut self, candidates: &[PageId]) -> PageId {
        *candidates
            .iter()
            .max_by_key(|p| self.last_use[p])
            .expect("candidates nonempty")
    }
}

/// Oldest insertion; accesses ignored.
#[derive(Default)]
pub struct NaiveFifo {
    inserted: HashMap<PageId, u64>,
}

impl NaivePolicy for NaiveFifo {
    fn on_insert(&mut self, page: PageId, stamp: u64) {
        self.inserted.insert(page, stamp);
    }
    fn on_access(&mut self, _page: PageId, _stamp: u64) {}
    fn on_remove(&mut self, page: PageId) {
        self.inserted.remove(&page);
    }
    fn choose_victim(&mut self, candidates: &[PageId]) -> PageId {
        *candidates
            .iter()
            .min_by_key(|p| self.inserted[p])
            .expect("candidates nonempty")
    }
}

/// Fewest uses, older insertion first.
#[derive(Default)]
pub struct NaiveLfu {
    uses: HashMap<PageId, (u64, u64)>,
}

impl NaivePolicy for NaiveLfu {
    fn on_insert(&mut self, page: PageId, stamp: u64) {
        self.uses.insert(page, (1, stamp));
    }
    fn on_access(&mut self, page: PageId, _stamp: u64) {
        if let Some((count, _)) = self.uses.get_mut(&page) {
            *count += 1;
        }
    }
    fn on_remove(&mut self, page: PageId) {
        self.uses.remove(&page);
    }
    fn choose_victim(&mut self, candidates: &[PageId]) -> PageId {
        *candidates
            .iter()
            .min_by_key(|p| self.uses[p])
            .expect("candidates nonempty")
    }
}

/// Second chance over a ring of pages.
#[derive(Default)]
pub struct NaiveClock {
    ring: Vec<PageId>,
    refbit: HashMap<PageId, bool>,
    hand: usize,
}

impl NaivePolicy for NaiveClock {
    fn on_insert(&mut self, page: PageId, _stamp: u64) {
        self.ring.push(page);
        self.refbit.insert(page, true);
    }
    fn on_access(&mut self, page: PageId, _stamp: u64) {
        if let Some(bit) = self.refbit.get_mut(&page) {
            *bit = true;
        }
    }
    fn on_remove(&mut self, page: PageId) {
        if let Some(pos) = self.ring.iter().position(|&p| p == page) {
            self.ring.remove(pos);
            if self.hand > pos {
                self.hand -= 1;
            }
            if self.ring.is_empty() {
                self.hand = 0;
            } else {
                self.hand %= self.ring.len();
            }
        }
        self.refbit.remove(&page);
    }
    fn choose_victim(&mut self, candidates: &[PageId]) -> PageId {
        for _ in 0..2 * self.ring.len().max(1) {
            let page = self.ring[self.hand];
            let bit = self.refbit.get_mut(&page).expect("ring page has a bit");
            self.hand = (self.hand + 1) % self.ring.len();
            if *bit {
                *bit = false;
            } else if candidates.contains(&page) {
                return page;
            }
        }
        candidates[0]
    }
}

/// Flush-When-Full: first untouched candidate, else flush.
#[derive(Default)]
pub struct NaiveFwf {
    touched: HashMap<PageId, bool>,
    flushes: u64,
}

impl NaivePolicy for NaiveFwf {
    fn on_insert(&mut self, page: PageId, _stamp: u64) {
        self.touched.insert(page, true);
    }
    fn on_access(&mut self, page: PageId, _stamp: u64) {
        self.touched.insert(page, true);
    }
    fn on_remove(&mut self, page: PageId) {
        self.touched.remove(&page);
    }
    fn choose_victim(&mut self, candidates: &[PageId]) -> PageId {
        if let Some(&victim) = candidates
            .iter()
            .find(|p| !self.touched.get(p).copied().unwrap_or(false))
        {
            return victim;
        }
        self.flushes += 1;
        for bit in self.touched.values_mut() {
            *bit = false;
        }
        candidates[0]
    }
    fn epochs(&self) -> u64 {
        self.flushes
    }
}

/// LRU-K: pages with fewer than K references first (oldest last
/// reference), then the oldest K-th reference; history survives removal.
pub struct NaiveLruK {
    k: usize,
    history: HashMap<PageId, VecDeque<u64>>,
}

impl NaiveLruK {
    pub fn new(k: usize) -> Self {
        NaiveLruK {
            k,
            history: HashMap::new(),
        }
    }
    fn record(&mut self, page: PageId, stamp: u64) {
        let h = self.history.entry(page).or_default();
        h.push_back(stamp);
        while h.len() > self.k {
            h.pop_front();
        }
    }
}

impl NaivePolicy for NaiveLruK {
    fn on_insert(&mut self, page: PageId, stamp: u64) {
        self.record(page, stamp);
    }
    fn on_access(&mut self, page: PageId, stamp: u64) {
        self.record(page, stamp);
    }
    fn on_remove(&mut self, _page: PageId) {}
    fn choose_victim(&mut self, candidates: &[PageId]) -> PageId {
        let key = |p: PageId| {
            let h = self.history.get(&p);
            match h {
                Some(h) if h.len() >= self.k => (1, *h.front().unwrap(), p),
                _ => (0, h.and_then(|h| h.back().copied()).unwrap_or(0), p),
            }
        };
        candidates.iter().copied().min_by_key(|&p| key(p)).unwrap()
    }
}

/// Phase-based marking with an LRU (`rng = None`) or seeded random tie
/// rule among unmarked candidates.
pub struct NaiveMarking {
    marked: HashMap<PageId, bool>,
    last_use: HashMap<PageId, u64>,
    rng: Option<StdRng>,
    phases: u64,
}

impl NaiveMarking {
    pub fn new(random_seed: Option<u64>) -> Self {
        NaiveMarking {
            marked: HashMap::new(),
            last_use: HashMap::new(),
            rng: random_seed.map(StdRng::seed_from_u64),
            phases: 0,
        }
    }
}

impl NaivePolicy for NaiveMarking {
    fn on_insert(&mut self, page: PageId, stamp: u64) {
        self.marked.insert(page, true);
        self.last_use.insert(page, stamp);
    }
    fn on_access(&mut self, page: PageId, stamp: u64) {
        self.marked.insert(page, true);
        self.last_use.insert(page, stamp);
    }
    fn on_remove(&mut self, page: PageId) {
        self.marked.remove(&page);
        self.last_use.remove(&page);
    }
    fn choose_victim(&mut self, candidates: &[PageId]) -> PageId {
        let mut unmarked: Vec<PageId> = candidates
            .iter()
            .copied()
            .filter(|p| !self.marked.get(p).copied().unwrap_or(false))
            .collect();
        if unmarked.is_empty() {
            self.phases += 1;
            for bit in self.marked.values_mut() {
                *bit = false;
            }
            unmarked = candidates.to_vec();
        }
        match &mut self.rng {
            Some(rng) => unmarked[rng.gen_range(0..unmarked.len())],
            None => *unmarked
                .iter()
                .min_by_key(|p| self.last_use.get(p).copied().unwrap_or(0))
                .unwrap(),
        }
    }
    fn epochs(&self) -> u64 {
        self.phases
    }
}

/// Uniformly random candidate.
pub struct NaiveRandom {
    rng: StdRng,
}

impl NaiveRandom {
    pub fn new(seed: u64) -> Self {
        NaiveRandom {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl NaivePolicy for NaiveRandom {
    fn on_insert(&mut self, _page: PageId, _stamp: u64) {}
    fn on_access(&mut self, _page: PageId, _stamp: u64) {}
    fn on_remove(&mut self, _page: PageId) {}
    fn choose_victim(&mut self, candidates: &[PageId]) -> PageId {
        candidates[self.rng.gen_range(0..candidates.len())]
    }
}

/// Furthest next use in one fixed sequence; every insert or access
/// counts as one served request.
pub struct NaiveBelady {
    occurrences: HashMap<PageId, Vec<usize>>,
    cursor: usize,
}

impl NaiveBelady {
    pub fn for_sequence(seq: &[PageId]) -> Self {
        let mut occurrences: HashMap<PageId, Vec<usize>> = HashMap::new();
        for (i, &page) in seq.iter().enumerate() {
            occurrences.entry(page).or_default().push(i);
        }
        NaiveBelady {
            occurrences,
            cursor: 0,
        }
    }
    fn next_use(&self, page: PageId) -> usize {
        match self.occurrences.get(&page) {
            None => usize::MAX,
            Some(positions) => {
                let i = positions.partition_point(|&pos| pos < self.cursor);
                positions.get(i).copied().unwrap_or(usize::MAX)
            }
        }
    }
}

impl NaivePolicy for NaiveBelady {
    fn on_insert(&mut self, _page: PageId, _stamp: u64) {
        self.cursor += 1;
    }
    fn on_access(&mut self, _page: PageId, _stamp: u64) {
        self.cursor += 1;
    }
    fn on_remove(&mut self, _page: PageId) {}
    fn choose_victim(&mut self, candidates: &[PageId]) -> PageId {
        *candidates
            .iter()
            .max_by_key(|p| (self.next_use(**p), p.0))
            .unwrap()
    }
}
