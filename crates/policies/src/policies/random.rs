//! Uniform random eviction (seeded, reproducible).

use crate::eviction::EvictionPolicy;
use mcp_core::PageId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Evicts a uniformly random candidate.
#[derive(Clone, Debug)]
pub struct RandomEvict {
    rng: StdRng,
    /// Reused draw buffer: the candidates, in candidate order.
    buf: Vec<PageId>,
}

impl RandomEvict {
    /// Seeded constructor for reproducible runs.
    pub fn new(seed: u64) -> Self {
        RandomEvict {
            rng: StdRng::seed_from_u64(seed),
            buf: Vec::new(),
        }
    }
}

impl EvictionPolicy for RandomEvict {
    fn name(&self) -> String {
        "RAND".into()
    }

    fn on_insert(&mut self, _page: PageId, _stamp: u64) {}

    fn on_access(&mut self, _page: PageId, _stamp: u64) {}

    fn on_remove(&mut self, _page: PageId) {}

    fn choose_victim_from(
        &mut self,
        candidates: &mut dyn Iterator<Item = PageId>,
        _eligible: &dyn Fn(PageId) -> bool,
    ) -> PageId {
        self.buf.clear();
        self.buf.extend(candidates);
        self.buf[self.rng.gen_range(0..self.buf.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: u32) -> PageId {
        PageId(v)
    }

    #[test]
    fn is_deterministic_per_seed() {
        let pick = |seed| {
            let mut r = RandomEvict::new(seed);
            (0..20)
                .map(|_| r.choose_victim(&[p(1), p(2), p(3)]))
                .collect::<Vec<_>>()
        };
        assert_eq!(pick(7), pick(7));
    }

    #[test]
    fn eventually_picks_every_candidate() {
        let mut r = RandomEvict::new(42);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(r.choose_victim(&[p(1), p(2), p(3)]));
        }
        assert_eq!(seen.len(), 3);
    }
}
