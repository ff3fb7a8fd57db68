//! Uniform random eviction (seeded, reproducible).

use crate::eviction::EvictionPolicy;
use mcp_core::{PageId, Victims};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Evicts a uniformly random candidate: one `gen_range(0..count)` draw,
/// then the drawn rank is selected from the candidate mask in cell order.
#[derive(Clone, Debug)]
pub struct RandomEvict {
    rng: StdRng,
}

impl RandomEvict {
    /// Seeded constructor for reproducible runs.
    pub fn new(seed: u64) -> Self {
        RandomEvict {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl EvictionPolicy for RandomEvict {
    fn name(&self) -> String {
        "RAND".into()
    }

    fn on_insert(&mut self, _cell: usize, _page: PageId, _stamp: u64) {}

    fn on_access(&mut self, _cell: usize, _page: PageId, _stamp: u64) {}

    fn on_remove(&mut self, _cell: usize) {}

    fn choose_victim(&mut self, victims: &Victims) -> usize {
        victims.select(self.rng.gen_range(0..victims.count()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eviction::testing::pick;

    #[test]
    fn is_deterministic_per_seed() {
        let draws = |seed| {
            let mut r = RandomEvict::new(seed);
            (0..20)
                .map(|_| pick(&mut r, &[1, 2, 3]))
                .collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7));
    }

    #[test]
    fn eventually_picks_every_candidate() {
        let mut r = RandomEvict::new(42);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(pick(&mut r, &[1, 2, 3]));
        }
        assert_eq!(seen.len(), 3);
    }
}
