//! Least-Frequently-Used eviction.

use crate::eviction::EvictionPolicy;
use mcp_core::{PageId, Victims};
use std::collections::BTreeSet;

/// Evicts the candidate with the fewest recorded uses; ties broken by the
/// older insertion.
///
/// Each managed cell carries its `(count, insert stamp)`, and an ordered
/// `(count, insert stamp, cell)` set backs victim choice: each access
/// re-ranks one cell in O(log K), and victim selection walks from the
/// frequency-minimal end instead of scanning candidates.
#[derive(Clone, Debug, Default)]
pub struct Lfu {
    /// `uses[cell]`: `(count, insert stamp)` of a managed cell.
    uses: Vec<Option<(u64, u64)>>,
    by_rank: BTreeSet<(u64, u64, usize)>,
}

impl Lfu {
    /// New, empty LFU state.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EvictionPolicy for Lfu {
    fn name(&self) -> String {
        "LFU".into()
    }

    fn on_insert(&mut self, cell: usize, _page: PageId, stamp: u64) {
        if cell >= self.uses.len() {
            self.uses.resize(cell + 1, None);
        }
        if let Some((count, old)) = self.uses[cell].replace((1, stamp)) {
            self.by_rank.remove(&(count, old, cell));
        }
        self.by_rank.insert((1, stamp, cell));
    }

    fn on_access(&mut self, cell: usize, _page: PageId, _stamp: u64) {
        if let Some(Some((count, inserted))) = self.uses.get_mut(cell) {
            self.by_rank.remove(&(*count, *inserted, cell));
            *count += 1;
            self.by_rank.insert((*count, *inserted, cell));
        }
    }

    fn on_remove(&mut self, cell: usize) {
        if let Some((count, stamp)) = self.uses.get_mut(cell).and_then(Option::take) {
            self.by_rank.remove(&(count, stamp, cell));
        }
    }

    fn choose_victim(&mut self, victims: &Victims) -> usize {
        // `(count, insert stamp)` pairs are unique (stamps are), so the
        // first candidate in rank order is the candidate minimum.
        self.by_rank
            .iter()
            .map(|&(_, _, cell)| cell)
            .find(|&cell| victims.contains(cell))
            .expect("candidates nonempty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eviction::testing::{access, insert, pick};

    #[test]
    fn evicts_least_frequent() {
        let mut lfu = Lfu::new();
        insert(&mut lfu, 1, 1);
        insert(&mut lfu, 2, 2);
        access(&mut lfu, 1, 3);
        access(&mut lfu, 1, 4);
        access(&mut lfu, 2, 5);
        assert_eq!(pick(&mut lfu, &[1, 2]), 2);
    }

    #[test]
    fn ties_broken_by_age() {
        let mut lfu = Lfu::new();
        insert(&mut lfu, 1, 1);
        insert(&mut lfu, 2, 2);
        assert_eq!(pick(&mut lfu, &[1, 2]), 1);
    }
}
