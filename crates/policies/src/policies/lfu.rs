//! Least-Frequently-Used eviction.

use crate::eviction::EvictionPolicy;
use mcp_core::{PageId, Victims};
use std::collections::BTreeSet;
use std::ops::Bound::{Excluded, Unbounded};

/// Evicts the candidate with the fewest recorded uses; ties broken by the
/// older insertion.
///
/// Each managed cell carries its `(count, ranked count, insert stamp)`,
/// and an ordered `(ranked count, insert stamp, cell)` set backs victim
/// choice. Ranking is lazy: an access only bumps `count`, in O(1), and
/// victim selection re-ranks the stale entries it meets while walking
/// from the frequency-minimal end. Counts only grow, so a stale entry
/// never sits above its true key, and the walk meets entries in true
/// `(count, stamp)` order.
#[derive(Clone, Debug, Default)]
pub struct Lfu {
    /// `uses[cell]`: `(count, ranked count, insert stamp)` of a managed cell.
    uses: Vec<Option<(u64, u64, u64)>>,
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
        if let Some((_, ranked, old)) = self.uses[cell].replace((1, 1, stamp)) {
            self.by_rank.remove(&(ranked, old, cell));
        }
        self.by_rank.insert((1, stamp, cell));
    }

    fn on_access(&mut self, cell: usize, _page: PageId, _stamp: u64) {
        if let Some(Some((count, _, _))) = self.uses.get_mut(cell) {
            *count += 1;
        }
    }

    fn on_remove(&mut self, cell: usize) {
        if let Some((_, ranked, stamp)) = self.uses.get_mut(cell).and_then(Option::take) {
            self.by_rank.remove(&(ranked, stamp, cell));
        }
    }

    fn choose_victim(&mut self, victims: &Victims) -> usize {
        // Every entry below `from` is fresh and not a candidate. A stale
        // entry moves up to its true key, which is at or above `from`, so
        // the walk stays put; `(count, insert stamp)` pairs are unique
        // (stamps are), so the first fresh candidate is the minimum.
        let mut from = Unbounded;
        loop {
            let key @ (ranked, stamp, cell) = *self
                .by_rank
                .range((from, Unbounded))
                .next()
                .expect("candidates nonempty");
            let (count, rank, _) = self.uses[cell].as_mut().expect("ranked cells are managed");
            if *count != ranked {
                *rank = *count;
                self.by_rank.remove(&key);
                self.by_rank.insert((*count, stamp, cell));
                continue;
            }
            if victims.contains(cell) {
                return cell;
            }
            from = Excluded(key);
        }
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

    #[test]
    fn stale_ranks_are_repaired_during_the_walk() {
        let mut lfu = Lfu::new();
        for cell in 0..4 {
            insert(&mut lfu, cell, cell as u64 + 1);
        }
        // Cells 0 and 1 overtake 2 and 3 without being re-ranked; the
        // walk must still skip them, then see cell 0 above cell 2 once
        // cell 2 has been bumped further.
        access(&mut lfu, 0, 5);
        access(&mut lfu, 1, 6);
        assert_eq!(pick(&mut lfu, &[0, 1, 2, 3]), 2);
        access(&mut lfu, 2, 7);
        access(&mut lfu, 2, 8);
        assert_eq!(pick(&mut lfu, &[0, 1, 2]), 0);
        assert_eq!(pick(&mut lfu, &[1, 2, 3]), 3);
        lfu.on_remove(3);
        assert_eq!(pick(&mut lfu, &[1, 2]), 1);
    }
}
