//! Next-occurrence tables for the offline policies (per-sequence
//! [`Belady`](crate::Belady), [`SharedFitf`](crate::SharedFitf) and
//! [`SacrificeOffline`](crate::SacrificeOffline)).
//!
//! The standard Belady trick, cf. the offline `belady_seq` module: every
//! page gets a dense index, one backward scan per sequence links each
//! position to the next occurrence of its page, and each served request
//! moves one `upcoming` slot forward in O(1). A next-use query is then one
//! hash probe and an array read, with no binary search over occurrence
//! lists.

use mcp_core::{FxHashMap, PageId};

/// "No further occurrence" in the `u32` position tables.
const NEVER: u32 = u32::MAX;

/// Next-use bookkeeping over one or more request sequences, each with its
/// own cursor (requests served so far).
#[derive(Clone, Debug, Default)]
pub(crate) struct NextUse {
    /// Dense index of every page occurring in any sequence.
    page_index: FxHashMap<PageId, u32>,
    /// seq_ids[seq][pos] = dense page index of that request.
    seq_ids: Vec<Vec<u32>>,
    /// next_pos[seq][pos] = next position of the same page strictly after
    /// `pos` in that sequence (`NEVER` if none).
    next_pos: Vec<Vec<u32>>,
    /// upcoming[page_idx * seqs + seq] = first position `>= cursor[seq]`
    /// at which the page occurs in that sequence (`NEVER` if none). One
    /// page's slots are adjacent, so a distance query reads one row.
    upcoming: Vec<u32>,
    cursor: Vec<usize>,
}

impl NextUse {
    /// Tables over `sequences`, every cursor at 0.
    pub(crate) fn new<S: AsRef<[PageId]>>(sequences: &[S]) -> Self {
        let mut page_index = FxHashMap::default();
        let seq_ids: Vec<Vec<u32>> = sequences
            .iter()
            .map(|seq| {
                let seq = seq.as_ref();
                assert!(seq.len() < NEVER as usize, "sequence too long");
                seq.iter()
                    .map(|&p| {
                        let next = page_index.len() as u32;
                        *page_index.entry(p).or_insert(next)
                    })
                    .collect()
            })
            .collect();
        let seqs = seq_ids.len();
        let mut next_pos = Vec::with_capacity(seqs);
        let mut upcoming = vec![NEVER; page_index.len() * seqs];
        // Backward scan: next occurrence of each position's page, and (once
        // the scan completes) each page's first occurrence overall.
        for (seq, ids) in seq_ids.iter().enumerate() {
            let mut next = vec![NEVER; ids.len()];
            for (pos, &pid) in ids.iter().enumerate().rev() {
                let first = &mut upcoming[pid as usize * seqs + seq];
                next[pos] = *first;
                *first = pos as u32;
            }
            next_pos.push(next);
        }
        NextUse {
            page_index,
            cursor: vec![0; seqs],
            seq_ids,
            next_pos,
            upcoming,
        }
    }

    /// Requests of sequence `seq` served so far.
    pub(crate) fn cursor(&self, seq: usize) -> usize {
        self.cursor[seq]
    }

    /// Account the request at `cursor[seq]` as served: its page's next
    /// occurrence moves on, and so does the cursor. O(1). Past the end of
    /// the sequence only the cursor moves.
    pub(crate) fn advance(&mut self, seq: usize) {
        let pos = self.cursor[seq];
        if let Some(&pid) = self.seq_ids[seq].get(pos) {
            let seqs = self.cursor.len();
            self.upcoming[pid as usize * seqs + seq] = self.next_pos[seq][pos];
        }
        self.cursor[seq] = pos + 1;
    }

    /// Position of the first use of `page` in sequence `seq` at or after
    /// its cursor; `usize::MAX` if it is never used again.
    pub(crate) fn next_use(&self, seq: usize, page: PageId) -> usize {
        match self.page_index.get(&page) {
            Some(&pid) => widen(self.upcoming[pid as usize * self.cursor.len() + seq]),
            None => usize::MAX,
        }
    }

    /// Requests until the next use of `page` by any sequence, assuming no
    /// further delays: the minimum over sequences of `next_use - cursor`
    /// (`u64::MAX` if no sequence uses it again).
    pub(crate) fn distance(&self, page: PageId) -> u64 {
        let Some(&pid) = self.page_index.get(&page) else {
            return u64::MAX;
        };
        let seqs = self.cursor.len();
        let row = &self.upcoming[pid as usize * seqs..][..seqs];
        let mut best = u64::MAX;
        for (&pos, &cursor) in row.iter().zip(&self.cursor) {
            if pos != NEVER {
                best = best.min((pos as usize - cursor) as u64);
            }
        }
        best
    }

    /// Run `f` with the request at `cursor[seq]` counted as served for
    /// distance queries, without moving any `upcoming` slot. Sound while
    /// that request's page is not queried (e.g. it is the faulting page,
    /// absent from the cache).
    pub(crate) fn looking_past<R>(&mut self, seq: usize, f: impl FnOnce(&Self) -> R) -> R {
        self.cursor[seq] += 1;
        let out = f(self);
        self.cursor[seq] -= 1;
        out
    }
}

fn widen(pos: u32) -> usize {
    match pos {
        NEVER => usize::MAX,
        pos => pos as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(vs: &[u32]) -> Vec<PageId> {
        vs.iter().copied().map(PageId).collect()
    }

    #[test]
    fn next_use_follows_the_cursor() {
        let mut n = NextUse::new(&[seq(&[1, 2, 1, 2])]);
        assert_eq!(n.next_use(0, PageId(1)), 0);
        n.advance(0);
        assert_eq!(n.next_use(0, PageId(1)), 2);
        n.advance(0);
        n.advance(0);
        assert_eq!(n.next_use(0, PageId(1)), usize::MAX);
        assert_eq!(n.next_use(0, PageId(2)), 3);
        assert_eq!(n.next_use(0, PageId(9)), usize::MAX);
        n.advance(0);
        n.advance(0); // past the end: only the cursor moves
        assert_eq!(n.cursor(0), 5);
    }

    #[test]
    fn distance_is_the_minimum_over_sequences() {
        let mut n = NextUse::new(&[seq(&[1, 2, 3]), seq(&[3, 1])]);
        assert_eq!(n.distance(PageId(1)), 0);
        assert_eq!(n.distance(PageId(3)), 0);
        n.advance(1); // sequence 1 served its 3
        assert_eq!(n.distance(PageId(3)), 2);
        assert_eq!(n.looking_past(0, |n| n.distance(PageId(3))), 1);
        assert_eq!(n.distance(PageId(7)), u64::MAX);
    }
}
