//! Next-occurrence tables for the offline policies (per-sequence
//! [`Belady`](crate::Belady), [`SharedFitf`](crate::SharedFitf) and
//! [`SacrificeOffline`](crate::SacrificeOffline)).
//!
//! The standard Belady trick, cf. the offline `belady_seq` module: every
//! page gets a dense index, one backward scan per sequence links each
//! position to the next occurrence of its page, and each served request
//! moves one `upcoming` slot forward in O(1). A page's dense index is
//! resolved once, when it enters a cache cell ([`NextUse::place`]), and
//! kept in a cell-indexed array, so a next-use or distance query during
//! victim choice is array reads only.

use mcp_core::{FxHashMap, PageId};

/// "No further occurrence" in the `u32` position tables.
const NEVER: u32 = u32::MAX;

/// Next-use bookkeeping over one or more request sequences, each with its
/// own cursor (requests served so far).
#[derive(Clone, Debug, Default)]
pub(crate) struct NextUse {
    /// Dense index of every page occurring in any sequence. Pages that
    /// occur nowhere share the extra index `page_index.len()`, whose row
    /// is all `NEVER`.
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
    /// Requests served so far, per sequence. Sequences are shorter than
    /// `2^31` (asserted), so cursors and positions fit `u32` with room
    /// for the distance trick in [`NextUse::distance_of`].
    cursor: Vec<u32>,
    /// `cell_row[cell]`: dense index of the page placed in `cell`.
    cell_row: Vec<u32>,
}

impl NextUse {
    /// Tables over `sequences`, every cursor at 0.
    pub(crate) fn new<S: AsRef<[PageId]>>(sequences: &[S]) -> Self {
        let mut page_index = FxHashMap::default();
        let seq_ids: Vec<Vec<u32>> = sequences
            .iter()
            .map(|seq| {
                let seq = seq.as_ref();
                assert!(seq.len() < (NEVER / 2) as usize, "sequence too long");
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
        // One extra all-`NEVER` row for pages that occur nowhere.
        let mut upcoming = vec![NEVER; (page_index.len() + 1) * seqs];
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
            cell_row: Vec::new(),
        }
    }

    /// The dense index of `page`: its row in the tables. Pages that occur
    /// in no sequence get the shared never-used row.
    fn index_of(&self, page: PageId) -> u32 {
        self.page_index
            .get(&page)
            .copied()
            .unwrap_or(self.page_index.len() as u32)
    }

    /// Requests of sequence `seq` served so far.
    pub(crate) fn cursor(&self, seq: usize) -> usize {
        self.cursor[seq] as usize
    }

    /// Account the request at `cursor[seq]` as served: its page's next
    /// occurrence moves on, and so does the cursor. O(1). Past the end of
    /// the sequence only the cursor moves.
    pub(crate) fn advance(&mut self, seq: usize) {
        let pos = self.cursor[seq] as usize;
        if let Some(&pid) = self.seq_ids[seq].get(pos) {
            let seqs = self.cursor.len();
            self.upcoming[pid as usize * seqs + seq] = self.next_pos[seq][pos];
        }
        self.cursor[seq] += 1;
    }

    /// Record that `page` now occupies `cell`, for the cell-keyed
    /// queries below.
    pub(crate) fn place(&mut self, cell: usize, page: PageId) {
        if cell >= self.cell_row.len() {
            self.cell_row.resize(cell + 1, 0);
        }
        self.cell_row[cell] = self.index_of(page);
    }

    /// Position of the first use of `page` in sequence `seq` at or after
    /// its cursor; `u32::MAX` if it is never used again.
    pub(crate) fn next_use(&self, seq: usize, page: PageId) -> u32 {
        self.next_use_at(seq, self.index_of(page))
    }

    /// [`NextUse::next_use`] of the page placed in `cell`.
    #[inline]
    pub(crate) fn next_use_of(&self, seq: usize, cell: usize) -> u32 {
        self.next_use_at(seq, self.cell_row[cell])
    }

    #[inline]
    fn next_use_at(&self, seq: usize, row: u32) -> u32 {
        self.upcoming[row as usize * self.cursor.len() + seq]
    }

    /// Requests until the next use of the page placed in `cell` by any
    /// sequence, assuming no further delays: the minimum over sequences
    /// of `next_use - cursor`.
    ///
    /// Branch-free: a sequence that never uses the page again contributes
    /// `NEVER - cursor` (wrapping `u32` subtraction), which exceeds every
    /// finite distance because positions and cursors stay below `2^31`.
    /// So a page no sequence uses again gets `NEVER - max cursor`, above
    /// every page with a finite distance and equal for all such pages —
    /// the same order as a `u64::MAX` sentinel.
    #[inline]
    pub(crate) fn distance_of(&self, cell: usize) -> u32 {
        let seqs = self.cursor.len();
        let row = &self.upcoming[self.cell_row[cell] as usize * seqs..][..seqs];
        row.iter()
            .zip(&self.cursor)
            .map(|(&pos, &cursor)| pos.wrapping_sub(cursor))
            .min()
            .unwrap_or(NEVER)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(vs: &[u32]) -> Vec<PageId> {
        vs.iter().copied().map(PageId).collect()
    }

    #[test]
    fn next_use_follows_the_cursor() {
        let mut n = NextUse::new(&[seq(&[1, 2, 1, 2])]);
        n.place(4, PageId(1));
        assert_eq!(n.next_use(0, PageId(1)), 0);
        n.advance(0);
        assert_eq!(n.next_use(0, PageId(1)), 2);
        assert_eq!(n.next_use_of(0, 4), 2);
        n.advance(0);
        n.advance(0);
        assert_eq!(n.next_use(0, PageId(1)), NEVER);
        assert_eq!(n.next_use(0, PageId(2)), 3);
        assert_eq!(n.next_use(0, PageId(9)), NEVER);
        n.advance(0);
        n.advance(0); // past the end: only the cursor moves
        assert_eq!(n.cursor(0), 5);
    }

    #[test]
    fn distance_is_the_minimum_over_sequences() {
        let mut n = NextUse::new(&[seq(&[1, 2, 3]), seq(&[3, 1])]);
        let (one, three, seven) = (0, 1, 2);
        n.place(one, PageId(1));
        n.place(three, PageId(3));
        n.place(seven, PageId(7));
        assert_eq!(n.distance_of(one), 0);
        assert_eq!(n.distance_of(three), 0);
        n.advance(1); // sequence 1 served its 3
        assert_eq!(n.distance_of(three), 2);
        assert_eq!(n.looking_past(0, |n| n.distance_of(three)), 1);
        // Never used again: above every finite distance, the same for
        // every such page.
        n.advance(0);
        n.advance(0);
        n.advance(0);
        n.advance(1);
        assert_eq!(n.distance_of(seven), n.distance_of(one));
        assert_eq!(n.distance_of(seven), n.distance_of(three));
        assert!(n.distance_of(seven) > 1 << 30);
    }

    #[test]
    fn never_sentinel_orders_above_finite_distances() {
        // Sequence 0 is long and its cursor far along; sequence 1 never
        // uses page 5 again. The wrapped `NEVER - cursor` of one sequence
        // must still exceed a large finite distance in the other.
        let long: Vec<u32> = (0..1000).map(|i| if i == 999 { 5 } else { 6 }).collect();
        let mut n = NextUse::new(&[seq(&long), seq(&[5])]);
        n.advance(1);
        n.place(0, PageId(5));
        n.place(1, PageId(6));
        assert_eq!(n.distance_of(0), 999);
        for _ in 0..999 {
            n.advance(0);
        }
        assert_eq!(n.distance_of(0), 0);
        assert!(n.distance_of(1) > 999);
    }
}
