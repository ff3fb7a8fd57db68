//! Next-occurrence tables for the offline policies (per-sequence
//! [`Belady`](crate::Belady), [`SharedFitf`](crate::SharedFitf) and
//! [`SacrificeOffline`](crate::SacrificeOffline)).
//!
//! The standard Belady trick, cf. the offline `belady_seq` module: every
//! page has a dense index — its id in the workload's
//! [`PageIds`](mcp_core::PageIds), built once per workload and shared by
//! every run, so building the tables hashes nothing — one backward scan
//! per sequence links each position to the next occurrence of its page,
//! and each served request moves one `upcoming` slot forward in O(1).
//! The tables keep one slot per (page, sequence requesting it) pair,
//! packed by page, so they grow with the trace, not with pages ×
//! sequences. A page's slot range is resolved once, when it enters a
//! cache cell ([`NextUse::place`], or [`NextUse::place_request`] with no
//! hash probe), and kept in a cell-indexed array, so a next-use or
//! distance query during victim choice is array reads only, and a
//! distance query reads only the page's *sharers* — one on disjoint
//! traffic.

use mcp_core::{PageId, PageIds, Workload};
use std::sync::Arc;

/// "No further occurrence" in the `u32` position tables.
const NEVER: u32 = u32::MAX;

/// The distance of a page no sequence uses again: above every finite
/// distance (those stay below `2^31`, see [`NextUse::distance_of`]).
const NEVER_AGAIN: u32 = 1 << 31;

/// Next-use bookkeeping over one or more request sequences, each with its
/// own cursor (requests served so far).
#[derive(Clone, Debug, Default)]
pub(crate) struct NextUse {
    /// The workload's page table: a page's dense index is its id. Pages
    /// that occur in no sequence share the extra index `ids.len()`, which
    /// has no sharers (so do pages of the workload that no tracked
    /// sequence requests).
    ids: Arc<PageIds>,
    /// `cores[seq]`: the workload core whose requests sequence `seq` is.
    cores: Vec<usize>,
    /// The slots of dense index `i` are `sharer_start[i]..sharer_start[i
    /// + 1]`: one per sequence requesting that page, in sequence order.
    sharer_start: Vec<u32>,
    /// One [`Sharer`] per slot.
    sharers: Vec<Sharer>,
    /// `seq_slots[seq][pos]`: the slot of that request's page in `seq`.
    seq_slots: Vec<Vec<u32>>,
    /// next_pos[seq][pos] = next position of the same page strictly after
    /// `pos` in that sequence (`NEVER` if none).
    next_pos: Vec<Vec<u32>>,
    /// Requests served so far, per sequence. Sequences are shorter than
    /// `2^31` (asserted), so cursors and positions fit `u32` with room
    /// for the distance trick in [`NextUse::distance_of`].
    cursor: Vec<u32>,
    /// `cell_slots[cell]`: the slot range of the page placed in `cell`.
    cell_slots: Vec<(u32, u32)>,
}

/// One (page, sequence requesting it) slot.
#[derive(Clone, Copy, Debug, Default)]
struct Sharer {
    /// The sequence.
    seq: u32,
    /// First position `>= cursor[seq]` at which the slot's page occurs in
    /// `seq` (`NEVER` if none).
    upcoming: u32,
}

impl NextUse {
    /// Tables over the sequences of `workload`'s `cores` (sequence `i` is
    /// core `cores[i]`'s), every cursor at 0.
    pub(crate) fn new(workload: &Workload, cores: Vec<usize>) -> Self {
        let ids = Arc::clone(workload.page_ids());
        let seq_ids: Vec<&[u32]> = cores
            .iter()
            .map(|&core| {
                let seq = ids.ids(core);
                assert!(seq.len() < (NEVER / 2) as usize, "sequence too long");
                seq
            })
            .collect();
        let pages = ids.len();
        // `seen[pid]`: the last sequence (plus one) that requested the
        // page. Counting pass: sharers per page, then their slot ranges.
        let mut seen = vec![0u32; pages];
        let mut sharer_start = vec![0u32; pages + 2];
        for (seq, pids) in seq_ids.iter().enumerate() {
            for &pid in *pids {
                if seen[pid as usize] != seq as u32 + 1 {
                    seen[pid as usize] = seq as u32 + 1;
                    sharer_start[pid as usize + 1] += 1;
                }
            }
        }
        for i in 0..=pages {
            sharer_start[i + 1] += sharer_start[i];
        }
        // Fill pass, sequences in order, so each page's sharers ascend.
        let total = sharer_start[pages] as usize;
        let mut sharers = vec![
            Sharer {
                seq: 0,
                upcoming: NEVER
            };
            total
        ];
        let mut filled = sharer_start[..pages].to_vec();
        seen.fill(0);
        let mut seq_slots = Vec::with_capacity(seq_ids.len());
        let mut next_pos = Vec::with_capacity(seq_ids.len());
        for (seq, pids) in seq_ids.iter().enumerate() {
            // Each request's page index becomes its slot in this sequence.
            let slots: Vec<u32> = pids
                .iter()
                .map(|&pid| {
                    let pid = pid as usize;
                    if seen[pid] != seq as u32 + 1 {
                        seen[pid] = seq as u32 + 1;
                        sharers[filled[pid] as usize].seq = seq as u32;
                        filled[pid] += 1;
                    }
                    filled[pid] - 1
                })
                .collect();
            // Backward scan: next occurrence of each position's page, and
            // (once the scan completes) each slot's first occurrence.
            let mut next = vec![NEVER; slots.len()];
            for (pos, &slot) in slots.iter().enumerate().rev() {
                let first = &mut sharers[slot as usize].upcoming;
                next[pos] = *first;
                *first = pos as u32;
            }
            next_pos.push(next);
            seq_slots.push(slots);
        }
        NextUse {
            cursor: vec![0; cores.len()],
            ids,
            cores,
            sharer_start,
            sharers,
            seq_slots,
            next_pos,
            cell_slots: Vec::new(),
        }
    }

    /// The slot range of `page`. Pages that occur in no sequence get the
    /// shared never-used row, which has none.
    fn slots_of(&self, page: PageId) -> (u32, u32) {
        self.row_slots(self.ids.id(page).unwrap_or(self.ids.len()))
    }

    /// The slot range of dense index `row`.
    #[inline]
    fn row_slots(&self, row: usize) -> (u32, u32) {
        (self.sharer_start[row], self.sharer_start[row + 1])
    }

    /// The slots of a range.
    #[inline]
    fn sharers(&self, (start, end): (u32, u32)) -> &[Sharer] {
        &self.sharers[start as usize..end as usize]
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
        if let Some(&slot) = self.seq_slots[seq].get(pos) {
            self.sharers[slot as usize].upcoming = self.next_pos[seq][pos];
        }
        self.cursor[seq] += 1;
    }

    /// Record that `page` now occupies `cell`, for the cell-keyed
    /// queries below.
    pub(crate) fn place(&mut self, cell: usize, page: PageId) {
        let slots = self.slots_of(page);
        self.place_slots(cell, slots);
    }

    /// [`NextUse::place`] of the page sequence `seq` requests at its
    /// cursor — the request being served — read from the page table
    /// instead of probing it.
    #[inline]
    pub(crate) fn place_request(&mut self, cell: usize, seq: usize) {
        let row = self.ids.id_at(self.cores[seq], self.cursor[seq] as usize);
        self.place_slots(cell, self.row_slots(row));
    }

    #[inline]
    fn place_slots(&mut self, cell: usize, slots: (u32, u32)) {
        if cell >= self.cell_slots.len() {
            self.cell_slots.resize(cell + 1, (0, 0));
        }
        self.cell_slots[cell] = slots;
    }

    /// Position of the first use of `page` in sequence `seq` at or after
    /// its cursor; `u32::MAX` if it is never used again.
    pub(crate) fn next_use(&self, seq: usize, page: PageId) -> u32 {
        self.next_use_in(seq, self.slots_of(page))
    }

    /// [`NextUse::next_use`] of the page placed in `cell`.
    #[inline]
    pub(crate) fn next_use_of(&self, seq: usize, cell: usize) -> u32 {
        self.next_use_in(seq, self.cell_slots[cell])
    }

    #[inline]
    fn next_use_in(&self, seq: usize, slots: (u32, u32)) -> u32 {
        let sharers = self.sharers(slots);
        match sharers.binary_search_by_key(&(seq as u32), |s| s.seq) {
            Ok(i) => sharers[i].upcoming,
            Err(_) => NEVER,
        }
    }

    /// Requests until the next use of the page placed in `cell` by any
    /// sequence, assuming no further delays: the minimum over sequences
    /// of `next_use - cursor`. Only the page's sharers are read: every
    /// other sequence never uses it.
    ///
    /// A sharer that never uses the page again contributes
    /// `NEVER - cursor` (wrapping `u32` subtraction), which is at least
    /// [`NEVER_AGAIN`] because positions and cursors stay below `2^31`,
    /// while every finite distance is below it. Clamping to
    /// [`NEVER_AGAIN`] gives every page no sequence uses again one
    /// distance, above every finite one — the same order as a `u64::MAX`
    /// sentinel.
    #[inline]
    pub(crate) fn distance_of(&self, cell: usize) -> u32 {
        self.sharers(self.cell_slots[cell])
            .iter()
            .map(|s| s.upcoming.wrapping_sub(self.cursor[s.seq as usize]))
            .fold(NEVER_AGAIN, u32::min)
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

    /// Tables over every core of the workload `seqs`.
    fn over(seqs: &[Vec<PageId>]) -> NextUse {
        let w = Workload::new(seqs.to_vec()).unwrap();
        NextUse::new(&w, (0..seqs.len()).collect())
    }

    #[test]
    fn next_use_follows_the_cursor() {
        let mut n = over(&[seq(&[1, 2, 1, 2])]);
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
        let mut n = over(&[seq(&[1, 2, 3]), seq(&[3, 1])]);
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
    fn distance_reads_sharers_only_and_matches_every_sequence() {
        // Page 1 is shared by sequences 0 and 2, page 2 is private to
        // sequence 1, page 9 occurs nowhere.
        let seqs = [seq(&[1, 3, 1, 4]), seq(&[2, 2, 5]), seq(&[6, 1])];
        let mut n = over(&seqs);
        let sharers_of = |n: &NextUse, page| {
            let sharers = n.sharers(n.slots_of(PageId(page)));
            sharers.iter().map(|s| s.seq).collect::<Vec<_>>()
        };
        assert_eq!(sharers_of(&n, 1), vec![0, 2]);
        assert_eq!(sharers_of(&n, 2), vec![1]);
        assert!(sharers_of(&n, 9).is_empty());
        for (cell, page) in [1, 2, 3, 4, 5, 6, 9].into_iter().enumerate() {
            n.place(cell, PageId(page));
        }
        // The minimum over every sequence, clamped as `distance_of` does.
        let naive = |n: &NextUse, cell: usize| {
            (0..seqs.len())
                .map(|s| n.next_use_of(s, cell).wrapping_sub(n.cursor[s]))
                .fold(NEVER_AGAIN, u32::min)
        };
        for step in 0..9 {
            for cell in 0..7 {
                assert_eq!(
                    n.distance_of(cell),
                    naive(&n, cell),
                    "step {step} cell {cell}"
                );
            }
            n.advance(step % seqs.len());
        }
    }

    #[test]
    fn never_sentinel_orders_above_finite_distances() {
        // Sequence 0 is long and its cursor far along; sequence 1 never
        // uses page 5 again. The wrapped `NEVER - cursor` of one sequence
        // must still exceed a large finite distance in the other.
        let long: Vec<u32> = (0..1000).map(|i| if i == 999 { 5 } else { 6 }).collect();
        let mut n = over(&[seq(&long), seq(&[5])]);
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

    #[test]
    fn place_request_reads_the_cursor_page_of_the_sequences_core() {
        // Tables over core 2 then core 0: sequence 0 is core 2's.
        let w = Workload::new(vec![seq(&[4, 5]), seq(&[9]), seq(&[5, 4, 5])]).unwrap();
        let mut by_page = NextUse::new(&w, vec![2, 0]);
        let mut by_request = by_page.clone();
        for (seq, page) in [(0, 5), (0, 4), (1, 4), (0, 5), (1, 5)] {
            by_page.place(seq, PageId(page));
            by_request.place_request(seq, seq);
            assert_eq!(by_page.cell_slots[seq], by_request.cell_slots[seq]);
            for n in [&mut by_page, &mut by_request] {
                n.advance(seq);
            }
        }
        // Page 9 is only core 1's, which neither sequence is.
        assert_eq!(by_page.next_use(0, PageId(9)), NEVER);
        assert_eq!(by_page.next_use(1, PageId(9)), NEVER);
    }
}
