//! Pareto sets of per-core fault vectors for Algorithm 2, packed four
//! 16-bit lanes per `u64` word.
//!
//! A fault vector over `p` cores is a *row* of [`row_words`]`(p)` words:
//! core `i` occupies lane `i % 4` of word `i / 4`, and padding lanes are
//! zero. A Pareto set is a flat `Vec<u64>` of rows, so the PIF DP keeps no
//! per-vector allocation.
//!
//! Dominance (`a_i ≤ b_i` in every lane) is one SWAR ("SIMD within a
//! register") subtraction per word: when every lane of `b` is at most
//! [`MAX_LANE`] and every lane of `a` at most `2^15`, `(b | HIGH) - a`
//! never borrows across lanes and leaves a lane's high bit set exactly
//! when `b_i ≥ a_i`. The PIF DP prunes every lane against
//! `min(b_i, n_i)` and rejects instances with `n_i > MAX_LANE`, so stored
//! lanes never exceed [`MAX_LANE`] and a freshly advanced lane never
//! exceeds `2^15`.

/// Fault counters per `u64` word.
pub const LANES: usize = 4;

/// Largest fault count a stored lane may hold (`2^15 - 1`).
pub const MAX_LANE: u16 = (1 << 15) - 1;

/// The high bit of every lane.
const HIGH: u64 = 0x8000_8000_8000_8000;

/// Words per row for `cores` fault counters.
pub fn row_words(cores: usize) -> usize {
    cores.div_ceil(LANES)
}

/// Append the packed row of fault vector `v` to `out`.
pub fn pack_row(v: &[u16], out: &mut Vec<u64>) {
    for chunk in v.chunks(LANES) {
        let mut word = 0u64;
        for (lane, &x) in chunk.iter().enumerate() {
            word |= u64::from(x) << (16 * lane);
        }
        out.push(word);
    }
}

/// Append the row with a 1 in every lane whose flag is set (the fault
/// increment of one timestep) to `out`.
pub(crate) fn pack_flags(flags: &[bool], out: &mut Vec<u64>) {
    for chunk in flags.chunks(LANES) {
        let mut word = 0u64;
        for (lane, &f) in chunk.iter().enumerate() {
            word |= u64::from(f) << (16 * lane);
        }
        out.push(word);
    }
}

/// The fault vector of the first `cores` lanes of `row`.
pub fn unpack_row(row: &[u64], cores: usize) -> Box<[u16]> {
    (0..cores)
        .map(|i| (row[i / LANES] >> (16 * (i % LANES))) as u16)
        .collect()
}

/// Whether `a` dominates `b` (`a_i ≤ b_i` in every lane). Needs every
/// lane of `b` at most [`MAX_LANE`] and every lane of `a` at most `2^15`.
#[inline]
pub fn dominates(a: &[u64], b: &[u64]) -> bool {
    a.iter()
        .zip(b)
        .all(|(&x, &y)| (y | HIGH).wrapping_sub(x) & HIGH == HIGH)
}

/// Insert `row` into the Pareto set `rows` (minimal rows kept, no
/// duplicates), keeping `tags` — one entry per row — in step. Returns
/// whether `row` was added.
///
/// One pass with in-place compaction. On an antichain it equals "reject
/// if some row dominates `row`, else drop the rows `row` dominates and
/// append it", stored order included: a row that dominates `row` is
/// found before anything is dropped, since it would also dominate every
/// row that `row` dominates.
pub fn insert<T: Copy>(rows: &mut Vec<u64>, tags: &mut Vec<T>, row: &[u64], tag: T) -> bool {
    let w = row.len();
    debug_assert_eq!(rows.len(), tags.len() * w);
    let n = tags.len();
    let mut kept = 0;
    for j in 0..n {
        let u = &rows[j * w..(j + 1) * w];
        if dominates(u, row) {
            debug_assert_eq!(kept, j, "the Pareto set must be an antichain");
            return false;
        }
        if !dominates(row, u) {
            if kept != j {
                rows.copy_within(j * w..(j + 1) * w, kept * w);
                tags[kept] = tags[j];
            }
            kept += 1;
        }
    }
    rows.truncate(kept * w);
    tags.truncate(kept);
    rows.extend_from_slice(row);
    tags.push(tag);
    true
}

/// Append to `out` each row of `rows` plus `inc` that stays within
/// `bound` in every lane, calling `kept(j)` with the index of each source
/// row that survives.
pub(crate) fn advance_rows(
    rows: &[u64],
    inc: &[u64],
    bound: &[u64],
    out: &mut Vec<u64>,
    mut kept: impl FnMut(usize),
) {
    let w = inc.len();
    for (j, u) in rows.chunks_exact(w).enumerate() {
        let start = out.len();
        // Lanes stay below 2^15 and gain at most 1, so no carry crosses
        // a lane.
        out.extend(u.iter().zip(inc).map(|(&x, &d)| x + d));
        if dominates(&out[start..], bound) {
            kept(j);
        } else {
            out.truncate(start);
        }
    }
}

/// Append to `kept_rows`/`kept_tags` each row of `rows` (with its tag)
/// that stays within `bound` in every lane; returns how many were
/// dropped. Order is preserved, so a Pareto set filtered this way is
/// still an antichain in its stored order.
pub(crate) fn filter_rows<T: Copy>(
    rows: &[u64],
    tags: &[T],
    bound: &[u64],
    kept_rows: &mut Vec<u64>,
    kept_tags: &mut Vec<T>,
) -> usize {
    let w = bound.len();
    let before = kept_tags.len();
    for (u, &tag) in rows.chunks_exact(w).zip(tags) {
        if dominates(u, bound) {
            kept_rows.extend_from_slice(u);
            kept_tags.push(tag);
        }
    }
    tags.len() - (kept_tags.len() - before)
}

/// Whether the `n` rows of `rows` are pairwise incomparable (and so
/// distinct).
fn is_antichain(rows: &[u64], n: usize) -> bool {
    let w = rows.len().checked_div(n).unwrap_or(0);
    let row = |j: usize| &rows[j * w..(j + 1) * w];
    (0..n).all(|a| (0..n).all(|b| a == b || !dominates(row(a), row(b))))
}

/// The Pareto sets of one layer's states, indexed by position in the
/// layer, each with a parallel tag vector. Clearing keeps the row vectors
/// for the next layer to reuse.
#[derive(Debug)]
pub(crate) struct RowSets<T> {
    rows: Vec<Vec<u64>>,
    tags: Vec<Vec<T>>,
    live: usize,
}

impl<T: Copy> RowSets<T> {
    pub(crate) fn new() -> Self {
        RowSets {
            rows: Vec::new(),
            tags: Vec::new(),
            live: 0,
        }
    }

    /// Number of live sets.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Drop every set, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.live = 0;
    }

    /// Append a set holding `rows` with their `tags`. `rows` must be an
    /// antichain: then inserting them one by one into an empty set would
    /// keep every row, in this order.
    pub(crate) fn push(&mut self, rows: &[u64], tags: &[T]) {
        if self.live == self.rows.len() {
            self.rows.push(Vec::new());
            self.tags.push(Vec::new());
        }
        self.live += 1;
        self.replace(self.live - 1, rows, tags);
    }

    /// The rows of set `i`.
    pub(crate) fn rows(&self, i: usize) -> &[u64] {
        debug_assert!(i < self.live);
        &self.rows[i]
    }

    /// The tags of set `i`.
    pub(crate) fn tags(&self, i: usize) -> &[T] {
        debug_assert!(i < self.live);
        &self.tags[i]
    }

    /// Replace set `i` with `rows` and their `tags`; `rows` must be an
    /// antichain.
    pub(crate) fn replace(&mut self, i: usize, rows: &[u64], tags: &[T]) {
        debug_assert!(i < self.live);
        debug_assert!(
            is_antichain(rows, tags.len()),
            "pushed rows must be an antichain"
        );
        self.rows[i].clear();
        self.rows[i].extend_from_slice(rows);
        self.tags[i].clear();
        self.tags[i].extend_from_slice(tags);
    }

    /// [`insert`] `row` into set `i`.
    #[inline]
    pub(crate) fn insert(&mut self, i: usize, row: &[u64], tag: T) -> bool {
        debug_assert!(i < self.live);
        insert(&mut self.rows[i], &mut self.tags[i], row, tag)
    }

    /// Rows stored across the live sets.
    pub(crate) fn total_rows(&self) -> usize {
        self.tags[..self.live].iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(v: &[u16]) -> Vec<u64> {
        let mut out = Vec::new();
        pack_row(v, &mut out);
        out
    }

    #[test]
    fn pack_roundtrips_across_word_boundaries() {
        for p in [1usize, 3, 4, 5, 8, 9] {
            let v: Vec<u16> = (0..p as u16).map(|i| i * 4099 % (MAX_LANE + 1)).collect();
            let r = row(&v);
            assert_eq!(r.len(), row_words(p));
            assert_eq!(&*unpack_row(&r, p), &v[..]);
        }
    }

    #[test]
    fn swar_dominance_matches_lanewise_at_the_extremes() {
        let cases: [(&[u16], &[u16]); 6] = [
            (&[0, 0, 0, 0, 0], &[0, 0, 0, 0, 0]),
            (&[MAX_LANE, 0, 3], &[MAX_LANE, 0, 3]),
            (&[MAX_LANE, 0, 4], &[MAX_LANE, 0, 3]),
            (&[0, 1, 0, 0, 1], &[MAX_LANE, MAX_LANE, 0, 0, 0]),
            (&[1 << 15, 0], &[MAX_LANE, 0]),
            (&[1 << 15, 0], &[0, 0]),
        ];
        for (a, b) in cases {
            let lanewise = a.iter().zip(b).all(|(x, y)| x <= y);
            assert_eq!(dominates(&row(a), &row(b)), lanewise, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn insert_keeps_minimal_rows_in_order() {
        let (mut rows, mut tags) = (Vec::new(), Vec::new());
        assert!(insert(&mut rows, &mut tags, &row(&[2, 3]), 0));
        assert!(insert(&mut rows, &mut tags, &row(&[3, 2]), 1));
        assert!(insert(&mut rows, &mut tags, &row(&[1, 4]), 2));
        assert!(!insert(&mut rows, &mut tags, &row(&[3, 3]), 3), "dominated");
        assert!(!insert(&mut rows, &mut tags, &row(&[2, 3]), 4), "duplicate");
        // [2, 2] drops [2, 3] and [3, 2] but keeps [1, 4] in place.
        assert!(insert(&mut rows, &mut tags, &row(&[2, 2]), 5));
        assert_eq!(rows, [row(&[1, 4]), row(&[2, 2])].concat());
        assert_eq!(tags, [2, 5]);
    }

    #[test]
    fn advance_drops_rows_over_the_bound() {
        let rows = [row(&[0, 2]), row(&[1, 1]), row(&[2, 0])].concat();
        let (mut out, mut kept) = (Vec::new(), Vec::new());
        advance_rows(&rows, &row(&[1, 0]), &row(&[2, 2]), &mut out, |j| {
            kept.push(j)
        });
        assert_eq!(out, [row(&[1, 2]), row(&[2, 1])].concat());
        assert_eq!(kept, [0, 1]);
    }

    #[test]
    fn filter_keeps_rows_within_the_bound_in_order() {
        let rows = [row(&[0, 2]), row(&[1, 1]), row(&[2, 0])].concat();
        let (mut kept, mut tags) = (Vec::new(), Vec::new());
        let dropped = filter_rows(&rows, &[7, 8, 9], &row(&[1, 2]), &mut kept, &mut tags);
        assert_eq!(dropped, 1);
        assert_eq!(kept, [row(&[0, 2]), row(&[1, 1])].concat());
        assert_eq!(tags, [7, 8]);
    }

    #[test]
    fn row_sets_reuse_cleared_vectors() {
        let mut sets: RowSets<()> = RowSets::new();
        sets.push(&[], &[]);
        sets.insert(0, &row(&[1]), ());
        sets.clear();
        sets.push(&row(&[2]), &[()]);
        assert_eq!(
            sets.rows(0),
            row(&[2]),
            "a recycled set holds only its new rows"
        );
        assert_eq!(sets.len(), 1);
        assert_eq!(sets.total_rows(), 1);
    }
}
