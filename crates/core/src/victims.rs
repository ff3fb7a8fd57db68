//! Cell bitsets and the [`Victims`] view: the legal victims of one
//! eviction decision as a word mask over cache cells.
//!
//! The [`Cache`](crate::Cache) keeps one bit per cell for *present*,
//! *pinned* and, per core, *owned*. A victim query is the mask
//! `present & !pinned`, optionally intersected with one core's owned mask
//! and with an exclusion mask removed, evaluated a word at a time — so
//! counting the candidates and selecting the `r`-th one are O(K/64), and
//! building the view allocates nothing.

use crate::types::PageId;

/// Number of set bits across `words`.
#[inline]
pub fn count_ones<I: IntoIterator<Item = u64>>(words: I) -> usize {
    words.into_iter().map(|w| w.count_ones() as usize).sum()
}

/// Index of the lowest set bit across `words`, if any.
#[inline]
pub fn first_one<I: IntoIterator<Item = u64>>(words: I) -> Option<usize> {
    words
        .into_iter()
        .enumerate()
        .find(|&(_, w)| w != 0)
        .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
}

/// Index of the `r`-th set bit (0-based, ascending) across `words`, if
/// there are more than `r`.
#[inline]
pub fn select_one<I: IntoIterator<Item = u64>>(words: I, mut r: usize) -> Option<usize> {
    for (i, mut w) in words.into_iter().enumerate() {
        let ones = w.count_ones() as usize;
        if r < ones {
            for _ in 0..r {
                w &= w - 1;
            }
            return Some(i * 64 + w.trailing_zeros() as usize);
        }
        r -= ones;
    }
    None
}

/// Iterator over the set-bit indices of a word sequence, ascending.
#[derive(Clone, Debug)]
pub struct Ones<I> {
    words: I,
    base: usize,
    current: u64,
}

impl<I: Iterator<Item = u64>> Iterator for Ones<I> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.current = self.words.next()?;
            self.base += 64;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.base - 64 + bit)
    }
}

/// The set-bit indices of `words`, ascending.
pub fn ones<I: IntoIterator<Item = u64>>(words: I) -> Ones<I::IntoIter> {
    Ones {
        words: words.into_iter(),
        base: 0,
        current: 0,
    }
}

/// A growable set of cell indices, one bit per cell. Bits past the
/// allocated words read as clear, so a set sized lazily by the cells it
/// has seen combines with any [`Victims`] view.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CellSet {
    words: Vec<u64>,
}

impl CellSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `cell`.
    #[inline]
    pub fn insert(&mut self, cell: usize) {
        let w = cell / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (cell % 64);
    }

    /// Remove `cell`.
    #[inline]
    pub fn remove(&mut self, cell: usize) {
        if let Some(word) = self.words.get_mut(cell / 64) {
            *word &= !(1 << (cell % 64));
        }
    }

    /// Whether `cell` is in the set.
    #[inline]
    pub fn contains(&self, cell: usize) -> bool {
        self.word(cell / 64) >> (cell % 64) & 1 == 1
    }

    /// Remove every cell. O(words).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Word `i` of the set (cells `64 i .. 64 i + 64`); zero past the end.
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        self.words.get(i).copied().unwrap_or(0)
    }

    /// The allocated words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// `true` iff the set holds no cell.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// The legal victims of one eviction decision: a set of cache cells,
/// evaluated word by word as `present & !pinned [& owned] [& !excluded]`,
/// plus read access to the page each cell holds.
///
/// Candidate order is cell order everywhere: [`Victims::iter`] ascends,
/// and [`Victims::select`] counts in that order, so a policy that draws
/// `gen_range(0..count)` and selects picks exactly the element a draw over
/// the cell-ordered candidate list would.
#[derive(Clone, Copy, Debug)]
pub struct Victims<'a> {
    base: &'a [u64],
    pinned: Option<&'a [u64]>,
    owned: Option<&'a [u64]>,
    excluded: Option<&'a [u64]>,
    pages: &'a [PageId],
}

impl<'a> Victims<'a> {
    /// The cells set in `mask`, holding `pages[cell]` each. For tests and
    /// other callers without a [`Cache`](crate::Cache); `pages` must cover
    /// every cell set in `mask`.
    pub fn new(mask: &'a [u64], pages: &'a [PageId]) -> Self {
        Victims {
            base: mask,
            pinned: None,
            owned: None,
            excluded: None,
            pages,
        }
    }

    /// `present & !pinned` (the cache's unrestricted view).
    pub(crate) fn from_cache(present: &'a [u64], pinned: &'a [u64], pages: &'a [PageId]) -> Self {
        Victims {
            base: present,
            pinned: Some(pinned),
            owned: None,
            excluded: None,
            pages,
        }
    }

    /// The same view restricted to the cells of `owned`.
    pub(crate) fn within(self, owned: &'a [u64]) -> Self {
        Victims {
            owned: Some(owned),
            ..self
        }
    }

    /// The same view with every cell of `excluded` removed (replacing any
    /// earlier exclusion).
    pub fn excluding(self, excluded: &'a CellSet) -> Self {
        Victims {
            excluded: Some(excluded.words()),
            ..self
        }
    }

    /// Number of mask words (cells `0..64 * num_words()`).
    #[inline]
    fn num_words(&self) -> usize {
        self.base.len()
    }

    /// Word `i` of the candidate mask.
    #[inline]
    fn word(&self, i: usize) -> u64 {
        let mut w = self.base[i];
        if let Some(pinned) = self.pinned {
            w &= !pinned[i];
        }
        if let Some(owned) = self.owned {
            w &= owned[i];
        }
        if let Some(excluded) = self.excluded {
            w &= !excluded.get(i).copied().unwrap_or(0);
        }
        w
    }

    /// The candidate mask, word by word.
    #[inline]
    pub fn words(self) -> impl Iterator<Item = u64> + Clone + 'a {
        (0..self.num_words()).map(move |i| self.word(i))
    }

    /// Number of candidates. O(K/64).
    pub fn count(&self) -> usize {
        count_ones(self.words())
    }

    /// `true` iff there is no candidate.
    pub fn is_empty(&self) -> bool {
        self.first().is_none()
    }

    /// The lowest candidate cell.
    pub fn first(&self) -> Option<usize> {
        first_one(self.words())
    }

    /// The `r`-th candidate cell in cell order (0-based). O(K/64).
    ///
    /// # Panics
    /// If `r >= self.count()`.
    pub fn select(&self, r: usize) -> usize {
        select_one(self.words(), r).expect("select index within the candidate count")
    }

    /// Whether `cell` is a candidate. O(1).
    #[inline]
    pub fn contains(&self, cell: usize) -> bool {
        cell / 64 < self.num_words() && self.word(cell / 64) >> (cell % 64) & 1 == 1
    }

    /// The candidate cells, ascending.
    pub fn iter(self) -> Ones<impl Iterator<Item = u64> + Clone + 'a> {
        ones(self.words())
    }

    /// The page held by `cell` (meaningful for candidate cells only).
    #[inline]
    pub fn page_at(&self, cell: usize) -> PageId {
        self.pages[cell]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask(cells: &[usize], words: usize) -> Vec<u64> {
        let mut m = vec![0u64; words];
        for &c in cells {
            m[c / 64] |= 1 << (c % 64);
        }
        m
    }

    #[test]
    fn select_and_iter_follow_cell_order_across_words() {
        let cells = [0usize, 5, 63, 64, 100, 191];
        let m = mask(&cells, 3);
        let pages: Vec<PageId> = (0..192).map(PageId).collect();
        let v = Victims::new(&m, &pages);
        assert_eq!(v.count(), cells.len());
        assert_eq!(v.iter().collect::<Vec<_>>(), cells);
        for (r, &c) in cells.iter().enumerate() {
            assert_eq!(v.select(r), c);
            assert!(v.contains(c));
        }
        assert!(!v.contains(1) && !v.contains(500));
        assert_eq!(v.first(), Some(0));
        assert_eq!(v.page_at(100), PageId(100));
    }

    #[test]
    fn exclusion_and_restriction_compose() {
        let present = mask(&[1, 2, 3, 70], 2);
        let pinned = mask(&[2], 2);
        let owned = mask(&[1, 3, 70], 2);
        let pages = vec![PageId(0); 128];
        let mut excluded = CellSet::new();
        excluded.insert(3);
        let v = Victims::from_cache(&present, &pinned, &pages);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![1, 3, 70]);
        let v = v.within(&owned).excluding(&excluded);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![1, 70]);
        assert_eq!(v.count(), 2);
        assert_eq!(v.select(1), 70);
    }

    #[test]
    fn cell_set_grows_and_clears() {
        let mut s = CellSet::new();
        assert!(s.is_empty());
        s.insert(130);
        s.insert(2);
        assert!(s.contains(130) && s.contains(2) && !s.contains(3));
        assert_eq!(s.word(7), 0);
        assert_eq!(s.word(0), 1 << 2);
        assert_eq!(s.word(2), 1 << 2);
        s.remove(130);
        s.remove(9999);
        assert!(!s.contains(130) && s.contains(2));
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn empty_views() {
        let m = vec![0u64; 2];
        let v = Victims::new(&m, &[]);
        assert!(v.is_empty());
        assert_eq!(v.count(), 0);
        assert_eq!(v.iter().next(), None);
        assert_eq!(select_one([0u64, 0], 0), None);
    }
}
