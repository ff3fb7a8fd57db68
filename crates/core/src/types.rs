//! Fundamental model types: pages, time, workloads and simulation parameters.
//!
//! The model follows Section 3 of López-Ortiz & Salinger: a multicore
//! processor with `p` cores shares a cache of `K` pages. The input is a
//! multiset of request sequences `R = {R_1, ..., R_p}`, one per core. A
//! parallel request is served in one parallel step; a miss delays the
//! remaining requests of the faulting core by an additive `τ`.

use crate::hash::{FxHashMap, FxHashSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Discrete simulation time. The first requests issue at `t = 1`.
pub type Time = u64;

/// Identifier of a page in the (conceptually unbounded) slow memory.
///
/// Pages are plain opaque identifiers; two requests refer to the same page
/// iff their `PageId`s are equal. The universe size `N` of an instance is
/// simply the number of distinct identifiers appearing in its workload.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u32> for PageId {
    fn from(v: u32) -> Self {
        PageId(v)
    }
}

/// Parameters of the shared-cache model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimConfig {
    /// Cache size `K`, in pages (cells).
    pub cache_size: usize,
    /// Additive delay `τ ≥ 0` a miss imposes on the remaining requests of
    /// the faulting core. The total service time of a miss is `τ + 1`
    /// timesteps (Hassidim's "fetching time").
    pub tau: u64,
}

impl SimConfig {
    /// Convenience constructor.
    pub const fn new(cache_size: usize, tau: u64) -> Self {
        SimConfig { cache_size, tau }
    }

    /// Validate the configuration against a workload.
    ///
    /// Requires `K ≥ 1` and `K ≥ p`: with at most one outstanding fetch per
    /// core and faulting cores never mid-fetch, `K ≥ p` guarantees an
    /// evictable cell always exists (the paper assumes the far stronger
    /// tall-cache condition `K ≥ p²`).
    pub fn validate(&self, workload: &Workload) -> Result<(), ModelError> {
        if self.cache_size == 0 {
            return Err(ModelError::EmptyCache);
        }
        if self.cache_size < workload.num_cores() {
            return Err(ModelError::CacheSmallerThanCores {
                cache_size: self.cache_size,
                cores: workload.num_cores(),
            });
        }
        Ok(())
    }
}

/// Errors arising from malformed model inputs.
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum ModelError {
    /// The workload has no request sequences.
    NoSequences,
    /// `K = 0`.
    EmptyCache,
    /// `K < p`: a timestep could demand more cells than exist.
    CacheSmallerThanCores { cache_size: usize, cores: usize },
    /// A capacity schedule dips below the number of cores: `min_t K(t) < p`
    /// would leave some parallel step with fewer cells than simultaneously
    /// pinned pages.
    CapacityBelowCores { min_k: usize, cores: usize },
    /// A capacity schedule's initial capacity disagrees with the
    /// configuration's `cache_size` (the two must name the same `K(1)`).
    CapacityMismatch { config_k: usize, initial_k: usize },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::NoSequences => write!(f, "workload contains no request sequences"),
            ModelError::EmptyCache => write!(f, "cache size K must be at least 1"),
            ModelError::CacheSmallerThanCores { cache_size, cores } => write!(
                f,
                "cache size K = {cache_size} is smaller than the number of cores p = {cores}"
            ),
            ModelError::CapacityBelowCores { min_k, cores } => write!(
                f,
                "capacity schedule dips to K(t) = {min_k}, below the number of cores p = {cores}"
            ),
            ModelError::CapacityMismatch {
                config_k,
                initial_k,
            } => write!(
                f,
                "config cache size K = {config_k} disagrees with the capacity schedule's \
                 initial capacity {initial_k}"
            ),
        }
    }
}

impl std::error::Error for ModelError {}

/// A multiset of per-core request sequences `R = {R_1, ..., R_p}`.
///
/// Core `j`'s sequence is `sequences()[j]`; cores are indexed from 0. Empty
/// per-core sequences are permitted (such cores simply never issue).
///
/// `Display` prints the compact text-trace form — one `core: page page …`
/// row per core, parseable by `mcp_workloads::read_text` — and `Debug`
/// prints the same rows behind a `p = …` header on a fresh line, so
/// assertion failures and shrunk fuzz counterexamples paste directly into
/// a trace file.
///
/// Equality compares the sequences only, whether or not either side has
/// built its [`PageIds`] yet.
#[derive(Clone)]
pub struct Workload {
    sequences: Vec<Vec<PageId>>,
    /// The dense page table, built on first use ([`Workload::page_ids`])
    /// and shared by every run over the workload (one `Arc`, also across
    /// clones: a clone has the same sequences).
    page_ids: OnceLock<Arc<PageIds>>,
}

impl PartialEq for Workload {
    fn eq(&self, other: &Self) -> bool {
        self.sequences == other.sequences
    }
}

impl Eq for Workload {}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (core, seq) in self.sequences.iter().enumerate() {
            write!(f, "{core}:")?;
            for page in seq {
                write!(f, " {}", page.0)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl fmt::Debug for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "\n# p = {}", self.num_cores())?;
        write!(f, "{self}")
    }
}

impl Workload {
    /// Build a workload from per-core sequences.
    pub fn new(sequences: Vec<Vec<PageId>>) -> Result<Self, ModelError> {
        if sequences.is_empty() {
            return Err(ModelError::NoSequences);
        }
        Ok(Workload {
            sequences,
            page_ids: OnceLock::new(),
        })
    }

    /// Build a workload from raw `u32` page numbers (test/dev convenience).
    pub fn from_u32<S, I>(sequences: I) -> Result<Self, ModelError>
    where
        S: IntoIterator<Item = u32>,
        I: IntoIterator<Item = S>,
    {
        Workload::new(
            sequences
                .into_iter()
                .map(|s| s.into_iter().map(PageId).collect())
                .collect(),
        )
    }

    /// Number of cores `p`.
    pub fn num_cores(&self) -> usize {
        self.sequences.len()
    }

    /// Append `page` at the tail of core `core`'s sequence — how the
    /// incremental engine admits a request. Returns the sequence's length
    /// before the push, i.e. the new request's index. A page table built
    /// earlier is dropped, so [`Workload::page_ids`] never reads stale.
    #[inline]
    pub(crate) fn push(&mut self, core: usize, page: PageId) -> usize {
        self.page_ids.take();
        let seq = &mut self.sequences[core];
        seq.push(page);
        seq.len() - 1
    }

    /// The per-core sequences.
    pub fn sequences(&self) -> &[Vec<PageId>] {
        &self.sequences
    }

    /// Core `j`'s sequence.
    pub fn sequence(&self, core: usize) -> &[PageId] {
        &self.sequences[core]
    }

    /// Length `n_j` of core `j`'s sequence.
    pub fn len(&self, core: usize) -> usize {
        self.sequences[core].len()
    }

    /// `true` iff every sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.sequences.iter().all(|s| s.is_empty())
    }

    /// Total number of requests `n = Σ_j n_j`.
    pub fn total_len(&self) -> usize {
        self.sequences.iter().map(Vec::len).sum()
    }

    /// Length of the longest per-core sequence.
    pub fn max_len(&self) -> usize {
        self.sequences.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The workload's dense page table, built on first use and shared by
    /// every later call (and every clone): clone the `Arc` to keep it.
    /// Offline engine runs take a request's page id as its cache slot, so
    /// they hash no request.
    pub fn page_ids(&self) -> &Arc<PageIds> {
        self.page_ids
            .get_or_init(|| Arc::new(PageIds::new(&self.sequences)))
    }

    /// Sorted distinct pages appearing anywhere in the workload.
    pub fn universe(&self) -> Vec<PageId> {
        let mut pages = self.page_ids().pages().to_vec();
        pages.sort_unstable();
        pages
    }

    /// Number of distinct pages `w` in the workload.
    pub fn universe_size(&self) -> usize {
        self.page_ids().len()
    }

    /// `true` iff the per-core sequences are pairwise disjoint
    /// (`∩_j R_j = ∅` pairwise, the paper's "disjoint request" condition).
    /// Read from the page table.
    pub fn is_disjoint(&self) -> bool {
        self.page_ids().is_disjoint()
    }

    /// A copy with every sequence truncated to its first `n` requests —
    /// handy for scaling an instance down to exact-solver size.
    pub fn prefix(&self, n: usize) -> Workload {
        Workload {
            sequences: self
                .sequences
                .iter()
                .map(|s| s.iter().copied().take(n).collect())
                .collect(),
            page_ids: OnceLock::new(),
        }
    }

    /// A copy keeping only the given cores, in the given order.
    pub fn select_cores(&self, cores: &[usize]) -> Result<Workload, ModelError> {
        let sequences: Vec<Vec<PageId>> =
            cores.iter().map(|&c| self.sequences[c].clone()).collect();
        Workload::new(sequences)
    }

    /// Distinct pages of a single core's sequence, sorted.
    pub fn core_universe(&self, core: usize) -> Vec<PageId> {
        let mut pages: Vec<PageId> = self.sequences[core]
            .iter()
            .copied()
            .collect::<FxHashSet<_>>()
            .into_iter()
            .collect();
        pages.sort_unstable();
        pages
    }
}

/// A workload's pages numbered densely, `0..len()`, in order of first
/// appearance (core 0's sequence first, then core 1's, ...): each
/// request's id, the id → page list and the page → id index. Built once
/// per workload ([`Workload::page_ids`]); offline engine runs use a
/// request's id as its cache slot, and the offline policies index their
/// next-use tables by it.
#[derive(Debug)]
pub struct PageIds {
    /// Every request's id, core-major: core `j`'s are
    /// `ids[starts[j]..starts[j + 1]]`.
    ids: Vec<u32>,
    starts: Vec<usize>,
    /// `pages[id]`: the page numbered `id`.
    pages: Vec<PageId>,
    /// Page → id. Point lookups only, so the deterministic
    /// [`FxHashMap`] is safe here.
    index: FxHashMap<PageId, u32>,
    /// No page is requested by two cores.
    disjoint: bool,
}

/// The table of no requests.
impl Default for PageIds {
    fn default() -> Self {
        PageIds::new(&[])
    }
}

impl PageIds {
    fn new(sequences: &[Vec<PageId>]) -> Self {
        let total = sequences.iter().map(Vec::len).sum();
        let mut ids = Vec::with_capacity(total);
        let mut starts = Vec::with_capacity(sequences.len() + 1);
        let mut pages = Vec::new();
        let mut index = FxHashMap::default();
        // `owner[id]`: the core that requested the page first.
        let mut owner: Vec<u32> = Vec::new();
        let mut disjoint = true;
        for (core, seq) in sequences.iter().enumerate() {
            starts.push(ids.len());
            for &page in seq {
                let next = pages.len() as u32;
                let id = *index.entry(page).or_insert(next);
                if id == next {
                    pages.push(page);
                    owner.push(core as u32);
                } else {
                    disjoint &= owner[id as usize] == core as u32;
                }
                ids.push(id);
            }
        }
        starts.push(ids.len());
        PageIds {
            ids,
            starts,
            pages,
            index,
            disjoint,
        }
    }

    /// Number of distinct pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// `true` iff the workload requests no page.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// The ids of core `core`'s requests, in sequence order.
    pub fn ids(&self, core: usize) -> &[u32] {
        &self.ids[self.starts[core]..self.starts[core + 1]]
    }

    /// The id of request `pos` of core `core`.
    #[inline]
    pub fn id_at(&self, core: usize, pos: usize) -> usize {
        self.ids[self.starts[core] + pos] as usize
    }

    /// The pages, indexed by id.
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// The id of `page`, if the workload requests it.
    #[inline]
    pub fn id(&self, page: PageId) -> Option<usize> {
        self.index.get(&page).map(|&id| id as usize)
    }

    /// `true` iff no page is requested by two cores.
    pub fn is_disjoint(&self) -> bool {
        self.disjoint
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_id_display() {
        assert_eq!(PageId(7).to_string(), "p7");
        assert_eq!(format!("{:?}", PageId(7)), "p7");
    }

    #[test]
    fn workload_basic_accessors() {
        let w = Workload::from_u32([vec![1, 2, 1], vec![3, 4]]).unwrap();
        assert_eq!(w.num_cores(), 2);
        assert_eq!(w.total_len(), 5);
        assert_eq!(w.max_len(), 3);
        assert_eq!(w.len(0), 3);
        assert_eq!(w.len(1), 2);
        assert!(!w.is_empty());
        assert_eq!(
            w.universe(),
            vec![PageId(1), PageId(2), PageId(3), PageId(4)]
        );
        assert_eq!(w.universe_size(), 4);
    }

    #[test]
    fn workload_rejects_no_sequences() {
        assert_eq!(Workload::new(vec![]).unwrap_err(), ModelError::NoSequences);
    }

    #[test]
    fn workload_allows_empty_core() {
        let w = Workload::from_u32([vec![], vec![1u32]]).unwrap();
        assert_eq!(w.num_cores(), 2);
        assert_eq!(w.total_len(), 1);
    }

    #[test]
    fn disjointness() {
        let disjoint = Workload::from_u32([vec![1, 2], vec![3, 4]]).unwrap();
        assert!(disjoint.is_disjoint());
        let overlapping = Workload::from_u32([vec![1, 2], vec![2, 3]]).unwrap();
        assert!(!overlapping.is_disjoint());
        // A page repeated within one core does not break disjointness.
        let repeated = Workload::from_u32([vec![1, 1, 2], vec![3]]).unwrap();
        assert!(repeated.is_disjoint());
    }

    #[test]
    fn prefix_truncates_every_core() {
        let w = Workload::from_u32([vec![1, 2, 3, 4], vec![7, 8]]).unwrap();
        let p = w.prefix(3);
        assert_eq!(p.len(0), 3);
        assert_eq!(p.len(1), 2);
        assert_eq!(p.sequence(0), &[PageId(1), PageId(2), PageId(3)]);
        // Prefix longer than everything is the identity.
        assert_eq!(w.prefix(100), w);
    }

    #[test]
    fn select_cores_reorders_and_filters() {
        let w = Workload::from_u32([vec![1], vec![2], vec![3]]).unwrap();
        let s = w.select_cores(&[2, 0]).unwrap();
        assert_eq!(s.num_cores(), 2);
        assert_eq!(s.sequence(0), &[PageId(3)]);
        assert_eq!(s.sequence(1), &[PageId(1)]);
        assert!(w.select_cores(&[]).is_err());
    }

    #[test]
    fn core_universe_sorted_distinct() {
        let w = Workload::from_u32([vec![5, 3, 5, 1]]).unwrap();
        assert_eq!(w.core_universe(0), vec![PageId(1), PageId(3), PageId(5)]);
    }

    #[test]
    fn config_validation() {
        let w = Workload::from_u32([vec![1u32], vec![2u32]]).unwrap();
        assert!(SimConfig::new(2, 0).validate(&w).is_ok());
        assert_eq!(
            SimConfig::new(1, 0).validate(&w).unwrap_err(),
            ModelError::CacheSmallerThanCores {
                cache_size: 1,
                cores: 2
            }
        );
        assert_eq!(
            SimConfig::new(0, 0).validate(&w).unwrap_err(),
            ModelError::EmptyCache
        );
    }
    #[test]
    fn workload_display_is_the_text_trace_form() {
        let w = Workload::from_u32([vec![1u32, 2, 1], vec![7u32, 8]]).unwrap();
        assert_eq!(w.to_string(), "0: 1 2 1\n1: 7 8\n");
        assert_eq!(format!("{w:?}"), "\n# p = 2\n0: 1 2 1\n1: 7 8\n");
        // Empty sequences still get their row (cores are positional).
        let w = Workload::from_u32([vec![], vec![5u32]]).unwrap();
        assert_eq!(w.to_string(), "0:\n1: 5\n");
    }

    #[test]
    fn page_ids_number_pages_in_first_appearance_order() {
        let w = Workload::from_u32([vec![9, 4, 9], vec![], vec![4, 7]]).unwrap();
        let ids = w.page_ids();
        assert_eq!(ids.pages(), &[PageId(9), PageId(4), PageId(7)]);
        assert_eq!(ids.ids(0), &[0, 1, 0]);
        assert!(ids.ids(1).is_empty());
        assert_eq!(ids.ids(2), &[1, 2]);
        assert_eq!(ids.id_at(2, 1), 2);
        assert_eq!(ids.id(PageId(4)), Some(1));
        assert_eq!(ids.id(PageId(5)), None);
        assert!(!ids.is_disjoint());
        // Built once: every call, and every clone, shares the table.
        assert!(std::ptr::eq(ids, w.page_ids()));
        assert!(Arc::ptr_eq(w.page_ids(), w.clone().page_ids()));
        let empty = PageIds::default();
        assert!(empty.is_empty() && empty.is_disjoint());
    }

    #[test]
    fn equality_ignores_whether_the_page_table_was_built() {
        let a = Workload::from_u32([vec![1, 2], vec![3]]).unwrap();
        let b = a.clone();
        a.page_ids();
        assert_eq!(a, b);
        assert_eq!(b, a);
        assert_ne!(a, Workload::from_u32([vec![1, 2], vec![4]]).unwrap());
    }

    #[test]
    fn push_after_page_ids_leaves_a_correct_table() {
        let mut w = Workload::from_u32([vec![1, 2], vec![3]]).unwrap();
        assert!(w.is_disjoint());
        assert_eq!(w.universe_size(), 3);
        assert_eq!(w.push(1, PageId(2)), 1);
        assert_eq!(w.push(0, PageId(8)), 2);
        let fresh = Workload::from_u32([vec![1, 2, 8], vec![3, 2]]).unwrap();
        assert_eq!(w, fresh);
        assert!(!w.is_disjoint());
        assert_eq!(w.universe_size(), 4);
        for core in 0..2 {
            assert_eq!(w.page_ids().ids(core), fresh.page_ids().ids(core));
        }
        assert_eq!(w.page_ids().pages(), fresh.page_ids().pages());
    }
}
