//! The [`EvictionPolicy`] trait: a victim-selection rule over a managed set
//! of pages.
//!
//! An eviction policy is the per-part (or whole-cache) rule `A` in the
//! paper's strategy notation `S_A`, `sP^B_A`, `dP^D_A`. It is driven with
//! *stamps* — a strictly increasing event counter supplied by the strategy
//! wrapper in service order — so policies never read wall-clock simulation
//! time and remain deterministic under simultaneous requests.
//!
//! Victim choice is *streamed*: the strategy yields the legal victims as
//! an iterator and answers membership through an `eligible` test, because
//! the strategy may only permit evictions from a subset of the managed
//! pages (e.g. the resident pages of one part, excluding in-flight
//! fetches). Policies that keep an ordered structure walk it and probe
//! `eligible`; the others take one pass over the iterator, into a buffer
//! they own when they need one. No fault allocates a candidate list.

use mcp_core::{Cache, PageId};

/// A victim-selection rule over a dynamically managed set of pages.
pub trait EvictionPolicy {
    /// Short name, e.g. `"LRU"`.
    fn name(&self) -> String;

    /// `page` entered the managed set (its fetch started), as event `stamp`.
    fn on_insert(&mut self, page: PageId, stamp: u64);

    /// `page` (already managed) was accessed, as event `stamp`.
    fn on_access(&mut self, page: PageId, stamp: u64);

    /// `page` left the managed set.
    fn on_remove(&mut self, page: PageId);

    /// Choose a victim from a streamed candidate set: `candidates` yields
    /// every legal victim (nonempty; each is managed) in the strategy's
    /// order, and `eligible` answers membership in that set for any
    /// managed page.
    ///
    /// Policies whose rule depends on candidate order (FWF, the random
    /// rules) consume the iterator; intrusive ones (LRU, FIFO, LFU, CLOCK,
    /// MRU, MARK(LRU)) walk their own structure and only probe `eligible`.
    fn choose_victim_from(
        &mut self,
        candidates: &mut dyn Iterator<Item = PageId>,
        eligible: &dyn Fn(PageId) -> bool,
    ) -> PageId;

    /// Choose a victim among `candidates` (nonempty; each is managed):
    /// streams the slice into [`EvictionPolicy::choose_victim_from`], with
    /// membership in the slice as `eligible`.
    fn choose_victim(&mut self, candidates: &[PageId]) -> PageId {
        self.choose_victim_from(&mut candidates.iter().copied(), &|p| {
            candidates.contains(&p)
        })
    }
}

impl<P: EvictionPolicy + ?Sized> EvictionPolicy for Box<P> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn on_insert(&mut self, page: PageId, stamp: u64) {
        (**self).on_insert(page, stamp)
    }
    fn on_access(&mut self, page: PageId, stamp: u64) {
        (**self).on_access(page, stamp)
    }
    fn on_remove(&mut self, page: PageId) {
        (**self).on_remove(page)
    }
    fn choose_victim_from(
        &mut self,
        candidates: &mut dyn Iterator<Item = PageId>,
        eligible: &dyn Fn(PageId) -> bool,
    ) -> PageId {
        (**self).choose_victim_from(candidates, eligible)
    }
}

/// The victim `policy` picks among the evictable pages of core `part`'s
/// cells (of every cell when `part` is `None`) that are not in `taken`,
/// streamed in cell order; `None` when there is no such page.
///
/// The shared streaming entry for strategy wrappers: `eligible` answers
/// membership in exactly the streamed set with one index probe, so
/// intrusive policies never see the iterator drained.
pub(crate) fn stream_victim<P: EvictionPolicy + ?Sized>(
    policy: &mut P,
    cache: &Cache,
    part: Option<usize>,
    taken: &[PageId],
) -> Option<PageId> {
    let in_scope = |cell: usize, page: PageId| {
        (part.is_none() || cache.owner(cell) == part) && !taken.contains(&page)
    };
    let mut candidates = cache
        .evictable_cells()
        .filter(|&(cell, page, _)| in_scope(cell, page))
        .map(|(_, page, _)| page)
        .peekable();
    candidates.peek()?;
    Some(policy.choose_victim_from(&mut candidates, &|page| {
        cache.cell_of(page).is_some_and(|cell| {
            cache.cell(cell).is_present() && !cache.is_pinned(cell) && in_scope(cell, page)
        })
    }))
}

/// Up to `need` victims from `part` (see [`stream_victim`]), chosen one
/// at a time by `policy`, each round excluding the pages already chosen;
/// their cells are appended to `cells`.
pub(crate) fn shed_victims<P: EvictionPolicy + ?Sized>(
    policy: &mut P,
    cache: &Cache,
    part: Option<usize>,
    need: usize,
    cells: &mut Vec<usize>,
) {
    let mut taken = Vec::with_capacity(need);
    for _ in 0..need {
        let Some(victim) = stream_victim(policy, cache, part, &taken) else {
            break;
        };
        cells.push(cache.cell_of(victim).expect("victim is resident"));
        taken.push(victim);
    }
}
