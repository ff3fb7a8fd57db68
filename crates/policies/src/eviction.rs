//! The [`EvictionPolicy`] trait: a victim-selection rule over a managed set
//! of cache cells.
//!
//! An eviction policy is the per-part (or whole-cache) rule `A` in the
//! paper's strategy notation `S_A`, `sP^B_A`, `dP^D_A`. It is driven with
//! *stamps* — a strictly increasing event counter supplied by the strategy
//! wrapper in service order — so policies never read wall-clock simulation
//! time and remain deterministic under simultaneous requests.
//!
//! Policies are keyed by *cache cell*: a managed page is named by the cell
//! that holds it, and per-page state lives in cell-indexed arrays. Victim
//! choice receives the legal victims as a [`Victims`] word mask (the
//! strategy may only permit evictions from a subset of the managed cells,
//! e.g. the resident cells of one part), which answers count, `r`-th
//! selection, cell-order iteration and membership without allocating.
//! Candidate order is cell order, so a policy whose rule depends on order
//! (FWF, the random rules) sees the candidates exactly as a cell-ordered
//! list would present them.

use mcp_core::{Cache, CellSet, PageId, Victims};

/// A victim-selection rule over a dynamically managed set of cells.
pub trait EvictionPolicy {
    /// Short name, e.g. `"LRU"`.
    fn name(&self) -> String;

    /// `page` entered the managed set in `cell` (its fetch started), as
    /// event `stamp`.
    fn on_insert(&mut self, cell: usize, page: PageId, stamp: u64);

    /// `page`, managed in `cell`, was accessed, as event `stamp`.
    fn on_access(&mut self, cell: usize, page: PageId, stamp: u64);

    /// The page in `cell` left the managed set.
    fn on_remove(&mut self, cell: usize);

    /// Choose a victim among `victims` (nonempty; every cell in it is
    /// managed) and return its cell.
    ///
    /// Intrusive policies (LRU, FIFO, LFU, CLOCK, MRU, MARK(LRU)) walk
    /// their own order and probe [`Victims::contains`]; the others count,
    /// select or scan the mask in cell order.
    fn choose_victim(&mut self, victims: &Victims) -> usize;
}

impl<P: EvictionPolicy + ?Sized> EvictionPolicy for Box<P> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn on_insert(&mut self, cell: usize, page: PageId, stamp: u64) {
        (**self).on_insert(cell, page, stamp)
    }
    fn on_access(&mut self, cell: usize, page: PageId, stamp: u64) {
        (**self).on_access(cell, page, stamp)
    }
    fn on_remove(&mut self, cell: usize) {
        (**self).on_remove(cell)
    }
    fn choose_victim(&mut self, victims: &Victims) -> usize {
        (**self).choose_victim(victims)
    }
}

/// The cell `policy` picks among the evictable cells owned by core `part`
/// (every evictable cell when `part` is `None`) that are not in
/// `excluded`; `None` when there is no such cell.
///
/// The shared victim entry for strategy wrappers: the view is the cache's
/// own masks, so building it costs nothing.
pub(crate) fn stream_victim<P: EvictionPolicy + ?Sized>(
    policy: &mut P,
    cache: &Cache,
    part: Option<usize>,
    excluded: Option<&CellSet>,
) -> Option<usize> {
    let mut victims = match part {
        Some(core) => cache.victims_of(core),
        None => cache.victims(),
    };
    if let Some(excluded) = excluded {
        victims = victims.excluding(excluded);
    }
    if victims.is_empty() {
        return None;
    }
    Some(policy.choose_victim(&victims))
}

/// Up to `need` victims from `part` (see [`stream_victim`]), chosen one
/// at a time by `policy`, each round excluding the cells already chosen;
/// they are appended to `cells`.
pub(crate) fn shed_victims<P: EvictionPolicy + ?Sized>(
    policy: &mut P,
    cache: &Cache,
    part: Option<usize>,
    need: usize,
    cells: &mut Vec<usize>,
) {
    let mut taken = CellSet::new();
    for _ in 0..need {
        let Some(victim) = stream_victim(policy, cache, part, Some(&taken)) else {
            break;
        };
        cells.push(victim);
        taken.insert(victim);
    }
}

/// Test support: drive a policy with page `v` held in cell `v`.
#[cfg(test)]
pub(crate) mod testing {
    use super::EvictionPolicy;
    use mcp_core::{PageId, Victims};

    /// The victim `policy` picks among `cells`, where cell `c` holds page
    /// `PageId(c)`.
    pub(crate) fn pick<P: EvictionPolicy + ?Sized>(policy: &mut P, cells: &[usize]) -> usize {
        let top = cells.iter().max().map_or(0, |&c| c + 1);
        let mut mask = vec![0u64; top.div_ceil(64)];
        for &c in cells {
            mask[c / 64] |= 1 << (c % 64);
        }
        let pages: Vec<PageId> = (0..top as u32).map(PageId).collect();
        policy.choose_victim(&Victims::new(&mask, &pages))
    }

    /// `on_insert` of page `v` into cell `v`.
    pub(crate) fn insert<P: EvictionPolicy + ?Sized>(policy: &mut P, v: usize, stamp: u64) {
        policy.on_insert(v, PageId(v as u32), stamp);
    }

    /// `on_access` of page `v` in cell `v`.
    pub(crate) fn access<P: EvictionPolicy + ?Sized>(policy: &mut P, v: usize, stamp: u64) {
        policy.on_access(v, PageId(v as u32), stamp);
    }
}
