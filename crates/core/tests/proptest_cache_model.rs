//! Model-based property test of [`Cache`]: random sequences of fetch,
//! promote, pin, clear-pins, evict and `set_limit` against a naive
//! `Vec<CellState>` model. After every operation the cache's own
//! `debug_validate` must pass, every operation must succeed or fail
//! exactly as the model says, and the evictable set, the per-core
//! evictable sets, the victim views, `owned_count`, lookups and the
//! empty-cell choice must all match the model.

use mcp_core::{Cache, CacheError, CellState, Lookup, PageId, Time};
use proptest::prelude::*;

/// Pages are drawn from `0..UNIVERSE`.
const UNIVERSE: u32 = 24;
const CORES: usize = 3;

#[derive(Clone, Debug)]
enum Op {
    /// `start_fetch`, by page or (`by_slot`) through `intern` +
    /// `start_fetch_slot`.
    Fetch {
        cell: usize,
        page: u32,
        core: usize,
        ready_at: Time,
        by_slot: bool,
    },
    PromoteDue(Time),
    PromoteCell(usize, Time),
    Pin(u32),
    ClearPins,
    Evict(usize),
    SetLimit(usize),
}

/// Decode one raw `(kind, x, page, t)` draw against a `k`-cell cache.
/// Cell indices may run one past the end to exercise `BadCell`; the
/// kinds weight fetch : promote : pin : clear : evict : limit as
/// 5 : 3 : 3 : 1 : 3 : 1.
fn decode(k: usize, (kind, x, page, t): (u8, usize, u32, u64)) -> Op {
    let cell = x % (k + 1);
    match kind {
        0..=4 => Op::Fetch {
            cell,
            page,
            core: x % CORES,
            ready_at: t,
            by_slot: kind % 2 == 0,
        },
        5 | 6 => Op::PromoteDue(t),
        7 => Op::PromoteCell(cell, t),
        8..=10 => Op::Pin(page),
        11 => Op::ClearPins,
        12..=14 => Op::Evict(cell),
        _ => Op::SetLimit(1 + x % k),
    }
}

/// The naive model: one state, owner and pin flag per cell.
struct Model {
    cells: Vec<CellState>,
    owner: Vec<Option<usize>>,
    pinned: Vec<bool>,
    limit: usize,
}

impl Model {
    fn new(k: usize) -> Self {
        Model {
            cells: vec![CellState::Empty; k],
            owner: vec![None; k],
            pinned: vec![false; k],
            limit: k,
        }
    }

    fn occupied(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| **c != CellState::Empty)
            .count()
    }

    fn cell_of(&self, page: PageId) -> Option<usize> {
        self.cells.iter().position(|c| c.page() == Some(page))
    }

    fn start_fetch(
        &mut self,
        cell: usize,
        page: PageId,
        core: usize,
        ready_at: Time,
    ) -> Result<(), CacheError> {
        match self.cells.get(cell) {
            None => return Err(CacheError::BadCell { cell }),
            Some(CellState::Empty) => {}
            Some(_) => return Err(CacheError::FetchIntoOccupied { cell }),
        }
        if self.cell_of(page).is_some() {
            return Err(CacheError::DuplicatePage { page });
        }
        if self.occupied() >= self.limit {
            return Err(CacheError::CapacityExceeded { limit: self.limit });
        }
        self.cells[cell] = CellState::Fetching { page, ready_at };
        self.owner[cell] = Some(core);
        Ok(())
    }

    fn promote(&mut self, cell: usize, now: Time) -> bool {
        match self.cells[cell] {
            CellState::Fetching { page, ready_at } if ready_at <= now => {
                self.cells[cell] = CellState::Present(page);
                true
            }
            _ => false,
        }
    }

    fn evict(&mut self, cell: usize) -> Result<PageId, CacheError> {
        if self.pinned.get(cell).copied().unwrap_or(false) {
            return Err(CacheError::EvictPinned { cell });
        }
        match self.cells.get(cell) {
            None => Err(CacheError::BadCell { cell }),
            Some(CellState::Empty) => Err(CacheError::EvictEmpty { cell }),
            Some(CellState::Fetching { .. }) => Err(CacheError::EvictFetching { cell }),
            Some(&CellState::Present(page)) => {
                self.cells[cell] = CellState::Empty;
                self.owner[cell] = None;
                Ok(page)
            }
        }
    }

    fn evictable(&self, core: Option<usize>) -> Vec<usize> {
        (0..self.cells.len())
            .filter(|&c| self.cells[c].is_present() && !self.pinned[c])
            .filter(|&c| core.is_none() || self.owner[c] == core)
            .collect()
    }
}

/// Everything observable about `cache` must agree with `model`.
fn check(cache: &Cache, model: &Model, step: usize) {
    if let Err(e) = cache.debug_validate() {
        panic!("debug_validate at step {step}: {e}");
    }
    let k = model.cells.len();
    for cell in 0..k {
        prop_assert_eq!(
            cache.cell(cell),
            model.cells[cell],
            "cell {} at step {}",
            cell,
            step
        );
        prop_assert_eq!(
            cache.owner(cell),
            model.owner[cell],
            "owner at step {}",
            step
        );
        prop_assert_eq!(
            cache.is_pinned(cell),
            model.pinned[cell],
            "pin at step {}",
            step
        );
    }
    let evictable: Vec<usize> = cache.evictable_cells().map(|(c, _, _)| c).collect();
    prop_assert_eq!(
        &evictable,
        &model.evictable(None),
        "evictable at step {}",
        step
    );
    let view = cache.victims();
    prop_assert_eq!(view.iter().collect::<Vec<_>>(), evictable.clone());
    prop_assert_eq!(view.count(), evictable.len());
    for (r, &cell) in evictable.iter().enumerate() {
        prop_assert_eq!(view.select(r), cell);
        prop_assert_eq!(view.page_at(cell), model.cells[cell].page().unwrap());
    }
    for core in 0..CORES {
        let want = model.evictable(Some(core));
        let of: Vec<usize> = cache.evictable_cells_of(core).map(|(c, _)| c).collect();
        prop_assert_eq!(&of, &want, "evictable of core {} at step {}", core, step);
        prop_assert_eq!(cache.victims_of(core).iter().collect::<Vec<_>>(), want);
        let owned = model.owner.iter().filter(|&&o| o == Some(core)).count();
        prop_assert_eq!(
            cache.owned_count(core),
            owned,
            "owned_count at step {}",
            step
        );
    }
    prop_assert_eq!(cache.occupied(), model.occupied());
    prop_assert_eq!(
        cache.over_limit(),
        model.occupied().saturating_sub(model.limit)
    );
    let empty = (model.occupied() < model.limit)
        .then(|| model.cells.iter().position(|c| *c == CellState::Empty))
        .flatten();
    prop_assert_eq!(cache.empty_cell(), empty, "empty cell at step {}", step);
    let all = model.evictable(None);
    for v in 0..UNIVERSE {
        let page = PageId(v);
        let want = match model.cell_of(page) {
            None => Lookup::Absent,
            Some(cell) => match model.cells[cell] {
                CellState::Present(_) => Lookup::Present { cell },
                CellState::Fetching { ready_at, .. } => Lookup::Fetching { cell, ready_at },
                CellState::Empty => unreachable!(),
            },
        };
        prop_assert_eq!(cache.lookup(page), want, "lookup {} at step {}", page, step);
        prop_assert_eq!(cache.cell_of(page), model.cell_of(page));
        let evictable_page = model.cell_of(page).is_some_and(|c| all.contains(&c));
        prop_assert_eq!(cache.is_evictable_page(page), evictable_page);
    }
}

fn run(k: usize, ops: &[Op]) {
    let mut cache = Cache::new(k, CORES);
    let mut model = Model::new(k);
    check(&cache, &model, 0);
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Fetch {
                cell,
                page,
                core,
                ready_at,
                by_slot,
            } => {
                let page = PageId(page);
                let want = model.start_fetch(cell, page, core, ready_at);
                let got = if by_slot {
                    let slot = cache.intern(page);
                    let got = cache.start_fetch_slot(cell, slot, core, ready_at);
                    if got.is_ok() {
                        prop_assert_eq!(cache.lookup_slot(slot), cache.lookup(page));
                    }
                    got
                } else {
                    cache.start_fetch(cell, page, core, ready_at)
                };
                prop_assert_eq!(got, want, "fetch at step {}", step);
            }
            Op::PromoteDue(now) => {
                cache.promote_due(now);
                for cell in 0..k {
                    model.promote(cell, now);
                }
            }
            Op::PromoteCell(cell, now) => {
                let want = cell < k && model.promote(cell, now);
                prop_assert_eq!(
                    cache.promote_cell(cell, now),
                    want,
                    "promote at step {}",
                    step
                );
            }
            Op::Pin(v) => {
                cache.pin_page(PageId(v));
                if let Some(cell) = model.cell_of(PageId(v)) {
                    model.pinned[cell] = true;
                }
            }
            Op::ClearPins => {
                cache.clear_pins();
                model.pinned.fill(false);
            }
            Op::Evict(cell) => {
                prop_assert_eq!(
                    cache.evict(cell),
                    model.evict(cell),
                    "evict at step {}",
                    step
                );
            }
            Op::SetLimit(limit) => {
                cache.set_limit(limit);
                model.limit = limit;
            }
        }
        prop_assert_eq!(cache.fetches_in_flight(), {
            model
                .cells
                .iter()
                .filter(|c| matches!(c, CellState::Fetching { .. }))
                .count()
        });
        check(&cache, &model, step + 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn cache_matches_the_naive_model(
        wide in 0u8..2,
        small in 1usize..=8,
        large in 70usize..=130,
        raw in prop::collection::vec((0u8..16, 0usize..1000, 0..UNIVERSE, 0u64..6), 0..120),
    ) {
        // Small caches hit the capacity and pin corners; 70..=130 cells
        // cross one or two bitset word boundaries.
        let k = if wide == 1 { large } else { small };
        let ops: Vec<Op> = raw.into_iter().map(|r| decode(k, r)).collect();
        run(k, &ops);
    }
}
