//! The shared cache: `K` cells, each empty, holding a resident page, or
//! reserved for an in-flight fetch.
//!
//! Following the paper's convention, when a page must be evicted to make
//! space, the eviction happens immediately and the cell is *unused* (state
//! [`CellState::Fetching`]) until the fetch of the new page completes; a
//! fetching cell can never be chosen as a victim (matching the constraint
//! in Algorithms 1 and 2 that configurations always contain in-flight
//! pages).

use crate::hash::FxHashMap;
use crate::types::{PageId, Time};
use crate::victims::Victims;

/// State of a single cache cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum CellState {
    /// The cell holds no page.
    Empty,
    /// The cell holds a resident page, readable by every core.
    Present(PageId),
    /// The cell is reserved for `page`, which becomes resident (readable)
    /// at time `ready_at`.
    Fetching { page: PageId, ready_at: Time },
}

impl CellState {
    /// The page associated with the cell, resident or in flight.
    pub fn page(&self) -> Option<PageId> {
        match self {
            CellState::Empty => None,
            CellState::Present(p) => Some(*p),
            CellState::Fetching { page, .. } => Some(*page),
        }
    }

    /// `true` iff the cell holds a resident page.
    pub fn is_present(&self) -> bool {
        matches!(self, CellState::Present(_))
    }
}

/// Outcome of looking a page up in the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum Lookup {
    /// The page is resident in the given cell.
    Present { cell: usize },
    /// The page is currently being fetched into the given cell and will be
    /// resident at `ready_at`.
    Fetching { cell: usize, ready_at: Time },
    /// The page is not in the cache at all.
    Absent,
}

/// Errors raised by illegal cache manipulations (these indicate a buggy
/// strategy, e.g. evicting a fetching cell, so the simulator surfaces them
/// as [`crate::sim::SimError`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum CacheError {
    /// The referenced cell index is out of range.
    BadCell { cell: usize },
    /// Attempted to evict an empty cell.
    EvictEmpty { cell: usize },
    /// Attempted to evict a cell that is mid-fetch.
    EvictFetching { cell: usize },
    /// Attempted to evict a page that is being read in the current
    /// parallel step (the model forbids this: Algorithms 1 and 2 require
    /// every currently requested page to remain in the configuration).
    EvictPinned { cell: usize },
    /// Attempted to start a fetch into a non-empty cell.
    FetchIntoOccupied { cell: usize },
    /// Attempted to fetch a page that is already cached or in flight.
    DuplicatePage { page: PageId },
    /// Attempted to start a fetch while the cache is already at (or,
    /// transiently, above) its current capacity limit `K(t)`.
    CapacityExceeded { limit: usize },
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::BadCell { cell } => write!(f, "cell index {cell} out of range"),
            CacheError::EvictEmpty { cell } => write!(f, "cannot evict empty cell {cell}"),
            CacheError::EvictFetching { cell } => {
                write!(f, "cannot evict cell {cell}: a fetch is in flight")
            }
            CacheError::EvictPinned { cell } => {
                write!(
                    f,
                    "cannot evict cell {cell}: its page is requested this parallel step"
                )
            }
            CacheError::FetchIntoOccupied { cell } => {
                write!(f, "cannot fetch into occupied cell {cell}")
            }
            CacheError::DuplicatePage { page } => {
                write!(f, "page {page} is already cached or in flight")
            }
            CacheError::CapacityExceeded { limit } => {
                write!(
                    f,
                    "cannot start a fetch: cache is at its capacity limit {limit}"
                )
            }
        }
    }
}

impl std::error::Error for CacheError {}

/// "No cell" / "no core" / "no slot" in the `u32` tables.
const NONE: u32 = u32::MAX;

#[inline]
fn bit_set(words: &mut [u64], i: usize) {
    words[i / 64] |= 1u64 << (i % 64);
}

#[inline]
fn bit_clear(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1u64 << (i % 64));
}

#[inline]
fn bit_test(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

/// A `K`-cell shared cache with per-cell ownership bookkeeping.
///
/// *Ownership* records which core's request brought a page in. The engine
/// maintains it for every strategy; shared strategies may ignore it, while
/// partition strategies use it to account part occupancy.
///
/// # Layout
///
/// Cell state lives in bitsets — `free`, `present` and `pinned`, one bit
/// per cell, plus one `owned` bitset per core — so the legal victims of a
/// fault are a word mask ([`Cache::victims`]) and clearing the step's
/// pins is a word fill. A cell that is neither free nor present is
/// fetching. Pages are *interned*: the first time a page is seen it gets
/// a dense slot that it keeps for the life of the cache, and the
/// `slot → cell` / `cell → slot` arrays replace a page-keyed map, so the
/// engine resolves a request's slot once per step ([`Cache::intern`]) and
/// every later lookup, fetch and eviction is array work. The slot table
/// grows with the number of distinct pages seen, not with `K`.
#[derive(Clone, Debug)]
pub struct Cache {
    /// `page[cell]`: the page an occupied cell holds (stale when empty).
    page: Vec<PageId>,
    /// `ready_at[cell]`: completion time of a fetching cell's fetch.
    ready_at: Vec<Time>,
    /// `owner[cell]`: the core that brought the page in (`NONE` if empty).
    owner: Vec<u32>,
    /// Page → slot, grow-only. Point lookups only (never iterated), so
    /// the deterministic [`FxHashMap`] is safe here.
    slots: FxHashMap<PageId, u32>,
    /// `slot_page[slot]`: the page interned at `slot`.
    slot_page: Vec<PageId>,
    /// `slot_cell[slot]`: the cell holding the slot's page, resident or in
    /// flight (`NONE` when absent).
    slot_cell: Vec<u32>,
    /// `cell_slot[cell]`: the slot of the page an occupied cell holds.
    cell_slot: Vec<u32>,
    /// Number of occupied (present or fetching) cells.
    occupied: usize,
    owned_counts: Vec<usize>,
    in_flight: Vec<usize>,
    /// Reverse index: `in_flight_pos[cell]` is the cell's position in
    /// `in_flight` (`usize::MAX` when the cell holds no fetch), so the
    /// event engine's per-completion [`Cache::promote_cell`] is O(1)
    /// instead of an O(in-flight) scan — in sparse large-τ regimes nearly
    /// every core is mid-fetch, which would make that scan O(p) per event.
    in_flight_pos: Vec<usize>,
    /// Words per cell bitset.
    words: usize,
    /// Bit set ⇔ cell empty. [`Cache::empty_cell`] takes the lowest set
    /// bit, preserving the historical lowest-index-first placement order.
    free: Vec<u64>,
    /// Bit set ⇔ cell holds a resident page.
    present: Vec<u64>,
    /// Bit set ⇔ cell pinned for the ongoing parallel step. Only occupied
    /// cells are ever pinned, and a pinned cell cannot be evicted.
    pinned: Vec<u64>,
    /// Per-core owned-cell bitsets, core-major: core `c`'s words are
    /// `owned[c * words..(c + 1) * words]`.
    owned: Vec<u64>,
    /// The capacity limit `K(t)` currently in force: at most this many
    /// cells may be occupied. Equal to the cell count under a fixed
    /// capacity; under a [`crate::CapacitySchedule`] the cell count is the
    /// schedule's maximum and the engine moves this limit at each
    /// capacity change. Occupancy may transiently exceed a freshly
    /// lowered limit while pinned or in-flight cells block the shrink;
    /// the engines evict back down as soon as cells become evictable.
    limit: usize,
}

impl Cache {
    /// Create an empty cache with `cache_size` cells serving `num_cores` cores.
    pub fn new(cache_size: usize, num_cores: usize) -> Self {
        let words = cache_size.div_ceil(64);
        let mut free = vec![u64::MAX; words];
        if let Some(last) = free.last_mut() {
            let tail = cache_size % 64;
            if tail != 0 {
                *last = (1u64 << tail) - 1;
            }
        }
        Cache {
            page: vec![PageId(0); cache_size],
            ready_at: vec![0; cache_size],
            owner: vec![NONE; cache_size],
            slots: FxHashMap::with_capacity_and_hasher(cache_size, Default::default()),
            slot_page: Vec::with_capacity(cache_size),
            slot_cell: Vec::with_capacity(cache_size),
            cell_slot: vec![NONE; cache_size],
            occupied: 0,
            owned_counts: vec![0; num_cores],
            in_flight: Vec::with_capacity(num_cores),
            in_flight_pos: vec![usize::MAX; cache_size],
            words,
            free,
            present: vec![0; words],
            pinned: vec![0; words],
            owned: vec![0; words * num_cores],
            limit: cache_size,
        }
    }

    /// The capacity limit currently in force (see the `limit` field).
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Move the capacity limit to `limit` (a capacity-schedule change).
    /// Raising it makes spare cells usable again; lowering it does not
    /// itself evict — the engine evicts down via the strategy's shrink
    /// hook.
    pub fn set_limit(&mut self, limit: usize) {
        self.limit = limit;
    }

    /// Number of occupied cells in excess of the current limit — how many
    /// evictions a shrink still owes. Zero under fixed capacity.
    pub fn over_limit(&self) -> usize {
        self.occupied.saturating_sub(self.limit)
    }

    /// The dense slot of `page`, interning it on first sight. Slots are
    /// never reused or dropped, so a slot stays valid for the cache's
    /// lifetime.
    #[inline]
    pub fn intern(&mut self, page: PageId) -> usize {
        let next = self.slot_page.len() as u32;
        let slot = *self.slots.entry(page).or_insert(next);
        if slot == next {
            self.slot_page.push(page);
            self.slot_cell.push(NONE);
        }
        slot as usize
    }

    /// The slot of `page`, if it was ever interned.
    #[inline]
    fn slot_of(&self, page: PageId) -> Option<usize> {
        self.slots.get(&page).map(|&s| s as usize)
    }

    /// The cell holding the page interned at `slot` (resident or in
    /// flight).
    #[inline]
    fn cell_of_slot(&self, slot: usize) -> Option<usize> {
        match self.slot_cell[slot] {
            NONE => None,
            cell => Some(cell as usize),
        }
    }

    /// Pin every cell currently holding one of `pages` for the ongoing
    /// parallel step: pinned cells cannot be evicted until
    /// [`Cache::clear_pins`]. The engine pins all simultaneously requested
    /// pages, mirroring the `R(x) ⊆ C'` constraint of Algorithms 1 and 2.
    pub fn pin_pages<I: IntoIterator<Item = PageId>>(&mut self, pages: I) {
        for page in pages {
            self.pin_page(page);
        }
    }

    /// Pin the cell holding `page` (resident or in flight), if any.
    /// See [`Cache::pin_pages`].
    pub fn pin_page(&mut self, page: PageId) {
        if let Some(slot) = self.slot_of(page) {
            self.pin_slot(slot);
        }
    }

    /// Pin the cell holding the page interned at `slot`, if any — the
    /// engine's per-request form of [`Cache::pin_page`].
    #[inline]
    pub fn pin_slot(&mut self, slot: usize) {
        if let Some(cell) = self.cell_of_slot(slot) {
            bit_set(&mut self.pinned, cell);
        }
    }

    /// Remove every pin (end of the parallel step). O(K/64).
    pub fn clear_pins(&mut self) {
        self.pinned.fill(0);
    }

    /// Whether `cell` is pinned for the ongoing parallel step.
    pub fn is_pinned(&self, cell: usize) -> bool {
        assert!(cell < self.len(), "cell {cell} out of range");
        bit_test(&self.pinned, cell)
    }

    /// The legal victims right now — every resident, unpinned cell — as a
    /// word-mask view. O(1) to build; see [`Victims`].
    #[inline]
    pub fn victims(&self) -> Victims<'_> {
        Victims::from_cache(&self.present, &self.pinned, &self.page)
    }

    /// The legal victims among the cells owned by `core`.
    #[inline]
    pub fn victims_of(&self, core: usize) -> Victims<'_> {
        let words = &self.owned[core * self.words..(core + 1) * self.words];
        self.victims().within(words)
    }

    /// Iterate `(cell, page, owner)` over resident pages that may legally
    /// be evicted right now (resident and not pinned), in cell order.
    pub fn evictable_cells(&self) -> impl Iterator<Item = (usize, PageId, Option<usize>)> + '_ {
        self.victims()
            .iter()
            .map(|cell| (cell, self.page[cell], self.owner(cell)))
    }

    /// Iterate `(cell, page)` over evictable resident pages owned by `core`,
    /// in cell order.
    pub fn evictable_cells_of(&self, core: usize) -> impl Iterator<Item = (usize, PageId)> + '_ {
        self.victims_of(core)
            .iter()
            .map(|cell| (cell, self.page[cell]))
    }

    /// Number of cells `K`.
    pub fn len(&self) -> usize {
        self.page.len()
    }

    /// `true` iff the cache has no cells (never the case for a validated config).
    pub fn is_empty(&self) -> bool {
        self.page.is_empty()
    }

    /// State of `cell`, or `None` when out of range.
    #[inline]
    fn state(&self, cell: usize) -> Option<CellState> {
        if cell >= self.len() {
            None
        } else if bit_test(&self.free, cell) {
            Some(CellState::Empty)
        } else if bit_test(&self.present, cell) {
            Some(CellState::Present(self.page[cell]))
        } else {
            Some(CellState::Fetching {
                page: self.page[cell],
                ready_at: self.ready_at[cell],
            })
        }
    }

    /// State of cell `cell`.
    ///
    /// # Panics
    /// If `cell` is out of range.
    pub fn cell(&self, cell: usize) -> CellState {
        self.state(cell)
            .unwrap_or_else(|| panic!("cell {cell} out of range"))
    }

    /// Core that brought the page in cell `cell`, if occupied.
    #[inline]
    pub fn owner(&self, cell: usize) -> Option<usize> {
        match self.owner[cell] {
            NONE => None,
            core => Some(core as usize),
        }
    }

    /// Number of cells (resident or fetching) owned by `core`.
    pub fn owned_count(&self, core: usize) -> usize {
        self.owned_counts[core]
    }

    /// Total number of occupied cells (resident or fetching).
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    /// Look up a page. Call [`Cache::promote_due`] first so that completed
    /// fetches read as `Present`.
    pub fn lookup(&self, page: PageId) -> Lookup {
        match self.slot_of(page) {
            Some(slot) => self.lookup_slot(slot),
            None => Lookup::Absent,
        }
    }

    /// [`Cache::lookup`] of the page interned at `slot`.
    #[inline]
    pub fn lookup_slot(&self, slot: usize) -> Lookup {
        match self.cell_of_slot(slot) {
            None => Lookup::Absent,
            Some(cell) if bit_test(&self.present, cell) => Lookup::Present { cell },
            Some(cell) => Lookup::Fetching {
                cell,
                ready_at: self.ready_at[cell],
            },
        }
    }

    /// `true` iff `page` is resident (not merely in flight).
    pub fn contains_resident(&self, page: PageId) -> bool {
        matches!(self.lookup(page), Lookup::Present { .. })
    }

    /// Cell index holding `page` (resident or in flight).
    #[inline]
    pub fn cell_of(&self, page: PageId) -> Option<usize> {
        self.slot_of(page).and_then(|slot| self.cell_of_slot(slot))
    }

    /// Convert every fetch whose `ready_at ≤ now` into a resident page.
    pub fn promote_due(&mut self, now: Time) {
        let mut pos = 0;
        while pos < self.in_flight.len() {
            let cell = self.in_flight[pos];
            if self.ready_at[cell] <= now {
                bit_set(&mut self.present, cell);
                self.drop_in_flight(pos);
            } else {
                pos += 1;
            }
        }
    }

    /// Remove the entry at `pos` from the in-flight list, keeping the
    /// reverse index consistent. O(1) via swap-remove; the list's order is
    /// not observable.
    #[inline]
    fn drop_in_flight(&mut self, pos: usize) {
        let cell = self.in_flight.swap_remove(pos);
        self.in_flight_pos[cell] = usize::MAX;
        if let Some(&moved) = self.in_flight.get(pos) {
            self.in_flight_pos[moved] = pos;
        }
    }

    /// Promote the single fetch in `cell`, if there is one and its
    /// `ready_at ≤ now`. Returns `true` iff a promotion happened.
    ///
    /// This is the event-engine counterpart of [`Cache::promote_due`]:
    /// the simulator tracks completion times in its own min-queue and
    /// promotes exactly the due cells, instead of re-scanning the whole
    /// in-flight list every step. The in-flight list is kept consistent
    /// (removal order within it is not observable — it only backs
    /// [`Cache::promote_due`], whose per-cell promotions are independent,
    /// and [`Cache::fetches_in_flight`]).
    pub fn promote_cell(&mut self, cell: usize, now: Time) -> bool {
        match self.in_flight_pos.get(cell) {
            Some(&pos) if pos != usize::MAX && self.ready_at[cell] <= now => {
                bit_set(&mut self.present, cell);
                self.drop_in_flight(pos);
                true
            }
            _ => false,
        }
    }

    /// First empty cell usable under the current capacity limit, if any.
    /// O(K/64) via the free-cell bitset rather than an O(K) cell scan.
    /// Returns `None` when occupancy has reached `K(t)` even if spare
    /// cells exist beyond the limit, so strategies written as
    /// `empty_cell().or_else(pick victim)` participate in dynamic
    /// capacity without change. (Under a fixed capacity the limit equals
    /// the cell count, so the guard is equivalent to the bitset being
    /// empty and behavior is identical.)
    #[inline]
    pub fn empty_cell(&self) -> Option<usize> {
        if self.occupied >= self.limit {
            return None;
        }
        crate::victims::first_one(self.free.iter().copied())
    }

    /// Iterate `(cell, page, owner)` over resident pages, in cell order.
    pub fn present_cells(&self) -> impl Iterator<Item = (usize, PageId, Option<usize>)> + '_ {
        crate::victims::ones(self.present.iter().copied())
            .map(|cell| (cell, self.page[cell], self.owner(cell)))
    }

    /// Iterate `(cell, page, owner)` over resident pages owned by `core`.
    pub fn present_cells_of(&self, core: usize) -> impl Iterator<Item = (usize, PageId)> + '_ {
        let owned = &self.owned[core * self.words..(core + 1) * self.words];
        crate::victims::ones(self.present.iter().zip(owned).map(|(p, o)| p & o))
            .map(|cell| (cell, self.page[cell]))
    }

    /// All resident pages, in cell order.
    pub fn present_pages(&self) -> Vec<PageId> {
        self.present_cells().map(|(_, p, _)| p).collect()
    }

    /// Evict the resident page in `cell`, leaving it empty. Fails on
    /// empty, fetching, or pinned cells.
    pub fn evict(&mut self, cell: usize) -> Result<PageId, CacheError> {
        match self.state(cell) {
            None => Err(CacheError::BadCell { cell }),
            Some(_) if bit_test(&self.pinned, cell) => Err(CacheError::EvictPinned { cell }),
            Some(CellState::Empty) => Err(CacheError::EvictEmpty { cell }),
            Some(CellState::Fetching { .. }) => Err(CacheError::EvictFetching { cell }),
            Some(CellState::Present(page)) => {
                let slot = self.cell_slot[cell] as usize;
                self.slot_cell[slot] = NONE;
                self.cell_slot[cell] = NONE;
                let core = self.owner[cell] as usize;
                self.owner[cell] = NONE;
                self.owned_counts[core] -= 1;
                bit_clear(&mut self.owned[core * self.words..], cell);
                bit_clear(&mut self.present, cell);
                bit_set(&mut self.free, cell);
                self.occupied -= 1;
                Ok(page)
            }
        }
    }

    /// Begin fetching `page` for `core` into the empty cell `cell`; the page
    /// becomes resident at `ready_at`.
    pub fn start_fetch(
        &mut self,
        cell: usize,
        page: PageId,
        core: usize,
        ready_at: Time,
    ) -> Result<(), CacheError> {
        self.check_fetch(cell, self.slot_of(page), page)?;
        let slot = self.intern(page);
        self.fill(cell, slot, core, ready_at);
        Ok(())
    }

    /// [`Cache::start_fetch`] of the page interned at `slot`.
    #[inline]
    pub fn start_fetch_slot(
        &mut self,
        cell: usize,
        slot: usize,
        core: usize,
        ready_at: Time,
    ) -> Result<(), CacheError> {
        self.check_fetch(cell, Some(slot), self.slot_page[slot])?;
        self.fill(cell, slot, core, ready_at);
        Ok(())
    }

    /// The [`Cache::start_fetch`] preconditions, in reporting order.
    #[inline]
    fn check_fetch(
        &self,
        cell: usize,
        slot: Option<usize>,
        page: PageId,
    ) -> Result<(), CacheError> {
        match self.state(cell) {
            None => return Err(CacheError::BadCell { cell }),
            Some(CellState::Empty) => {}
            Some(_) => return Err(CacheError::FetchIntoOccupied { cell }),
        }
        if slot.is_some_and(|slot| self.slot_cell[slot] != NONE) {
            return Err(CacheError::DuplicatePage { page });
        }
        if self.occupied >= self.limit {
            return Err(CacheError::CapacityExceeded { limit: self.limit });
        }
        Ok(())
    }

    #[inline]
    fn fill(&mut self, cell: usize, slot: usize, core: usize, ready_at: Time) {
        self.page[cell] = self.slot_page[slot];
        self.ready_at[cell] = ready_at;
        self.owner[cell] = core as u32;
        self.owned_counts[core] += 1;
        bit_set(&mut self.owned[core * self.words..], cell);
        self.slot_cell[slot] = cell as u32;
        self.cell_slot[cell] = slot as u32;
        self.occupied += 1;
        self.in_flight_pos[cell] = self.in_flight.len();
        self.in_flight.push(cell);
        bit_clear(&mut self.free, cell);
    }

    /// Number of fetches currently in flight.
    pub fn fetches_in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// `true` iff `page` is resident and not pinned, i.e. a legal victim
    /// for the current parallel step.
    pub fn is_evictable_page(&self, page: PageId) -> bool {
        self.cell_of(page)
            .is_some_and(|cell| bit_test(&self.present, cell) && !bit_test(&self.pinned, cell))
    }

    /// Exhaustively check the internal invariants that the incremental
    /// bookkeeping (slot tables, ownership counts and masks, the free,
    /// present and pinned bitsets, the in-flight list) must preserve.
    /// Returns a description of the first violation found. Intended for
    /// tests and the property suite; O(K + slots).
    pub fn debug_validate(&self) -> Result<(), String> {
        let k = self.len();
        let cores = self.owned_counts.len();
        if self.ready_at.len() != k
            || self.owner.len() != k
            || self.cell_slot.len() != k
            || self.in_flight_pos.len() != k
        {
            return Err("per-cell table length mismatch".into());
        }
        if self.words != k.div_ceil(64)
            || [&self.free, &self.present, &self.pinned]
                .iter()
                .any(|m| m.len() != self.words)
            || self.owned.len() != self.words * cores
        {
            return Err("bitset length mismatch".into());
        }
        // No bit may be set past the last cell, in any mask.
        let tail = |m: &[u64]| (k..self.words * 64).any(|i| bit_test(m, i));
        if tail(&self.free)
            || tail(&self.present)
            || tail(&self.pinned)
            || self.owned.chunks(self.words.max(1)).any(tail)
        {
            return Err("bit set past the last cell".into());
        }
        if self.slots.len() != self.slot_page.len() || self.slot_cell.len() != self.slot_page.len()
        {
            return Err(format!(
                "slot tables disagree: {} interned, {} pages, {} cells",
                self.slots.len(),
                self.slot_page.len(),
                self.slot_cell.len()
            ));
        }
        for (&page, &slot) in &self.slots {
            if self.slot_page.get(slot as usize) != Some(&page) {
                return Err(format!(
                    "page {page} interned at slot {slot}, which holds another"
                ));
            }
        }
        let mut occupied = 0usize;
        let mut fetching = 0usize;
        let mut counts = vec![0usize; cores];
        for cell in 0..k {
            let free = bit_test(&self.free, cell);
            let present = bit_test(&self.present, cell);
            let owners: Vec<usize> = (0..cores)
                .filter(|&c| bit_test(&self.owned[c * self.words..], cell))
                .collect();
            if free {
                if present {
                    return Err(format!("cell {cell} both free and present"));
                }
                if self.owner[cell] != NONE || !owners.is_empty() {
                    return Err(format!("empty cell {cell} has an owner"));
                }
                if self.cell_slot[cell] != NONE {
                    return Err(format!("empty cell {cell} maps to a slot"));
                }
                if bit_test(&self.pinned, cell) {
                    return Err(format!("empty cell {cell} is pinned"));
                }
                if self.in_flight_pos[cell] != usize::MAX {
                    return Err(format!("empty cell {cell} has an in-flight position"));
                }
                continue;
            }
            occupied += 1;
            if present {
                if self.in_flight_pos[cell] != usize::MAX {
                    return Err(format!("resident cell {cell} has an in-flight position"));
                }
            } else {
                fetching += 1;
                let pos = self.in_flight_pos[cell];
                if self.in_flight.get(pos) != Some(&cell) {
                    return Err(format!(
                        "fetching cell {cell} reverse-indexed to position {pos}, \
                         which does not hold it"
                    ));
                }
            }
            let slot = self.cell_slot[cell] as usize;
            if self.slot_cell.get(slot) != Some(&(cell as u32)) {
                return Err(format!(
                    "cell {cell} maps to slot {slot}, which maps elsewhere"
                ));
            }
            if self.slot_page[slot] != self.page[cell] {
                return Err(format!(
                    "cell {cell} holds page {} but its slot {slot} is page {}",
                    self.page[cell], self.slot_page[slot]
                ));
            }
            match self.owner(cell) {
                Some(core) if core < cores && owners == [core] => counts[core] += 1,
                other => {
                    return Err(format!(
                        "occupied cell {cell} has owner {other:?} but owner masks {owners:?}"
                    ))
                }
            }
        }
        let mapped = self.slot_cell.iter().filter(|&&c| c != NONE).count();
        if mapped != occupied || self.occupied != occupied {
            return Err(format!(
                "{mapped} slots map to a cell and the counter says {}, \
                 but {occupied} cells are occupied",
                self.occupied
            ));
        }
        if self.in_flight.len() != fetching {
            return Err(format!(
                "in-flight list has {} entries but {} cells are fetching",
                self.in_flight.len(),
                fetching
            ));
        }
        if counts != self.owned_counts {
            return Err(format!(
                "owned_counts {:?} disagree with recount {:?}",
                self.owned_counts, counts
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: u32) -> PageId {
        PageId(v)
    }

    #[test]
    fn fetch_then_promote_then_lookup() {
        let mut c = Cache::new(3, 2);
        assert_eq!(c.lookup(p(1)), Lookup::Absent);
        c.start_fetch(0, p(1), 0, 5).unwrap();
        assert_eq!(
            c.lookup(p(1)),
            Lookup::Fetching {
                cell: 0,
                ready_at: 5
            }
        );
        assert_eq!(c.fetches_in_flight(), 1);
        c.promote_due(4);
        assert_eq!(
            c.lookup(p(1)),
            Lookup::Fetching {
                cell: 0,
                ready_at: 5
            }
        );
        c.promote_due(5);
        assert_eq!(c.lookup(p(1)), Lookup::Present { cell: 0 });
        assert_eq!(c.fetches_in_flight(), 0);
        assert!(c.contains_resident(p(1)));
    }

    #[test]
    fn ownership_accounting() {
        let mut c = Cache::new(3, 2);
        c.start_fetch(0, p(1), 0, 1).unwrap();
        c.start_fetch(1, p(2), 1, 1).unwrap();
        c.start_fetch(2, p(3), 1, 1).unwrap();
        c.promote_due(1);
        assert_eq!(c.owned_count(0), 1);
        assert_eq!(c.owned_count(1), 2);
        assert_eq!(c.occupied(), 3);
        assert_eq!(c.evict(1).unwrap(), p(2));
        assert_eq!(c.owned_count(1), 1);
        assert_eq!(c.occupied(), 2);
        assert_eq!(c.empty_cell(), Some(1));
        let owned: Vec<PageId> = c.present_cells_of(1).map(|(_, pg)| pg).collect();
        assert_eq!(owned, vec![p(3)]);
    }

    #[test]
    fn cannot_evict_fetching_or_empty() {
        let mut c = Cache::new(2, 1);
        c.start_fetch(0, p(1), 0, 10).unwrap();
        assert_eq!(
            c.evict(0).unwrap_err(),
            CacheError::EvictFetching { cell: 0 }
        );
        assert_eq!(c.evict(1).unwrap_err(), CacheError::EvictEmpty { cell: 1 });
        assert_eq!(c.evict(9).unwrap_err(), CacheError::BadCell { cell: 9 });
    }

    #[test]
    fn cannot_double_fetch_or_fetch_into_occupied() {
        let mut c = Cache::new(2, 1);
        c.start_fetch(0, p(1), 0, 1).unwrap();
        assert_eq!(
            c.start_fetch(0, p(2), 0, 1).unwrap_err(),
            CacheError::FetchIntoOccupied { cell: 0 }
        );
        assert_eq!(
            c.start_fetch(1, p(1), 0, 1).unwrap_err(),
            CacheError::DuplicatePage { page: p(1) }
        );
    }

    #[test]
    fn present_pages_in_cell_order() {
        let mut c = Cache::new(3, 1);
        c.start_fetch(2, p(9), 0, 1).unwrap();
        c.start_fetch(0, p(4), 0, 1).unwrap();
        c.promote_due(1);
        assert_eq!(c.present_pages(), vec![p(4), p(9)]);
    }

    #[test]
    fn pinned_pages_cannot_be_evicted() {
        let mut c = Cache::new(3, 2);
        c.start_fetch(0, p(1), 0, 1).unwrap();
        c.start_fetch(1, p(2), 1, 1).unwrap();
        c.promote_due(1);
        c.pin_pages([p(1), p(99)]); // absent pages are ignored
        assert!(c.is_pinned(0));
        assert!(!c.is_pinned(1));
        assert_eq!(c.evict(0).unwrap_err(), CacheError::EvictPinned { cell: 0 });
        assert_eq!(c.evict(1).unwrap(), p(2));
        let evictable: Vec<PageId> = c.evictable_cells().map(|(_, pg, _)| pg).collect();
        assert!(evictable.is_empty());
        c.clear_pins();
        assert_eq!(c.evict(0).unwrap(), p(1));
    }

    #[test]
    fn evictable_cells_filter_pins_and_fetches() {
        let mut c = Cache::new(3, 2);
        c.start_fetch(0, p(1), 0, 1).unwrap();
        c.start_fetch(1, p(2), 0, 1).unwrap();
        c.start_fetch(2, p(3), 1, 10).unwrap(); // stays in flight
        c.promote_due(1);
        c.pin_pages([p(2)]);
        let evictable: Vec<PageId> = c.evictable_cells().map(|(_, pg, _)| pg).collect();
        assert_eq!(evictable, vec![p(1)]);
        let of0: Vec<PageId> = c.evictable_cells_of(0).map(|(_, pg)| pg).collect();
        assert_eq!(of0, vec![p(1)]);
    }

    #[test]
    fn free_bitset_tracks_empties_across_words() {
        // >64 cells exercises multi-word bitset boundaries.
        let mut c = Cache::new(130, 1);
        assert_eq!(c.empty_cell(), Some(0));
        for i in 0..130u32 {
            c.start_fetch(i as usize, p(i), 0, 1).unwrap();
        }
        c.promote_due(1);
        assert_eq!(c.empty_cell(), None);
        c.evict(127).unwrap();
        assert_eq!(c.empty_cell(), Some(127));
        c.evict(64).unwrap();
        assert_eq!(c.empty_cell(), Some(64));
        c.evict(0).unwrap();
        assert_eq!(c.empty_cell(), Some(0));
        c.debug_validate().unwrap();
    }

    #[test]
    fn is_evictable_page_tracks_residency_and_pins() {
        let mut c = Cache::new(3, 1);
        c.start_fetch(0, p(1), 0, 1).unwrap();
        c.start_fetch(1, p(2), 0, 10).unwrap(); // still in flight
        c.promote_due(1);
        assert!(c.is_evictable_page(p(1)));
        assert!(!c.is_evictable_page(p(2)));
        assert!(!c.is_evictable_page(p(9)));
        c.pin_pages([p(1)]);
        assert!(!c.is_evictable_page(p(1)));
        c.clear_pins();
        assert!(c.is_evictable_page(p(1)));
        c.debug_validate().unwrap();
    }

    #[test]
    fn debug_validate_passes_through_a_mutation_sequence() {
        let mut c = Cache::new(5, 2);
        c.debug_validate().unwrap();
        c.start_fetch(3, p(7), 1, 4).unwrap();
        c.debug_validate().unwrap();
        c.promote_due(4);
        c.pin_pages([p(7)]);
        c.debug_validate().unwrap();
        c.clear_pins();
        c.evict(3).unwrap();
        c.debug_validate().unwrap();
    }

    #[test]
    fn cell_state_helpers() {
        assert_eq!(CellState::Empty.page(), None);
        assert_eq!(CellState::Present(p(3)).page(), Some(p(3)));
        assert_eq!(
            CellState::Fetching {
                page: p(4),
                ready_at: 2
            }
            .page(),
            Some(p(4))
        );
        assert!(CellState::Present(p(1)).is_present());
        assert!(!CellState::Empty.is_present());
    }
}
