//! # mcp-core — the multicore paging model
//!
//! Executable form of the cache model of López-Ortiz & Salinger, *Paging
//! for Multicore Processors* (UW TR CS-2011-12; SPAA'11 brief
//! announcement): `p` request sequences served in parallel against a shared
//! cache of `K` pages, where every request must be served on arrival, the
//! only algorithmic freedom is the choice of victim on a fault, and each
//! fault delays the remaining requests of its core by an additive `τ`.
//!
//! * [`types`] — pages, workloads, configuration.
//! * [`cache`] — the `K`-cell cache with fetch-in-progress cells.
//! * [`victims`] — cell bitsets and the [`Victims`] word-mask view of
//!   the legal victims that eviction policies choose from.
//! * [`strategy`] — the [`CacheStrategy`] decision trait.
//! * [`sim`] — the discrete-event engine, step-wise or run-to-completion,
//!   over a fixed workload or a growing one.
//! * [`online`] — the incremental front behind `mcp serve`: requests
//!   arrive one at a time and the engine commits timesteps under a
//!   safe-horizon rule that keeps results bit-identical to the offline run.
//! * [`events`] — analytics over event traces (effective partitions,
//!   eviction pressure, outcome tallies).
//! * [`hash`] — the deterministic fast hasher behind the hot-path
//!   page maps.
//! * [`budget`] — resource governance: budgets (deadline / state cap /
//!   memory watermark / cancellation) for the anytime offline solvers.
//!
//! ```
//! use mcp_core::{simulate, CacheStrategy, Cache, PageId, SimConfig, Time, Workload};
//!
//! /// Evict the lowest-indexed resident page (a toy policy).
//! struct FirstFit;
//! impl CacheStrategy for FirstFit {
//!     fn name(&self) -> String { "FirstFit".into() }
//!     fn choose_cell(&mut self, _core: usize, _page: PageId, _t: Time, cache: &Cache) -> usize {
//!         cache.empty_cell()
//!             .or_else(|| cache.evictable_cells().map(|(i, _, _)| i).next())
//!             .expect("victim exists")
//!     }
//! }
//!
//! let workload = Workload::from_u32([vec![1, 2, 1, 2], vec![7, 8, 7, 8]]).unwrap();
//! let result = simulate(&workload, SimConfig::new(4, 2), FirstFit).unwrap();
//! assert_eq!(result.total_faults(), 4); // cold misses only: everything fits
//! ```

#![warn(missing_docs)]

pub mod budget;
pub mod cache;
pub mod capacity;
pub mod events;
pub mod hash;
pub mod online;
pub mod sim;
pub mod strategy;
pub mod types;
pub mod victims;

pub use budget::{Budget, TripReason};
pub use cache::{Cache, CacheError, CellState, Lookup};
pub use capacity::{CapacityError, CapacitySchedule};
pub use events::{
    evictions_by_page, inter_fault_times, occupancy_timeline, outcome_counts, OutcomeCounts,
};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use online::{OnlineError, OnlineSimulator};
pub use sim::{
    simulate, simulate_with_capacity, Outcome, Served, SimError, SimResult, Simulator, StepReport,
    Storage,
};
pub use strategy::CacheStrategy;
pub use types::{ModelError, PageId, PageIds, SimConfig, Time, Workload};
pub use victims::{CellSet, Victims};
