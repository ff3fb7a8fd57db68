//! Differential correctness oracle for the multicore paging simulator.
//!
//! `mcp-core`'s engine is optimized (event skipping, free-cell bitsets,
//! allocation-free hot paths); this crate holds everything that checks it
//! from the outside:
//!
//! - [`reference`](mod@reference): a deliberately naive reference engine, transcribed
//!   line-by-line from the paper's Section 3 model — tick-by-tick time, a
//!   cloned `HashMap` cache picture, no intrusive structures.
//! - [`exhaustive`]: tiny-scale brute-force offline oracles that re-derive
//!   the answers of `ftf_dp`, `pif_dp`, `sched_search` and the
//!   brute-force searches of `mcp_offline::search` by trying every
//!   eviction (and voluntary-eviction, and stall) choice.
//! - [`instance`]: fuzz instances, the strategy-family registry, and the
//!   replayable fixture format used by `tests/corpus/`.
//! - [`fuzz`]: the seeded differential harness behind `mcp fuzz` —
//!   random instances, engine-vs-reference over every family, metamorphic
//!   invariants, and DP cross-checks, with automatic shrinking of any
//!   divergence to a minimal fixture.

#![warn(missing_docs)]

pub mod chaos;
pub mod exhaustive;
pub mod fuzz;
pub mod instance;
pub mod reference;

pub use chaos::{run_torture, ChaosOptions, ChaosReport};
pub use exhaustive::{
    oracle_faults_then_makespan, oracle_makespan_then_faults, oracle_min_faults,
    oracle_min_faults_with_capacity, oracle_min_makespan, oracle_pif_feasible,
    oracle_sched_min_faults,
};
pub use fuzz::{run_fuzz, Divergence, FuzzOptions, FuzzProfile, FuzzReport};
pub use instance::{build_family, family_applicable, Fixture, FixtureError, Instance, FAMILIES};
pub use reference::{
    reference_simulate, reference_simulate_traced, reference_simulate_with_capacity, SKEW_ENV,
};
