//! # multicore-paging
//!
//! A complete, executable reproduction of **López-Ortiz & Salinger,
//! "Paging for Multicore Processors"** (University of Waterloo TR
//! CS-2011-12; brief announcement at SPAA 2011): the multicore paging
//! model, every strategy and offline algorithm the paper defines, the
//! NP-hardness gadgets, and an experiment harness that regenerates every
//! bound the paper proves.
//!
//! This crate is a facade; the subsystems live in their own crates:
//!
//! * [`core`] (`mcp-core`) — the model: `p` request sequences served in
//!   parallel against a shared `K`-page cache, each fault delaying its
//!   core by `τ`; the discrete-time engine and the [`CacheStrategy`]
//!   trait.
//! * [`policies`] (`mcp-policies`) — eviction policies (LRU, FIFO, CLOCK,
//!   LFU, MRU, RAND, marking, per-sequence Belady) and the paper's
//!   strategy families: shared `S_A`, static partitions `sP^B_A`, dynamic
//!   partitions `dP^D_A` (including Lemma 3's LRU mimic), `S_FITF`, and
//!   the proof-scripted offline strategies.
//! * [`offline`] (`mcp-offline`) — Algorithm 1 (exact FINAL-TOTAL-FAULTS)
//!   and Algorithm 2 (PARTIAL-INDIVIDUAL-FAULTS decision), exhaustive
//!   cross-checks, miss curves and exact optimal static partitions.
//! * [`oracle`] (`mcp-oracle`) — the differential correctness oracle: a
//!   naive reference engine transcribed from the paper's model, tiny
//!   exhaustive offline oracles, and the `mcp fuzz` harness with
//!   auto-shrinking counterexamples.
//! * [`hardness`] (`mcp-hardness`) — 3-/4-PARTITION, the Theorem 2/3
//!   reductions, and the executable gadget schedule.
//! * [`workloads`] (`mcp-workloads`) — the proofs' adversarial sequences
//!   and synthetic multiprogrammed generators.
//! * [`analysis`] (`mcp-analysis`) — experiments E01–E15 and the `repro`
//!   binary.
//!
//! ## Quickstart
//!
//! ```
//! use multicore_paging::{simulate, shared_lru, SimConfig, Workload};
//!
//! // Two cores, disjoint pages, shared cache of 4, fault delay τ = 2.
//! let workload = Workload::from_u32([
//!     vec![1, 2, 3, 1, 2, 3],
//!     vec![10, 11, 10, 11, 10, 11],
//! ]).unwrap();
//! let result = simulate(&workload, SimConfig::new(4, 2), shared_lru()).unwrap();
//! println!("total faults: {}", result.total_faults());
//! assert!(result.total_faults() >= 5); // at least the cold misses
//! ```

pub use mcp_analysis as analysis;
pub use mcp_core as core;
pub use mcp_hardness as hardness;
pub use mcp_offline as offline;
pub use mcp_oracle as oracle;
pub use mcp_policies as policies;
pub use mcp_workloads as workloads;

// The most common entry points, flattened for convenience.
pub use mcp_core::{
    simulate, simulate_with_capacity, Cache, CacheStrategy, CapacitySchedule, CellState, Lookup,
    ModelError, Outcome, PageId, Served, SimConfig, SimError, SimResult, Simulator, StepReport,
    Time, Workload,
};
pub use mcp_offline::{ftf_dp, ftf_min_faults, max_pif, pif_decide, FtfOptions, PifOptions};
pub use mcp_policies::{
    shared_fifo, shared_lru, static_partition_belady, static_partition_lru, Partition, Shared,
    SharedFitf, StaticPartition,
};

/// README code blocks double as doctests: if the README's examples stop
/// compiling, the test suite fails.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;
