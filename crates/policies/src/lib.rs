//! # mcp-policies — eviction policies and cache-management strategies
//!
//! The paper classifies natural multicore cache strategies as *shared*
//! (`S_A`), *static partition* (`sP^B_A`) and *dynamic partition*
//! (`dP^D_A`), each parameterized by an eviction policy `A`. This crate
//! provides:
//!
//! * the [`EvictionPolicy`] trait and classic policies — [`Lru`], [`Fifo`],
//!   [`Clock`], [`Lfu`], [`Mru`], [`Fwf`], [`LruK`], [`RandomEvict`],
//!   [`Marking`], and the offline per-sequence [`Belady`];
//! * the strategy wrappers [`Shared`], [`StaticPartition`] and
//!   [`StagedPartition`], plus [`SharedFitf`] (the multicore FITF
//!   heuristic) and [`LruMimicPartition`] (Lemma 3's dynamic partition
//!   that exactly simulates `S_LRU`);
//! * the proof-scripted offline strategy [`SacrificeOffline`] (Lemma 4's
//!   `S_OFF`) and the [`Replay`] harness that executes precomputed
//!   schedules (used to validate the offline DPs).

#![warn(missing_docs)]

pub mod dynamic_partition;
pub mod eviction;
pub mod families;
mod next_use;
pub mod partition;
pub mod policies;
pub mod scripted;
pub mod shared;
pub mod static_partition;

pub use dynamic_partition::{LruMimicPartition, StagedPartition};
pub use eviction::EvictionPolicy;
pub use families::{build_family, family_applicable, FAMILIES, OFFLINE_ONLY};
pub use partition::{Partition, PartitionError};
pub use policies::{
    Belady, Clock, Fifo, Fwf, Lfu, Lru, LruK, Marking, MarkingTie, Mru, RandomEvict,
};
pub use scripted::{Replay, ReplayDecision, SacrificeOffline};
pub use shared::{Shared, SharedFitf};
pub use static_partition::{PolicyFactory, StaticPartition};

use mcp_core::Workload;

/// Convenience: a `StaticPartition` running per-part Belady built from each
/// core's own sequence — the `sP^B_OPT` comparator of Lemma 1 (exactly
/// optimal per part on disjoint workloads, where a part's faults depend
/// only on its own subsequence).
pub fn static_partition_belady(partition: Partition) -> StaticPartition<Belady> {
    StaticPartition::with_factory(
        partition,
        Box::new(|core, w: &Workload, _| Belady::for_core(w, core)),
    )
}

/// Convenience: `sP^B_LRU`.
pub fn static_partition_lru(partition: Partition) -> StaticPartition<Lru> {
    StaticPartition::uniform(partition, Lru::new)
}

/// Convenience: `S_LRU`.
pub fn shared_lru() -> Shared<Lru> {
    Shared::new(Lru::new())
}

/// Convenience: `S_FIFO`.
pub fn shared_fifo() -> Shared<Fifo> {
    Shared::new(Fifo::new())
}
