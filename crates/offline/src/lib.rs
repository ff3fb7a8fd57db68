//! # mcp-offline — exact offline algorithms for multicore paging
//!
//! Section 5 of the paper, executable:
//!
//! * [`ftf_dp()`] — Algorithm 1: minimum total faults
//!   (FINAL-TOTAL-FAULTS), polynomial in sequence length for fixed `K`,
//!   `p` (Theorem 6), with optional schedule reconstruction replayable on
//!   the simulator.
//! * [`pif_dp`] — Algorithm 2: the PARTIAL-INDIVIDUAL-FAULTS decision
//!   procedure (Theorem 7) and exact MAX-PIF by subset enumeration.
//! * [`search`] — honest brute force (faults, makespan, and
//!   lexicographic objectives) and Theorem 5's restricted sequence-FITF
//!   search, as cross-checks that replay decision prefixes on the
//!   production engine.
//!   [`sched_min`] runs the same driver in Hassidim's
//!   *scheduling-capable* model (sequences may be stalled), quantifying
//!   the gap between the two papers' models.
//! * [`joint_assignment`] — Hassidim–Kaplan–Tuval joint cache partition
//!   and job assignment (X06), the other scheduling knob this paper's
//!   model lacks.
//! * [`belady_seq`] / [`miss_curve`] — sequential OPT and LRU oracles
//!   (stack distances, miss curves, Lemma 1 phase decompositions).
//! * [`checkpoint`] — versioned on-disk snapshots for the budget-governed
//!   anytime variants ([`ftf_dp_governed`], [`pif_decide_governed`]):
//!   truncated runs resume bit-for-bit at any worker count.
//! * [`partition_opt`] — exact optimal static partitions (`sP^OPT_OPT`,
//!   `sP^OPT_LRU`) for disjoint workloads from per-core miss curves.

#![warn(missing_docs)]

pub mod belady_seq;
pub mod checkpoint;
mod frontier;
pub mod ftf_dp;
pub mod intern;
pub mod joint_assignment;
pub mod miss_curve;
pub mod pareto;
pub mod partition_opt;
pub mod pif_dp;
pub mod search;
pub mod state;

pub use belady_seq::{belady_curve, belady_faults};
pub use checkpoint::{instance_fingerprint, CheckpointError, FtfCheckpoint, PifCheckpoint};
pub use ftf_dp::{
    ftf_dp, ftf_dp_governed, ftf_dp_governed_with_stats, ftf_fingerprint, ftf_min_faults,
    FtfOptions, FtfOutcome, FtfResult, FtfSchedule, FtfTruncated,
};
pub use intern::{Dedup, PackedPos, StateArena, StateId};
pub use joint_assignment::{evaluate_assignment, joint_exhaustive, joint_greedy, JointSolution};
pub use miss_curve::{
    distinct_pages, lru_curve, lru_faults, lru_stack_distances, opt_curve, phase_starts,
};
pub use partition_opt::{optimal_static_partition, OptimalPartition, PartPolicy};
pub use pif_dp::{
    max_pif, pif_decide, pif_decide_governed, pif_decide_governed_with_stats,
    pif_decide_with_stats, pif_fingerprint, pif_witness, PifOptions, PifOutcome, PifTruncated,
};
pub use search::{
    brute_force_faults_then_makespan, brute_force_makespan_then_faults, brute_force_min_faults,
    brute_force_min_faults_governed, brute_force_min_makespan, fitf_restricted_min_faults,
    sched_min, sched_min_governed, Objective, SearchOutcome,
};
pub use state::{DpError, DpInstance, DpStats};
