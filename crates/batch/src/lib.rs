//! # mcp-batch — deterministic fan-out of simulation grids
//!
//! Tournament-scale evaluation runs thousands of independent
//! `(strategy × workload × K × τ)` cells. This crate runs such a grid:
//!
//! * workloads are materialized once by the caller and shared by every
//!   cell that names them ([`CellSpec::workload`] indexes the table);
//! * each cell builds a fresh strategy through the
//!   [`mcp_policies::families`] registry and runs it on the production
//!   event engine ([`mcp_core::simulate`], or
//!   [`mcp_core::simulate_with_capacity`] under a `K(t)` schedule);
//! * cells fan out over [`mcp_exec::Pool`] in deterministic cell-index
//!   order, so results are bit-identical at every `--jobs` level.
//!
//! A batch result is therefore exactly what a per-run loop over
//! [`run_cell_reference`] reports; `tests/batch_differential.rs` checks
//! the plumbing (registry, seeds, applicability, capacity schedules and
//! typed errors) against it.

#![warn(missing_docs)]

pub mod engine;
pub mod spec;

pub use engine::{run_cell_reference, run_cells, run_cells_quarantined, BatchError};
pub use spec::{CellSpec, DensePolicy, WorkloadKind, WorkloadSpec};
