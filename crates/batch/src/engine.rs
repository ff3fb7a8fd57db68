//! The batch runner: fan a grid of cells over `mcp-exec` in deterministic
//! cell-index order, each cell one fresh strategy on the event engine.

use crate::spec::CellSpec;
use mcp_core::{simulate, simulate_with_capacity, SimError, SimResult, Workload};
use mcp_exec::{Pool, Quarantined};
use std::fmt;

/// Why a cell could not produce a result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchError {
    /// `CellSpec::workload` is out of range for the workload table.
    BadWorkloadIndex {
        /// The offending index.
        index: usize,
        /// The table's length.
        len: usize,
    },
    /// The family name is not in [`mcp_policies::FAMILIES`].
    UnknownFamily(String),
    /// The family rejects this workload (e.g. `sacrifice` requires
    /// disjoint per-core sequences).
    Inapplicable(String),
    /// The simulation itself failed (malformed config, …).
    Sim(SimError),
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::BadWorkloadIndex { index, len } => {
                write!(f, "workload index {index} out of range (table has {len})")
            }
            BatchError::UnknownFamily(name) => write!(f, "unknown strategy family {name:?}"),
            BatchError::Inapplicable(name) => {
                write!(f, "family {name:?} is not applicable to this workload")
            }
            BatchError::Sim(e) => write!(f, "{e:?}"),
        }
    }
}

impl std::error::Error for BatchError {}

impl From<SimError> for BatchError {
    fn from(e: SimError) -> Self {
        BatchError::Sim(e)
    }
}

/// Run every cell of a batch, returning results in cell-index order.
///
/// The cells are fanned over [`mcp_exec::Pool::global`], each through
/// [`run_cell_reference`], so output is bit-identical for every worker
/// count (the pool's ordered-slot contract) and to a per-run loop.
pub fn run_cells(workloads: &[Workload], cells: &[CellSpec]) -> Vec<Result<SimResult, BatchError>> {
    Pool::global().par_map(cells, |_, cell| run_cell_reference(workloads, cell))
}

/// [`run_cells`] with recovery-as-policy (DESIGN §13): each cell gets up
/// to `max_attempts` tries — a panicking cell (injected fault or real
/// bug) is retried in deterministic input order, and only a cell that
/// fails every attempt comes back as [`Quarantined`] while the rest of
/// the grid completes. Fault-injection decisions key on the `"batch.cell"`
/// site and the cell index, so results are bit-identical for every
/// worker count, exactly like `run_cells`.
pub fn run_cells_quarantined(
    workloads: &[Workload],
    cells: &[CellSpec],
    max_attempts: u32,
) -> Vec<Result<Result<SimResult, BatchError>, Quarantined>> {
    Pool::global().par_try_map_retry("batch.cell", max_attempts, cells, |_, cell| {
        run_cell_reference(workloads, cell)
    })
}

/// Run one cell: validate it, build a fresh strategy through the
/// [`mcp_policies::families`] registry and simulate it on the event
/// engine — under its capacity schedule when it has one. Every batch
/// entry point runs cells through here.
pub fn run_cell_reference(
    workloads: &[Workload],
    cell: &CellSpec,
) -> Result<SimResult, BatchError> {
    let w = workloads
        .get(cell.workload)
        .ok_or(BatchError::BadWorkloadIndex {
            index: cell.workload,
            len: workloads.len(),
        })?;
    if !mcp_policies::FAMILIES.contains(&cell.family.as_str()) {
        return Err(BatchError::UnknownFamily(cell.family.clone()));
    }
    if !mcp_policies::family_applicable(&cell.family, w) {
        return Err(BatchError::Inapplicable(cell.family.clone()));
    }
    let cfg = cell.config();
    let strategy =
        mcp_policies::build_family(&cell.family, w, cfg, cell.seed).expect("family is registered");
    match &cell.capacity {
        Some(schedule) => Ok(simulate_with_capacity(w, cfg, schedule.clone(), strategy)?),
        None => Ok(simulate(w, cfg, strategy)?),
    }
}
