//! Declarative cell and workload specifications for batch grids.

use mcp_core::{CapacitySchedule, SimConfig, Workload};

/// The benchmark workload families a tournament grid can enumerate by
/// name. Each maps to one `mcp_workloads` generator with parameters
/// derived from the spec's `cores`/`len`/`universe` knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Per-core uniform traffic over disjoint universes.
    Uniform,
    /// Per-core Zipf(0.9) over disjoint universes.
    Zipf,
    /// All cores drawing Zipf(0.9) from one shared universe
    /// (Kamali & Xu-style benchmark distribution).
    ZipfShared,
    /// Disjoint phased working sets.
    Phased,
    /// A shared working-set window drifting across a common universe.
    Drift,
    /// Private Zipf traffic mixed with a shared hot region.
    SharedHotset,
    /// Staggered thrash (the sparse large-τ regime).
    Staggered,
    /// Dense hit-runs alternating with cold miss-bursts.
    Bursty,
}

impl WorkloadKind {
    /// Every kind, in canonical grid order.
    pub const ALL: &'static [WorkloadKind] = &[
        WorkloadKind::Uniform,
        WorkloadKind::Zipf,
        WorkloadKind::ZipfShared,
        WorkloadKind::Phased,
        WorkloadKind::Drift,
        WorkloadKind::SharedHotset,
        WorkloadKind::Staggered,
        WorkloadKind::Bursty,
    ];

    /// The grid identifier (`mcp tournament --workloads …`).
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::Uniform => "uniform",
            WorkloadKind::Zipf => "zipf",
            WorkloadKind::ZipfShared => "zipf-shared",
            WorkloadKind::Phased => "phased",
            WorkloadKind::Drift => "drift",
            WorkloadKind::SharedHotset => "shared-hotset",
            WorkloadKind::Staggered => "staggered",
            WorkloadKind::Bursty => "bursty",
        }
    }

    /// Inverse of [`WorkloadKind::name`].
    pub fn parse(name: &str) -> Option<Self> {
        WorkloadKind::ALL.iter().copied().find(|k| k.name() == name)
    }
}

/// A seeded, materializable workload description: the unit the tournament
/// grid and the bench harness enumerate. Two specs with equal fields
/// materialize equal workloads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Generator family.
    pub kind: WorkloadKind,
    /// Number of cores `p`.
    pub cores: usize,
    /// Requests per core.
    pub len: usize,
    /// Page-universe knob: the per-core universe for the disjoint kinds,
    /// the shared universe for the shared kinds.
    pub universe: u32,
    /// Generator seed.
    pub seed: u64,
}

impl WorkloadSpec {
    /// Generate the workload this spec describes.
    pub fn materialize(&self) -> Workload {
        let (p, n, u, seed) = (self.cores, self.len, self.universe.max(1), self.seed);
        match self.kind {
            WorkloadKind::Uniform => mcp_workloads::uniform(p, n, u, seed),
            WorkloadKind::Zipf => mcp_workloads::zipf(p, n, u, 0.9, seed),
            WorkloadKind::ZipfShared => mcp_workloads::zipf_shared(p, n, u, 0.9, seed),
            WorkloadKind::Phased => {
                mcp_workloads::phased(p, n, (u / 4).max(1), (n / 8).max(1), seed)
            }
            WorkloadKind::Drift => {
                mcp_workloads::drifting_phases(p, n, u, (u / 4).max(1), (n / 8).max(1), seed)
            }
            WorkloadKind::SharedHotset => {
                mcp_workloads::shared_hotset(p, n, u, (u / 4).max(1), 0.3, seed)
            }
            WorkloadKind::Staggered => mcp_workloads::staggered_thrash(p, n, u, p, seed),
            WorkloadKind::Bursty => mcp_workloads::bursty(p, n, (u / 4).max(1), 8, seed),
        }
    }

    /// Human-readable grid label, e.g. `zipf-shared/s3`.
    pub fn label(&self) -> String {
        format!("{}/s{}", self.kind.name(), self.seed)
    }
}

/// One simulation cell of a batch: which workload (by index into the
/// batch's workload table), which strategy family, and the cache
/// parameters. `seed` drives the randomized families only.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellSpec {
    /// Index into the `workloads` slice passed to
    /// [`crate::run_cells`].
    pub workload: usize,
    /// Strategy family identifier (see [`mcp_policies::FAMILIES`]).
    pub family: String,
    /// Cache size `K`.
    pub cache_size: usize,
    /// Fault delay `τ`.
    pub tau: u64,
    /// Seed for randomized families.
    pub seed: u64,
    /// Capacity schedule `K(t)`, if any. `Some(s)` runs the cell under
    /// `s` on the capacity-aware event engine: a fixed schedule matching
    /// `cache_size` gives exactly the `None` result, and one whose initial
    /// `K` differs from `cache_size` is a typed [`crate::BatchError::Sim`].
    pub capacity: Option<CapacitySchedule>,
}

impl CellSpec {
    /// The cell's simulator configuration.
    pub fn config(&self) -> SimConfig {
        SimConfig::new(self.cache_size, self.tau)
    }
}

/// The six classic eviction families (`lru`, `fifo`, `clock`, `lfu`,
/// `mru`, `fwf`). A name classifier only, kept for `perfbench`'s
/// per-family throughput probes: every family runs on the event engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DensePolicy;

impl DensePolicy {
    /// `Some` iff `name` is one of the six classic families.
    pub fn parse(name: &str) -> Option<Self> {
        matches!(name, "lru" | "fifo" | "clock" | "lfu" | "mru" | "fwf").then_some(DensePolicy)
    }
}
