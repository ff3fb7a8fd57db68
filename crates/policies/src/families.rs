//! The strategy-family registry: every named strategy the CLI, fuzz
//! harness, batch engine, and tournament grid can instantiate.
//!
//! A *family* is a constructor keyed by the same identifier
//! `mcp simulate --strategy` accepts. The registry lives here (rather than
//! in `mcp-oracle`, where it started) so that both the differential oracle
//! and the batch engine can build strategies without depending on each
//! other. Randomized families (`rand`, `mark-rand`) are seeded per call,
//! so every comparison is reproducible.

use crate::{
    shared_fifo, shared_lru, static_partition_belady, static_partition_lru, Clock, Fwf, Lfu, LruK,
    LruMimicPartition, Marking, MarkingTie, Mru, Partition, RandomEvict, SacrificeOffline, Shared,
    SharedFitf,
};
use mcp_core::{CacheStrategy, SimConfig, Workload};

/// Every registered strategy family, in canonical order.
pub const FAMILIES: &[&str] = &[
    "lru",
    "fifo",
    "clock",
    "lfu",
    "mru",
    "fwf",
    "lru2",
    "rand",
    "mark",
    "mark-rand",
    "fitf",
    "mimic",
    "partition",
    "partition-opt",
    "sacrifice",
];

/// The families whose [`CacheStrategy::begin`] reads the full future
/// trace. They cannot serve a live stream, where `begin` sees `p` empty
/// sequences (`mcp_core::online`); every other family in [`FAMILIES`]
/// ignores the sequences in `begin` and is safe to run online.
pub const OFFLINE_ONLY: &[&str] = &["fitf", "mimic", "partition-opt", "sacrifice"];

/// Build a fresh strategy of family `name` for `workload` under `cfg`
/// (each engine run needs its own instance — strategies are stateful).
/// Returns `None` for unknown names. `seed` drives the randomized
/// families only.
pub fn build_family(
    name: &str,
    workload: &Workload,
    cfg: SimConfig,
    seed: u64,
) -> Option<Box<dyn CacheStrategy>> {
    let p = workload.num_cores();
    let equal = || Partition::equal(cfg.cache_size, p);
    Some(match name {
        "lru" => Box::new(shared_lru()),
        "fifo" => Box::new(shared_fifo()),
        "clock" => Box::new(Shared::new(Clock::new())),
        "lfu" => Box::new(Shared::new(Lfu::new())),
        "mru" => Box::new(Shared::new(Mru::new())),
        "fwf" => Box::new(Shared::new(Fwf::new())),
        "lru2" => Box::new(Shared::new(LruK::new(2))),
        "rand" => Box::new(Shared::new(RandomEvict::new(seed))),
        "mark" => Box::new(Shared::new(Marking::new(MarkingTie::Lru))),
        "mark-rand" => Box::new(Shared::new(Marking::new(MarkingTie::Random(seed)))),
        "fitf" => Box::new(SharedFitf::new()),
        "mimic" => Box::new(LruMimicPartition::new()),
        "partition" => Box::new(static_partition_lru(equal())),
        "partition-opt" => Box::new(static_partition_belady(equal())),
        "sacrifice" => Box::new(SacrificeOffline::new(p - 1)),
        _ => return None,
    })
}

/// `true` iff `family` is defined on `workload` at all. The offline
/// sacrifice construction (Lemma 4) asserts disjoint per-core sequences;
/// every other family accepts any workload.
pub fn family_applicable(name: &str, workload: &Workload) -> bool {
    name != "sacrifice" || workload.is_disjoint()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_builds_and_runs() {
        let w = Workload::from_u32([vec![1, 2, 1], vec![7, 8, 7]]).unwrap();
        let cfg = SimConfig::new(4, 1);
        for family in FAMILIES {
            let strategy = build_family(family, &w, cfg, 42).unwrap();
            let r = mcp_core::simulate(&w, cfg, strategy).unwrap();
            assert_eq!(r.total_faults() + r.total_hits(), 6, "{family}");
        }
        assert!(build_family("nope", &w, cfg, 0).is_none());
    }

    #[test]
    fn sacrifice_requires_disjoint_workloads() {
        let disjoint = Workload::from_u32([vec![1, 2], vec![7, 8]]).unwrap();
        let shared = Workload::from_u32([vec![1, 2], vec![1, 8]]).unwrap();
        assert!(family_applicable("sacrifice", &disjoint));
        assert!(!family_applicable("sacrifice", &shared));
        assert!(family_applicable("lru", &shared));
    }
}
