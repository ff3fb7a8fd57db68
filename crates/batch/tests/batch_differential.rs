//! The batch runner's plumbing: every cell's `SimResult` — fault counts,
//! hit counts, fault times, makespan — must be bit-identical to a fresh
//! per-run `Simulator` on the same instance, for every family, on
//! disjoint and shared (fetch-colliding) workloads, at every worker
//! count, with and without a capacity schedule, and bad cells must come
//! back as typed errors.

use mcp_batch::{run_cell_reference, run_cells, BatchError, CellSpec};
use mcp_core::{simulate_with_capacity, CapacitySchedule, Workload};
use mcp_policies::FAMILIES;
use mcp_workloads::{
    bursty, drifting_phases, phased, shared_hotset, staggered_thrash, uniform, zipf, zipf_shared,
};

/// A workload mix that exercises hits, capacity evictions, shared-fetch
/// misses, pinning collisions, and finished-core staggering.
fn workload_table() -> Vec<Workload> {
    vec![
        uniform(3, 60, 12, 1),
        zipf(2, 80, 16, 0.9, 2),
        phased(3, 90, 6, 11, 3),
        zipf_shared(3, 80, 10, 0.9, 4),
        drifting_phases(2, 70, 64, 8, 9, 5),
        shared_hotset(3, 60, 8, 4, 0.5, 6),
        staggered_thrash(4, 50, 8, 3, 7),
        bursty(2, 60, 4, 6, 8),
        // Deliberate total collision: both cores request the same pages in
        // lockstep, so with τ > 0 every other request is a shared-fetch
        // miss on a mid-flight cell.
        Workload::from_u32([vec![1, 2, 3, 1, 2, 3], vec![1, 2, 3, 1, 2, 3]]).unwrap(),
        // One finished-immediately core (empty sequence) next to a live one.
        Workload::from_u32([vec![], vec![5, 6, 5, 7, 5, 6]]).unwrap(),
    ]
}

fn grid(workloads: &[Workload]) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        let p = w.num_cores();
        for family in FAMILIES {
            for k in [p.max(2), p + 3, 2 * p + 5] {
                for tau in [0u64, 1, 3, 16] {
                    cells.push(CellSpec {
                        workload: wi,
                        family: family.to_string(),
                        cache_size: k,
                        tau,
                        seed: 0xBA7C4 ^ wi as u64,
                        capacity: None,
                    });
                }
            }
        }
    }
    cells
}

#[test]
fn registry_plumbing_and_typed_errors_match_per_run_simulator() {
    // Spot-check that the plumbing (registry, seeds, applicability) is
    // faithful, including an inapplicable pair and an unknown family.
    let workloads = workload_table();
    let mut cells = Vec::new();
    for family in [
        "lru2",
        "rand",
        "mark",
        "mark-rand",
        "partition",
        "sacrifice",
    ] {
        for wi in [0usize, 3] {
            let p = workloads[wi].num_cores();
            cells.push(CellSpec {
                workload: wi,
                family: family.to_string(),
                cache_size: p + 2,
                tau: 2,
                seed: 99,
                capacity: None,
            });
        }
    }
    cells.push(CellSpec {
        workload: 0,
        family: "no-such-family".into(),
        cache_size: 4,
        tau: 0,
        seed: 0,
        capacity: None,
    });
    let batch = run_cells(&workloads, &cells);
    for (cell, got) in cells.iter().zip(&batch) {
        let want = run_cell_reference(&workloads, cell);
        assert_eq!(
            got, &want,
            "family={} workload={}",
            cell.family, cell.workload
        );
    }
    // The shared-universe workload (index 3) rejects `sacrifice`, and the
    // unknown family errors — as typed errors, not panics.
    assert!(batch.iter().filter(|r| r.is_err()).count() == 2);
}

#[test]
fn results_are_bit_identical_at_every_jobs_level() {
    let workloads = workload_table();
    let cells = grid(&workloads);
    let mut baseline = None;
    for jobs in [1usize, 2, 4] {
        mcp_exec::set_jobs(Some(jobs));
        let got = run_cells(&workloads, &cells);
        match &baseline {
            None => baseline = Some(got),
            Some(want) => assert_eq!(&got, want, "jobs={jobs} diverged from jobs=1"),
        }
    }
    mcp_exec::set_jobs(None);
}

#[test]
fn capacity_schedules_run_on_the_capacity_aware_engine() {
    // A fixed schedule matching `cache_size` is constant capacity: the
    // result equals the `capacity: None` cell's. A fixed schedule whose
    // `K` differs is rejected as a typed model error, the same one the
    // event engine reports.
    let workloads = workload_table();
    let mut cells = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        let k = w.num_cores() + 3;
        for family in FAMILIES {
            for capacity in [None, Some(k), Some(k + 1)] {
                cells.push(CellSpec {
                    workload: wi,
                    family: family.to_string(),
                    cache_size: k,
                    tau: 2,
                    seed: 5,
                    capacity: capacity.map(CapacitySchedule::fixed),
                });
            }
        }
    }
    for jobs in [1usize, 2] {
        mcp_exec::set_jobs(Some(jobs));
        let got = run_cells(&workloads, &cells);
        for (triple, cell) in got.chunks(3).zip(cells.chunks(3)) {
            let [none, matching, mismatched] = triple else {
                unreachable!("three capacities per cell")
            };
            assert_eq!(matching, none, "jobs={jobs} family={}", cell[0].family);
            if let Err(BatchError::Inapplicable(_)) = none {
                assert_eq!(mismatched, none);
                continue;
            }
            let w = &workloads[cell[2].workload];
            let strategy =
                mcp_policies::build_family(&cell[2].family, w, cell[2].config(), cell[2].seed)
                    .unwrap();
            let want = simulate_with_capacity(
                w,
                cell[2].config(),
                cell[2].capacity.clone().unwrap(),
                strategy,
            )
            .unwrap_err();
            assert_eq!(
                mismatched,
                &Err(BatchError::Sim(want)),
                "jobs={jobs} family={}",
                cell[2].family
            );
        }
    }
    mcp_exec::set_jobs(None);
}
