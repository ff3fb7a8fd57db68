//! The batch runner vs. the per-run path, on a tournament-shaped grid:
//! many small cells across mixed workload kinds, the six classic
//! eviction families, cache sizes, and fetch delays.
//!
//! Both rows run every cell on the event engine with a fresh strategy
//! from the family registry. The `per_run` row pays what every pre-batch
//! sweep paid per cell: workload materialization plus a `Simulator` with
//! a boxed strategy. The `batch` row measures what `mcp-batch` adds on
//! top of the engine: each workload materialized once and shared by
//! every cell on it, and the cells fanned over the pool in cell-index
//! order. Results are bit-identical (spot-checked here; checked
//! cell-by-cell in `crates/batch/tests/batch_differential.rs` and by
//! `mcp fuzz --profile batch`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mcp_batch::{run_cell_reference, run_cells, CellSpec, WorkloadKind, WorkloadSpec};
use mcp_core::Workload;
use std::hint::black_box;

const CLASSIC_FAMILIES: [&str; 6] = ["lru", "fifo", "clock", "lfu", "mru", "fwf"];

/// The grid: 8 workload kinds × 3 seeds × 3 cache sizes × 3 delays ×
/// 6 families = 1296 cells over 24 distinct workloads.
fn grid() -> (Vec<WorkloadSpec>, Vec<CellSpec>) {
    let mut specs = Vec::new();
    for &kind in WorkloadKind::ALL {
        for seed in 0..3 {
            specs.push(WorkloadSpec {
                kind,
                cores: 4,
                len: 200,
                universe: 64,
                seed,
            });
        }
    }
    let mut cells = Vec::new();
    for wi in 0..specs.len() {
        for k in [8usize, 16, 32] {
            for tau in [0u64, 2, 8] {
                for family in CLASSIC_FAMILIES {
                    cells.push(CellSpec {
                        workload: wi,
                        family: family.to_string(),
                        cache_size: k,
                        tau,
                        seed: 0,
                        capacity: None,
                    });
                }
            }
        }
    }
    (specs, cells)
}

fn bench_grid(c: &mut Criterion) {
    let (specs, cells) = grid();
    assert!(cells.len() >= 1_000, "gate needs a 1000+ cell grid");

    // Spot-check bit-identity between the two paths before timing them.
    let workloads: Vec<Workload> = specs.iter().map(|s| s.materialize()).collect();
    let batch = run_cells(&workloads, &cells);
    for (i, cell) in cells.iter().enumerate().step_by(131) {
        let spec = &specs[cell.workload];
        let solo = CellSpec {
            workload: 0,
            ..cell.clone()
        };
        let reference = run_cell_reference(&[spec.materialize()], &solo);
        assert_eq!(batch[i], reference, "cell {i} diverged");
    }

    let mut group = c.benchmark_group("batch_engine/mixed_grid_1296_cells");
    group.throughput(Throughput::Elements(cells.len() as u64));
    group.bench_function("batch", |b| {
        b.iter(|| {
            let workloads: Vec<Workload> =
                mcp_exec::Pool::global().par_map(&specs, |_, spec| spec.materialize());
            let results = run_cells(black_box(&workloads), black_box(&cells));
            black_box(results.len())
        })
    });
    group.bench_function("per_run", |b| {
        b.iter(|| {
            let results = mcp_exec::Pool::global().par_map(&cells, |_, cell| {
                let spec = &specs[cell.workload];
                let solo = CellSpec {
                    workload: 0,
                    ..cell.clone()
                };
                run_cell_reference(&[spec.materialize()], &solo)
            });
            black_box(results.len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_grid);
criterion_main!(benches);
