//! The event engine, offline and fed incrementally, on the regimes that
//! motivated it.
//!
//! Each row runs the same (workload, config) twice: `event` is the offline
//! [`simulate`] over a borrowed workload; `online` pushes the whole
//! workload into an [`OnlineSimulator`], closes every core and drains it
//! with `advance` — the same engine behind the safe-horizon gate, so the
//! gap between the two is the cost of owning a growing workload plus the
//! gate. The sparse large-τ rows use `staggered_thrash`: after warm-up
//! every core faults with period `τ + 1` and the cores occupy distinct
//! phases, so each timestep serves ≈ 1 core: the engine pays `O(1)`
//! queue work per step where a per-step core scan would pay `O(p)`. The
//! dense small-τ rows are the parity guard: with every core due almost
//! every step the event queue stays cheap.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mcp_bench::throughput_workload;
use mcp_core::{simulate, OnlineSimulator, SimConfig, Workload};
use mcp_policies::shared_lru;
use mcp_workloads::{bursty, staggered_thrash};
use std::hint::black_box;

/// Bench the offline and the incremental run on the same row.
fn engine_pair(group: &mut criterion::BenchmarkGroup<'_>, row: &str, w: &Workload, cfg: SimConfig) {
    group.throughput(Throughput::Elements(w.total_len() as u64));
    group.bench_with_input(BenchmarkId::new(row, "event"), &cfg, |b, &cfg| {
        b.iter(|| {
            let r = simulate(black_box(w), cfg, shared_lru()).unwrap();
            black_box(r.total_faults())
        })
    });
    group.bench_with_input(BenchmarkId::new(row, "online"), &cfg, |b, &cfg| {
        b.iter(|| {
            let w = black_box(w);
            let mut engine = OnlineSimulator::new(w.num_cores(), cfg, shared_lru()).unwrap();
            for core in 0..w.num_cores() {
                for &page in w.sequence(core) {
                    engine.push(core, page).unwrap();
                }
            }
            engine.close_all();
            engine.advance().unwrap();
            black_box(engine.faults().iter().sum::<u64>())
        })
    });
}

fn bench_sparse_large_tau(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_engine/sparse");
    // p ≤ τ + 1 keeps the staggered phases distinct: ≈ 1 due core/step.
    // The rows use large p because that is where a per-step core scan
    // would cost the most; the event engine's per-request queue work
    // does not grow with p.
    for (p, tau, n) in [
        (512usize, 512u64, 600usize),
        (768, 1_024, 850),
        (1_024, 1_024, 1_100),
    ] {
        let w = staggered_thrash(p, n, 16, p, 42);
        let row = format!("staggered_p{p}_tau{tau}");
        engine_pair(&mut group, &row, &w, SimConfig::new(2 * p, tau));
    }
    group.finish();
}

fn bench_bursty(c: &mut Criterion) {
    // Hit runs are dense (every core due each step); cold bursts park a
    // core for `burst · (τ + 1)` ticks — the mixed regime. A
    // no-regression guard, like the dense group.
    let mut group = c.benchmark_group("event_engine/bursty");
    let p = 8;
    let w = bursty(p, 20_000, 4, 8, 7);
    engine_pair(&mut group, "bursty_p8_tau32", &w, SimConfig::new(8 * p, 32));
    group.finish();
}

fn bench_dense_parity(c: &mut Criterion) {
    // Dense small-τ Zipf traffic, where every core is usually due: the
    // due list is reused as the next step's wake-up list by one swap.
    let mut group = c.benchmark_group("event_engine/dense");
    let w = throughput_workload(4, 20_000, 9);
    engine_pair(&mut group, "zipf_p4_tau0", &w, SimConfig::new(64, 0));
    engine_pair(&mut group, "zipf_p4_tau2", &w, SimConfig::new(64, 2));
    group.finish();
}

criterion_group!(
    benches,
    bench_sparse_large_tau,
    bench_bursty,
    bench_dense_parity
);
criterion_main!(benches);
