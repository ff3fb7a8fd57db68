//! Design-choice ablations called out in DESIGN.md:
//!
//! * branch-and-bound pruning in Algorithm 1: the default solver (the
//!   admissible lower bound) against the raw DP as published;
//! * honest (lazy) vs full transition relation in both DPs;
//! * schedule reconstruction cost;
//! * the Theorem-5 restriction (p-way branching) vs full brute force.

use criterion::{criterion_group, criterion_main, Criterion};
use mcp_bench::dp_family;
use mcp_core::SimConfig;
use mcp_offline::{
    brute_force_min_faults, fitf_restricted_min_faults, ftf_dp, pif_decide, FtfOptions, PifOptions,
};
use std::hint::black_box;

fn bench_pruning(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/ftf_pruning");
    let w = dp_family(48);
    let cfg = SimConfig::new(2, 1);
    group.bench_function("pruned", |b| {
        b.iter(|| black_box(ftf_dp(&w, cfg, FtfOptions::default()).unwrap().min_faults))
    });
    group.bench_function("raw", |b| {
        b.iter(|| {
            black_box(
                ftf_dp(
                    &w,
                    cfg,
                    FtfOptions {
                        bound: false,
                        ..Default::default()
                    },
                )
                .unwrap()
                .min_faults,
            )
        })
    });
    group.finish();
}

fn bench_transition_relation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/ftf_transitions");
    let w = dp_family(16);
    let cfg = SimConfig::new(2, 1);
    group.bench_function("lazy(honest)", |b| {
        b.iter(|| black_box(ftf_dp(&w, cfg, FtfOptions::default()).unwrap().min_faults))
    });
    group.bench_function("full(dishonest)", |b| {
        b.iter(|| {
            black_box(
                ftf_dp(
                    &w,
                    cfg,
                    FtfOptions {
                        lazy: false,
                        ..Default::default()
                    },
                )
                .unwrap()
                .min_faults,
            )
        })
    });
    group.finish();
}

fn bench_reconstruction(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/ftf_reconstruction");
    let w = dp_family(32);
    let cfg = SimConfig::new(2, 1);
    group.bench_function("value_only", |b| {
        b.iter(|| black_box(ftf_dp(&w, cfg, FtfOptions::default()).unwrap().min_faults))
    });
    group.bench_function("with_schedule", |b| {
        b.iter(|| {
            black_box(
                ftf_dp(
                    &w,
                    cfg,
                    FtfOptions {
                        reconstruct: true,
                        ..Default::default()
                    },
                )
                .unwrap()
                .schedule
                .map(|s| s.decisions.len()),
            )
        })
    });
    group.finish();
}

fn bench_search_restriction(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/search_restriction");
    let w = mcp_core::Workload::from_u32([vec![1, 2, 3, 1, 2, 3], vec![11, 12, 11, 12, 11, 12]])
        .unwrap();
    let cfg = SimConfig::new(3, 1);
    group.bench_function("brute_all_victims", |b| {
        b.iter(|| black_box(brute_force_min_faults(&w, cfg, 100_000_000).unwrap()))
    });
    group.bench_function("thm5_restricted", |b| {
        b.iter(|| black_box(fitf_restricted_min_faults(&w, cfg, 100_000_000).unwrap()))
    });
    group.finish();
}

fn bench_pif_pareto_pressure(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/pif_bounds_tightness");
    let w = dp_family(24);
    let cfg = SimConfig::new(2, 1);
    let opts = PifOptions {
        full_transitions: false,
        ..Default::default()
    };
    for (label, b0, b1) in [("loose", 24u64, 24u64), ("exact", 12, 12), ("tight", 2, 2)] {
        group.bench_function(label, |bch| {
            bch.iter(|| black_box(pif_decide(&w, cfg, 48, &[b0, b1], opts).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pruning,
    bench_transition_relation,
    bench_reconstruction,
    bench_search_restriction,
    bench_pif_pareto_pressure
);
criterion_main!(benches);
