//! DP state-engine throughput on the E12/E13 scaling families: how many
//! Algorithm 1 states (and Algorithm 2 layers) per second the engine
//! expands. This is the number that gates the practical reach of the
//! exact solvers — Theorems 6 and 7 are polynomial in `n` but the
//! constant factor decides how far the sweeps can go.
//!
//! The `ftf` group reports true states/sec (the state count is
//! worker-count- and representation-invariant, so pre/post baselines are
//! directly comparable). The `pif` group reports layers (timesteps)
//! served per second for the same reason; per-expansion rates are
//! available from `mcp pif --stats`.
//!
//! Those families are small enough to stay cache-resident. Two rows use
//! the shapes of the `perfbench` `offline-dp` workload instead, where the
//! DPs are memory-bound: `ftf_states_large` (about 0.21M states, states/s)
//! and `pif_full_pair` (a feasible and an infeasible decision on either
//! side of the optimum, fault-vector expansions/s).
//!
//! Both DPs are pinned to `jobs = 1` and, except in two rows, run without
//! their admissible lower bound (`bound: false`): this measures the engine
//! on Algorithms 1 and 2 as published, not the pool or the pruning, so the
//! state and expansion counts stay comparable with earlier baselines. The
//! exceptions time the default solvers on the `offline-dp` instances:
//! `ftf_bounded_large`, once without a witness (`proof`: only the optimum
//! is proved) and once with one (`witness`), and `pif_bounded_pair`, the
//! PIF pair with the lower bound on and voluntary evictions delayed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mcp_bench::dp_family;
use mcp_core::{SimConfig, Workload};
use mcp_offline::{ftf_dp, pif_decide, pif_decide_with_stats, FtfOptions, PifOptions};
use mcp_policies::Replay;
use std::hint::black_box;

/// The `offline-dp` instances: three cores of 20 Zipf requests over six
/// private pages each, K = 6, τ = 2.
fn offline_dp_instance(zipf_seed: u64) -> (Workload, SimConfig) {
    (
        mcp_workloads::zipf(3, 20, 6, 0.9, zipf_seed),
        SimConfig::new(6, 2),
    )
}

fn ftf_opts() -> FtfOptions {
    FtfOptions {
        jobs: 1,
        bound: false,
        ..Default::default()
    }
}

fn pif_opts(full_transitions: bool) -> PifOptions {
    PifOptions {
        full_transitions,
        jobs: 1,
        bound: false,
        ..Default::default()
    }
}

fn bench_ftf(c: &mut Criterion) {
    // E12's family: two cores alternating private pages, K = 2, tau = 1.
    for n in [32usize, 64, 128] {
        let w = dp_family(n);
        let cfg = SimConfig::new(2, 1);
        let states = ftf_dp(&w, cfg, ftf_opts()).unwrap().states;
        let mut group = c.benchmark_group("dp_throughput/ftf_states");
        group.throughput(Throughput::Elements(states as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let r = ftf_dp(black_box(&w), cfg, ftf_opts()).unwrap();
                black_box(r.min_faults)
            })
        });
        group.finish();
    }
    // The tau axis at fixed n (Theorem 6's (tau+1)^p factor).
    for tau in [4u64, 8] {
        let w = dp_family(32);
        let cfg = SimConfig::new(2, tau);
        let states = ftf_dp(&w, cfg, ftf_opts()).unwrap().states;
        let mut group = c.benchmark_group("dp_throughput/ftf_states_tau");
        group.throughput(Throughput::Elements(states as u64));
        group.bench_with_input(BenchmarkId::from_parameter(tau), &tau, |b, _| {
            b.iter(|| {
                let r = ftf_dp(black_box(&w), cfg, ftf_opts()).unwrap();
                black_box(r.min_faults)
            })
        });
        group.finish();
    }
    // The default solver, lower bound on, on the `offline-dp` instance:
    // proving the optimum against finding a witness for it.
    for (name, reconstruct) in [("proof", false), ("witness", true)] {
        let (w, cfg) = offline_dp_instance(371);
        let opts = FtfOptions {
            jobs: 1,
            reconstruct,
            ..Default::default()
        };
        let states = ftf_dp(&w, cfg, opts).unwrap().states;
        let mut group = c.benchmark_group("dp_throughput/ftf_bounded_large");
        group.throughput(Throughput::Elements(states as u64));
        group.bench_function(name, |b| {
            b.iter(|| {
                let r = ftf_dp(black_box(&w), cfg, opts).unwrap();
                black_box(r.min_faults)
            })
        });
        group.finish();
    }
    // The memory-bound regime: the `offline-dp` FTF instance.
    {
        let (w, cfg) = offline_dp_instance(371);
        let states = ftf_dp(&w, cfg, ftf_opts()).unwrap().states;
        let mut group = c.benchmark_group("dp_throughput");
        group.throughput(Throughput::Elements(states as u64));
        group.bench_function("ftf_states_large", |b| {
            b.iter(|| {
                let r = ftf_dp(black_box(&w), cfg, ftf_opts()).unwrap();
                black_box(r.min_faults)
            })
        });
        group.finish();
    }
}

fn bench_pif(c: &mut Criterion) {
    // E13's family, honest transitions, generous and tight bounds.
    let opts = pif_opts(false);
    for n in [16usize, 32, 64] {
        let w = dp_family(n);
        let cfg = SimConfig::new(2, 1);
        let horizon = (2 * n) as u64;
        let bounds = [n as u64, n as u64];
        let mut group = c.benchmark_group("dp_throughput/pif_layers");
        group.throughput(Throughput::Elements(horizon));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let ans = pif_decide(black_box(&w), cfg, horizon, &bounds, opts).unwrap();
                black_box(ans)
            })
        });
        group.finish();
    }
    // Full transition relation (voluntary evictions): the heavy regime.
    {
        let n = 24usize;
        let w = dp_family(n);
        let cfg = SimConfig::new(2, 1);
        let horizon = (2 * n) as u64;
        let bounds = [n as u64, n as u64];
        let opts = pif_opts(true);
        let mut group = c.benchmark_group("dp_throughput/pif_layers_full");
        group.throughput(Throughput::Elements(horizon));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let ans = pif_decide(black_box(&w), cfg, horizon, &bounds, opts).unwrap();
                black_box(ans)
            })
        });
        group.finish();
    }
    // The `offline-dp` PIF pair: at a horizon every schedule has finished
    // by, the per-core faults of an optimal schedule (feasible) and one
    // fault fewer on the most-faulting core (infeasible).
    {
        let (w, cfg) = offline_dp_instance(0);
        let schedule = ftf_dp(
            &w,
            cfg,
            FtfOptions {
                reconstruct: true,
                ..ftf_opts()
            },
        )
        .unwrap()
        .schedule
        .unwrap();
        let feasible = mcp_core::simulate(&w, cfg, Replay::new(schedule.decisions))
            .unwrap()
            .faults;
        let mut infeasible = feasible.clone();
        let j = (0..infeasible.len())
            .max_by_key(|&j| (infeasible[j], j))
            .unwrap();
        infeasible[j] -= 1;
        let horizon = (0..w.num_cores()).map(|j| w.len(j) as u64).max().unwrap() * (cfg.tau + 1);
        let bounded = PifOptions {
            jobs: 1,
            ..Default::default()
        };
        for (name, opts) in [
            ("pif_full_pair", pif_opts(true)),
            ("pif_bounded_pair", bounded),
        ] {
            let expansions: usize = [&feasible, &infeasible]
                .iter()
                .map(|b| {
                    pif_decide_with_stats(&w, cfg, horizon, b, opts)
                        .unwrap()
                        .1
                        .expansions
                })
                .sum();
            let mut group = c.benchmark_group("dp_throughput");
            group.throughput(Throughput::Elements(expansions as u64));
            group.bench_function(name, |b| {
                b.iter(|| {
                    let yes = pif_decide(black_box(&w), cfg, horizon, &feasible, opts).unwrap();
                    let no = pif_decide(black_box(&w), cfg, horizon, &infeasible, opts).unwrap();
                    assert!(yes && !no, "the pair straddles the optimum");
                    black_box((yes, no))
                })
            });
            group.finish();
        }
    }
}

criterion_group!(benches, bench_ftf, bench_pif);
criterion_main!(benches);
