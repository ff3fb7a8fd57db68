//! Per-policy engine overhead: the same Zipf workload under each eviction
//! policy and strategy wrapper.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mcp_bench::{large_k_workload, throughput_workload};
use mcp_core::{simulate, SimConfig};
use mcp_policies::{
    static_partition_belady, static_partition_lru, Clock, Fifo, Fwf, Lfu, LruK, LruMimicPartition,
    Marking, MarkingTie, Mru, Partition, RandomEvict, SacrificeOffline, Shared, SharedFitf,
};
use std::hint::black_box;

fn bench_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("policy/shared");
    let w = throughput_workload(4, 10_000, 3);
    let cfg = SimConfig::new(32, 2);
    group.throughput(Throughput::Elements(40_000));
    group.bench_function("lru", |b| {
        b.iter(|| {
            black_box(
                simulate(&w, cfg, mcp_policies::shared_lru())
                    .unwrap()
                    .total_faults(),
            )
        })
    });
    group.bench_function("fifo", |b| {
        b.iter(|| {
            black_box(
                simulate(&w, cfg, Shared::new(Fifo::new()))
                    .unwrap()
                    .total_faults(),
            )
        })
    });
    group.bench_function("clock", |b| {
        b.iter(|| {
            black_box(
                simulate(&w, cfg, Shared::new(Clock::new()))
                    .unwrap()
                    .total_faults(),
            )
        })
    });
    group.bench_function("lfu", |b| {
        b.iter(|| {
            black_box(
                simulate(&w, cfg, Shared::new(Lfu::new()))
                    .unwrap()
                    .total_faults(),
            )
        })
    });
    group.bench_function("mru", |b| {
        b.iter(|| {
            black_box(
                simulate(&w, cfg, Shared::new(Mru::new()))
                    .unwrap()
                    .total_faults(),
            )
        })
    });
    group.bench_function("random", |b| {
        b.iter(|| {
            black_box(
                simulate(&w, cfg, Shared::new(RandomEvict::new(1)))
                    .unwrap()
                    .total_faults(),
            )
        })
    });
    group.bench_function("marking_lru", |b| {
        b.iter(|| {
            black_box(
                simulate(&w, cfg, Shared::new(Marking::new(MarkingTie::Lru)))
                    .unwrap()
                    .total_faults(),
            )
        })
    });
    group.bench_function("fwf", |b| {
        b.iter(|| {
            black_box(
                simulate(&w, cfg, Shared::new(Fwf::new()))
                    .unwrap()
                    .total_faults(),
            )
        })
    });
    group.bench_function("lru2", |b| {
        b.iter(|| {
            black_box(
                simulate(&w, cfg, Shared::new(LruK::new(2)))
                    .unwrap()
                    .total_faults(),
            )
        })
    });
    group.bench_function("mark_rand", |b| {
        b.iter(|| {
            black_box(
                simulate(&w, cfg, Shared::new(Marking::new(MarkingTie::Random(1))))
                    .unwrap()
                    .total_faults(),
            )
        })
    });
    group.bench_function("fitf_offline", |b| {
        b.iter(|| black_box(simulate(&w, cfg, SharedFitf::new()).unwrap().total_faults()))
    });
    group.finish();
}

fn bench_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("policy/strategy_wrappers");
    let w = throughput_workload(4, 10_000, 5);
    let cfg = SimConfig::new(32, 2);
    group.throughput(Throughput::Elements(40_000));
    group.bench_function("shared_lru", |b| {
        b.iter(|| {
            black_box(
                simulate(&w, cfg, mcp_policies::shared_lru())
                    .unwrap()
                    .total_faults(),
            )
        })
    });
    group.bench_function("static_partition_lru", |b| {
        b.iter(|| {
            black_box(
                simulate(&w, cfg, static_partition_lru(Partition::equal(32, 4)))
                    .unwrap()
                    .total_faults(),
            )
        })
    });
    group.bench_function("static_partition_belady", |b| {
        b.iter(|| {
            black_box(
                simulate(&w, cfg, static_partition_belady(Partition::equal(32, 4)))
                    .unwrap()
                    .total_faults(),
            )
        })
    });
    group.bench_function("lru_mimic_partition", |b| {
        b.iter(|| {
            black_box(
                simulate(&w, cfg, LruMimicPartition::new())
                    .unwrap()
                    .total_faults(),
            )
        })
    });
    // Lemma 4's offline S_OFF; the Zipf fixture is disjoint, as it needs.
    assert!(w.is_disjoint());
    group.bench_function("sacrifice", |b| {
        b.iter(|| {
            black_box(
                simulate(&w, cfg, SacrificeOffline::new(3))
                    .unwrap()
                    .total_faults(),
            )
        })
    });
    group.finish();
}

fn bench_policies_large_k(c: &mut Criterion) {
    // Victim selection under a 1024-cell cache: the intrusive policy
    // structures (and FITF's next-occurrence arrays) versus O(K) scans.
    let mut group = c.benchmark_group("policy/shared_large_k");
    let w = large_k_workload(4, 10_000, 13);
    let cfg = SimConfig::new(1024, 2);
    group.throughput(Throughput::Elements(40_000));
    group.bench_function("lru", |b| {
        b.iter(|| {
            black_box(
                simulate(&w, cfg, mcp_policies::shared_lru())
                    .unwrap()
                    .total_faults(),
            )
        })
    });
    group.bench_function("fifo", |b| {
        b.iter(|| {
            black_box(
                simulate(&w, cfg, Shared::new(Fifo::new()))
                    .unwrap()
                    .total_faults(),
            )
        })
    });
    group.bench_function("clock", |b| {
        b.iter(|| {
            black_box(
                simulate(&w, cfg, Shared::new(Clock::new()))
                    .unwrap()
                    .total_faults(),
            )
        })
    });
    group.bench_function("lfu", |b| {
        b.iter(|| {
            black_box(
                simulate(&w, cfg, Shared::new(Lfu::new()))
                    .unwrap()
                    .total_faults(),
            )
        })
    });
    group.bench_function("fitf_offline", |b| {
        b.iter(|| black_box(simulate(&w, cfg, SharedFitf::new()).unwrap().total_faults()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_policies,
    bench_strategies,
    bench_policies_large_k
);
criterion_main!(benches);
