//! E02 — Lemma 1, upper bound: under any fixed static partition, LRU (a
//! marking/conservative policy) is at most `max_j k_j` worse than
//! per-part OPT, on every workload.
//!
//! This experiment runs on the `mcp-batch` runner by default: all
//! `(config × seed × strategy × τ)` cells go through one pooled
//! [`mcp_batch::run_cells`] grid, which builds each cell's strategy
//! through the family registry. The serial per-run loop (a fresh
//! `Simulator` per cell, built directly) is kept behind [`E02Engine`] so
//! the parity test can assert the JSON report is byte-equal between the
//! two at every `--jobs` level.

use super::{ratio, Experiment, Scale};
use crate::grid::grid2;
use crate::report::{Report, Table, Verdict};
use crate::stats::fmt;
use mcp_batch::CellSpec;
use mcp_core::{simulate, SimConfig, Workload};
use mcp_policies::{static_partition_lru, Partition};
use mcp_workloads::{phased, uniform, zipf};

/// See module docs.
pub struct E02;

/// Which execution path [`E02::run_with`] uses. The report is
/// byte-identical either way (asserted by `tests/e02_batch_parity.rs`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum E02Engine {
    /// One fresh `Simulator` per cell (the pre-batch code path).
    PerRun,
    /// One pooled `mcp-batch` grid over the family registry.
    Batch,
}

const TAUS: [u64; 2] = [0, 2];
const STRATEGIES: [&str; 2] = ["partition", "partition-opt"];

fn configs() -> Vec<(&'static str, usize, usize)> {
    vec![
        ("uniform", 2, 4),
        ("uniform", 3, 6),
        ("zipf(0.9)", 2, 6),
        ("phased", 3, 9),
    ]
}

fn generate(kind: &str, p: usize, k: usize, n: usize, seed: u64) -> Workload {
    match kind {
        "uniform" => uniform(p, n, (k * 2) as u32, seed),
        "zipf(0.9)" => zipf(p, n, (k * 3) as u32, 0.9, seed),
        _ => phased(p, n, k as u32, n / 8, seed),
    }
}

impl E02 {
    /// Run under an explicit engine (the trait's [`Experiment::run`] uses
    /// [`E02Engine::Batch`]).
    pub fn run_with(scale: Scale, engine: E02Engine) -> Report {
        let seeds: Vec<u64> = match scale {
            Scale::Quick => (0..5).collect(),
            Scale::Full => (0..25).collect(),
        };
        let n = match scale {
            Scale::Quick => 400,
            Scale::Full => 2_000,
        };
        let mut table = Table::new(
            "worst observed sP^B_LRU / sP^B_OPT across random workloads",
            &["workload", "p", "K", "max_k", "worst ratio", "bound met"],
        );
        let mut all_ok = true;
        for (kind, p, k) in configs() {
            let sizes = Partition::equal(k, p);
            let max_k = sizes.max_part();
            let per_seed = match engine {
                E02Engine::PerRun => per_run_worst(kind, p, k, n, &seeds, &sizes),
                E02Engine::Batch => batch_worst(kind, p, k, n, &seeds),
            };
            let worst = per_seed.into_iter().fold(0.0f64, f64::max);
            let ok = worst <= max_k as f64 + 1e-9;
            all_ok &= ok;
            table.row(vec![
                kind.into(),
                p.to_string(),
                k.to_string(),
                max_k.to_string(),
                fmt(worst),
                ok.to_string(),
            ]);
        }
        Report {
            id: "E02".into(),
            title: E02.title().into(),
            claim: E02.claim().into(),
            tables: vec![table],
            verdict: if all_ok {
                Verdict::Confirmed
            } else {
                Verdict::Mixed("a ratio exceeded max_k".into())
            },
            notes: vec![
                "Realistic traffic sits far below the worst case: the bound binds only on \
                 adversarial eviction-chasing sequences (see E01)."
                    .into(),
            ],
        }
    }
}

/// The pre-batch path: per-seed workloads and fresh simulators, one cell
/// at a time inside the seed-level `par_map`.
fn per_run_worst(
    kind: &str,
    p: usize,
    k: usize,
    n: usize,
    seeds: &[u64],
    sizes: &Partition,
) -> Vec<f64> {
    mcp_exec::Pool::global().par_map(seeds, |_, &seed| {
        let w = generate(kind, p, k, n, seed);
        let mut worst: f64 = 0.0;
        for tau in TAUS {
            let cfg = SimConfig::new(k, tau);
            let lru = simulate(&w, cfg, static_partition_lru(sizes.clone()))
                .unwrap()
                .total_faults();
            let opt = simulate(
                &w,
                cfg,
                mcp_policies::static_partition_belady(sizes.clone()),
            )
            .unwrap()
            .total_faults();
            worst = worst.max(ratio(lru, opt));
        }
        worst
    })
}

/// The batch path: materialize each seed's workload once, enumerate the
/// `(seed × strategy × τ)` grid, and run it through `mcp_batch`.
/// `build_family("partition"/"partition-opt")` constructs exactly the
/// `Partition::equal(k, p)` strategies the per-run path builds.
fn batch_worst(kind: &str, p: usize, k: usize, n: usize, seeds: &[u64]) -> Vec<f64> {
    let workloads: Vec<Workload> =
        mcp_exec::Pool::global().par_map(seeds, |_, &seed| generate(kind, p, k, n, seed));
    let cells: Vec<CellSpec> = grid2(&(0..seeds.len()).collect::<Vec<_>>(), &STRATEGIES)
        .into_iter()
        .flat_map(|(wi, family)| {
            TAUS.map(|tau| CellSpec {
                workload: wi,
                family: family.to_string(),
                cache_size: k,
                tau,
                seed: 0, // both families are deterministic
                capacity: None,
            })
        })
        .collect();
    let results = mcp_batch::run_cells(&workloads, &cells);
    // Cell layout: per seed, [lru τ0, lru τ2, opt τ0, opt τ2]. Fold each
    // seed's worst in the per-run path's τ order.
    let stride = STRATEGIES.len() * TAUS.len();
    (0..seeds.len())
        .map(|si| {
            let base = si * stride;
            let faults = |i: usize| {
                results[base + i]
                    .as_ref()
                    .expect("cells valid")
                    .total_faults()
            };
            let mut worst: f64 = 0.0;
            for (ti, _) in TAUS.iter().enumerate() {
                worst = worst.max(ratio(faults(ti), faults(TAUS.len() + ti)));
            }
            worst
        })
        .collect()
}

impl Experiment for E02 {
    fn id(&self) -> &'static str {
        "E02"
    }
    fn title(&self) -> &'static str {
        "Static-partition LRU within max_k of per-part OPT (Lemma 1 upper bound)"
    }
    fn claim(&self) -> &'static str {
        "For every R and fixed static partition B, sP^B_LRU / sP^B_OPT <= max_j k_j"
    }

    fn run(&self, scale: Scale) -> Report {
        E02::run_with(scale, E02Engine::Batch)
    }
}
