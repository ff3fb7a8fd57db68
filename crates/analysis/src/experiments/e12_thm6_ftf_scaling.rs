//! E12 — Theorem 6: Algorithm 1 solves FINAL-TOTAL-FAULTS in
//! `O(n^{K+p}(τ+1)^p)` time — polynomial in the sequence length for fixed
//! `K`, `p`. The experiment measures state counts and wall time while
//! sweeping `n` (and `τ`), and fits the growth exponent: it must look
//! polynomial (bounded exponent), not exponential (exploding exponent).
//!
//! The "raw" columns run Algorithm 1 as published (no lower bound); the
//! "pruned" columns run the default witness-free solver, whose admissible
//! lower bound cuts every edge that cannot beat a feasible upper bound.
//! The K = 2 family is degenerate (states grow like n), so a Zipf sweep
//! at p = 3, K = 6 shows what the bound buys where Theorem 6's n^{K+p}
//! bites.
//!
//! Rows run one after another, each solve on one thread, so the time
//! and rate columns measure the solve alone at every `--jobs`: rows run
//! side by side on the pool would time their contention for memory
//! bandwidth as well.

use super::{Experiment, Scale};
use crate::report::{Report, Table, Verdict};
use crate::stats::{fmt, growth_exponent};
use crate::timing::Stopwatch;
use mcp_core::{Budget, SimConfig, Workload};
use mcp_offline::{ftf_dp, ftf_dp_governed_with_stats, FtfOptions, FtfOutcome};

/// The default witness-free solver, on one thread.
fn pruned() -> FtfOptions {
    FtfOptions {
        jobs: 1,
        ..Default::default()
    }
}

/// Algorithm 1 as published: no lower bound, on one thread.
fn published() -> FtfOptions {
    FtfOptions {
        bound: false,
        ..pruned()
    }
}

/// See module docs.
pub struct E12;

/// Two cores alternating over two private pages each, length `n` per core
/// — a fixed-universe family whose DP cost isolates the `n` dependence.
fn family(n: usize) -> Workload {
    Workload::from_u32([
        (0..n).map(|i| (i % 2) as u32).collect::<Vec<_>>(),
        (0..n).map(|i| 10 + (i % 2) as u32).collect::<Vec<_>>(),
    ])
    .unwrap()
}

impl Experiment for E12 {
    fn id(&self) -> &'static str {
        "E12"
    }
    fn title(&self) -> &'static str {
        "Algorithm 1 scales polynomially in n (Theorem 6)"
    }
    fn claim(&self) -> &'static str {
        "FTF is solvable in O(n^{K+p} (tau+1)^p) time for fixed K, p"
    }

    fn run(&self, scale: Scale) -> Report {
        let ns: Vec<usize> = match scale {
            Scale::Quick => vec![4, 8, 16, 32],
            Scale::Full => vec![4, 8, 16, 32, 64, 128],
        };
        let mut tables = Vec::new();
        let n_exponent;
        {
            let mut table = Table::new(
                "DP states and wall time vs n (p=2, K=2, w=4, tau=1)",
                &[
                    "n/core",
                    "opt faults",
                    "states (raw DP)",
                    "states (pruned)",
                    "time (ms)",
                    "states/s",
                ],
            );
            let mut points = Vec::new();
            let rows: Vec<_> = ns
                .iter()
                .map(|&n| {
                    let w = family(n);
                    let cfg = SimConfig::new(2, 1);
                    let sw = Stopwatch::start();
                    let raw = ftf_dp(&w, cfg, published()).unwrap();
                    let ms = sw.ms();
                    let pruned = ftf_dp(&w, cfg, pruned()).unwrap();
                    assert_eq!(raw.min_faults, pruned.min_faults);
                    (raw.min_faults, raw.states, pruned.states, ms)
                })
                .collect();
            for (&n, &(min_faults, raw_states, pruned_states, ms)) in ns.iter().zip(&rows) {
                // Fit the exponent on the *raw* DP — the object Theorem 6
                // bounds; pruning is our engineering ablation on top.
                points.push((n as f64, raw_states as f64));
                // 0 under --no-timing (stopwatches read 0), keeping the
                // JSON reports bit-comparable across runs.
                let rate = if ms > 0.0 {
                    raw_states as f64 / (ms / 1e3)
                } else {
                    0.0
                };
                table.row(vec![
                    n.to_string(),
                    min_faults.to_string(),
                    raw_states.to_string(),
                    pruned_states.to_string(),
                    fmt(ms),
                    fmt(rate),
                ]);
            }
            n_exponent = growth_exponent(&points);
            tables.push(table);
        }
        {
            let mut table = Table::new(
                "DP states vs tau (p=2, K=2, w=4, n=16)",
                &["tau", "states", "time (ms)"],
            );
            let taus = [0u64, 1, 2, 4, 8];
            let rows: Vec<_> = taus
                .iter()
                .map(|&tau| {
                    let w = family(16);
                    let sw = Stopwatch::start();
                    let r = ftf_dp(&w, SimConfig::new(2, tau), published()).unwrap();
                    (r.states, sw.ms())
                })
                .collect();
            for (&tau, &(states, ms)) in taus.iter().zip(&rows) {
                table.row(vec![tau.to_string(), states.to_string(), fmt(ms)]);
            }
            tables.push(table);
        }
        let mut bound_ratio = 0.0f64;
        {
            let zipf_ns: Vec<usize> = match scale {
                Scale::Quick => vec![8, 12],
                Scale::Full => vec![8, 12, 16, 20],
            };
            let mut table = Table::new(
                "Raw vs bounded DP on Zipf traffic (p=3, K=6, 6 private pages/core, tau=2)",
                &[
                    "n/core",
                    "opt faults",
                    "states (raw DP)",
                    "states (pruned)",
                    "bound prunes",
                    "raw time (ms)",
                    "pruned time (ms)",
                ],
            );
            let rows: Vec<_> = zipf_ns
                .iter()
                .map(|&n| {
                    let w = mcp_workloads::zipf(3, n, 6, 0.9, 1);
                    let cfg = SimConfig::new(6, 2);
                    let sw = Stopwatch::start();
                    let raw = ftf_dp(&w, cfg, published()).unwrap();
                    let raw_ms = sw.ms();
                    let sw = Stopwatch::start();
                    let (outcome, stats) =
                        ftf_dp_governed_with_stats(&w, cfg, pruned(), &Budget::unlimited(), None)
                            .unwrap();
                    let ms = sw.ms();
                    let FtfOutcome::Complete(pruned) = outcome else {
                        unreachable!("an unlimited budget completes")
                    };
                    assert_eq!(raw.min_faults, pruned.min_faults);
                    (raw.min_faults, raw.states, stats, raw_ms, ms)
                })
                .collect();
            for (&n, (min_faults, raw_states, stats, raw_ms, ms)) in zipf_ns.iter().zip(&rows) {
                bound_ratio = bound_ratio.max(*raw_states as f64 / stats.states as f64);
                table.row(vec![
                    n.to_string(),
                    min_faults.to_string(),
                    raw_states.to_string(),
                    stats.states.to_string(),
                    stats.bound_pruned.to_string(),
                    fmt(*raw_ms),
                    fmt(*ms),
                ]);
            }
            tables.push(table);
        }
        // Theorem 6's bound for K=2, p=2 is n^4 (tau+1)^2; the raw DP on
        // this family stays well below that, but it must stay bounded
        // (polynomial), far under exponential growth.
        let ok = n_exponent.is_finite() && n_exponent < 6.0;
        Report {
            id: self.id().into(),
            title: self.title().into(),
            claim: self.claim().into(),
            tables,
            verdict: if ok {
                Verdict::Confirmed
            } else {
                Verdict::Mixed(format!(
                    "fitted n-exponent {n_exponent:.2} looks superpolynomial"
                ))
            },
            notes: vec![
                format!(
                    "fitted states ~ n^{}, against Theorem 6's n^{{K+p}} = n^4 ceiling",
                    fmt(n_exponent)
                ),
                format!(
                    "on the Zipf sweep the lower bound explores up to {}x fewer states \
                     than the raw DP, with the same optimum",
                    fmt(bound_ratio)
                ),
            ],
        }
    }
}
