//! E13 — Theorem 7: Algorithm 2 decides PARTIAL-INDIVIDUAL-FAULTS in
//! `O(n^{K+2p+1}(τ+1)^{p+1})` time — again polynomial in `n` for fixed
//! `K`, `p`. Measured like E12, on feasible and infeasible bound vectors:
//! rows run one after another, each decision on one thread, so the time
//! columns and the fitted exponent measure the decisions alone.

use super::{Experiment, Scale};
use crate::report::{Report, Table, Verdict};
use crate::stats::{fmt, growth_exponent};
use crate::timing::Stopwatch;
use mcp_core::{SimConfig, Workload};
use mcp_offline::{pif_decide_with_stats, PifOptions};

/// See module docs.
pub struct E13;

fn family(n: usize) -> Workload {
    Workload::from_u32([
        (0..n).map(|i| (i % 2) as u32).collect::<Vec<_>>(),
        (0..n).map(|i| 10 + (i % 2) as u32).collect::<Vec<_>>(),
    ])
    .unwrap()
}

impl Experiment for E13 {
    fn id(&self) -> &'static str {
        "E13"
    }
    fn title(&self) -> &'static str {
        "Algorithm 2 scales polynomially in n (Theorem 7)"
    }
    fn claim(&self) -> &'static str {
        "PIF is decidable in O(n^{K+2p+1} (tau+1)^{p+1}) time for fixed K, p"
    }

    fn run(&self, scale: Scale) -> Report {
        let ns: Vec<usize> = match scale {
            Scale::Quick => vec![4, 8, 16],
            Scale::Full => vec![4, 8, 16, 32, 64],
        };
        let opts = PifOptions {
            full_transitions: false,
            jobs: 1,
            ..Default::default()
        };
        let mut table = Table::new(
            "PIF decision wall time vs n (p=2, K=2, w=4, tau=1, honest transitions)",
            &[
                "n/core",
                "generous bounds",
                "time (ms)",
                "tight bounds",
                "time (ms)",
                "expansions/s",
            ],
        );
        let mut points = Vec::new();
        let rows: Vec<_> = ns
            .iter()
            .map(|&n| {
                let w = family(n);
                let cfg = SimConfig::new(2, 1);
                let horizon = (2 * n) as u64;

                let sw = Stopwatch::start();
                let (generous, gs) =
                    pif_decide_with_stats(&w, cfg, horizon, &[n as u64, n as u64], opts).unwrap();
                let t1 = sw.ms();

                let sw = Stopwatch::start();
                let (tight, ts) = pif_decide_with_stats(&w, cfg, horizon, &[1, 1], opts).unwrap();
                let t2 = sw.ms();

                (generous, t1, tight, t2, gs.expansions + ts.expansions)
            })
            .collect();
        for (&n, &(generous, t1, tight, t2, expansions)) in ns.iter().zip(&rows) {
            points.push((n as f64, (t1 + t2).max(1e-3)));
            // Vector expansions per second across both decisions; 0 under
            // --no-timing so JSON reports stay bit-comparable.
            let rate = if t1 + t2 > 0.0 {
                expansions as f64 / ((t1 + t2) / 1e3)
            } else {
                0.0
            };
            table.row(vec![
                n.to_string(),
                generous.to_string(),
                fmt(t1),
                tight.to_string(),
                fmt(t2),
                fmt(rate),
            ]);
        }
        let exponent = growth_exponent(&points);
        let ok = exponent.is_finite() && exponent < 8.0;
        Report {
            id: self.id().into(),
            title: self.title().into(),
            claim: self.claim().into(),
            tables: vec![table],
            verdict: if ok {
                Verdict::Confirmed
            } else {
                Verdict::Mixed(format!(
                    "fitted time exponent {exponent:.2} looks superpolynomial"
                ))
            },
            notes: vec![format!(
                "fitted time ~ n^{}, against Theorem 7's n^{{K+2p+1}} = n^7 ceiling \
                 (bound pruning keeps the practical cost far lower)",
                fmt(exponent)
            )],
        }
    }
}
