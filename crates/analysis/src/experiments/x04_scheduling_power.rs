//! X04 (extension) — the model gap the paper's introduction turns on:
//! Hassidim's offline algorithm may *delay sequences arbitrarily*; this
//! paper's may not. On small instances we compute exhaustive optima in
//! both models and measure exactly what the scheduling freedom is worth —
//! on aligned-thrash workloads it cuts faults by up to 2× (time-slicing
//! the cache), which is precisely why the paper argues the conservative
//! model needs its own theory.

use super::{ratio, Experiment, Scale};
use crate::report::{Report, Table, Verdict};
use crate::stats::fmt;
use mcp_core::{SimConfig, Workload};
use mcp_offline::{brute_force_min_faults, sched_min, Objective};

/// See module docs.
pub struct X04;

impl Experiment for X04 {
    fn id(&self) -> &'static str {
        "X04"
    }
    fn title(&self) -> &'static str {
        "Extension: what Hassidim's scheduling freedom is worth"
    }
    fn claim(&self) -> &'static str {
        "(Extension) Allowing the offline algorithm to stall sequences strictly \
         reduces the optimal fault count on aligned contended workloads"
    }

    fn run(&self, scale: Scale) -> Report {
        let runs = 120_000_000usize;
        let mut table = Table::new(
            "exhaustive fault optima: no-scheduling model vs scheduling-capable model",
            &[
                "instance",
                "K",
                "tau",
                "OPT (no sched)",
                "OPT (sched)",
                "gap",
                "sched helps",
            ],
        );
        let cases: Vec<(&str, Vec<Vec<u32>>, usize, u64)> = {
            let mut c = vec![
                // Aligned thrash: both cores need 2 pages, K = 2 holds 2.
                (
                    "aligned pairs",
                    vec![vec![1, 2, 1, 2], vec![7, 8, 7, 8]],
                    2,
                    1,
                ),
                // Already-fitting working sets: scheduling has nothing to add.
                ("fits", vec![vec![1, 2, 1, 2], vec![7, 8, 7, 8]], 4, 1),
                ("single hot", vec![vec![1, 1, 1, 1], vec![7, 8, 7, 8]], 3, 1),
            ];
            if scale == Scale::Full {
                c.push((
                    "aligned pairs tau2",
                    vec![vec![1, 2, 1, 2], vec![7, 8, 7, 8]],
                    2,
                    2,
                ));
                c.push((
                    "aligned triples",
                    vec![vec![1, 2, 1, 2, 1], vec![7, 8, 7, 8, 7]],
                    2,
                    1,
                ));
            }
            c
        };
        let mut saw_gap = false;
        let mut sound = true;
        let optima = mcp_exec::Pool::global().par_map(&cases, |_, (_, seqs, k, tau)| {
            let w = Workload::from_u32(seqs.clone()).unwrap();
            let cfg = SimConfig::new(*k, *tau);
            let plain = brute_force_min_faults(&w, cfg, runs).unwrap();
            let horizon = (w.total_len() as u64 + 4) * (tau + 1) + 10;
            let sched = sched_min(&w, cfg, Objective::Faults, horizon, Some(plain), runs).unwrap();
            (plain, sched)
        });
        for ((name, _, k, tau), &(plain, sched)) in cases.iter().zip(&optima) {
            sound &= sched <= plain;
            let helps = sched < plain;
            saw_gap |= helps;
            table.row(vec![
                (*name).into(),
                k.to_string(),
                tau.to_string(),
                plain.to_string(),
                sched.to_string(),
                fmt(ratio(plain, sched)),
                helps.to_string(),
            ]);
        }
        Report {
            id: self.id().into(),
            title: self.title().into(),
            claim: self.claim().into(),
            tables: vec![table],
            verdict: if sound && saw_gap {
                Verdict::Confirmed
            } else if sound {
                Verdict::Mixed("scheduling never helped on these instances".into())
            } else {
                Verdict::Mixed("scheduling-capable optimum exceeded the plain optimum".into())
            },
            notes: vec![
                "With stalling, the offline algorithm time-slices the cache: one core runs \
                 alone with its whole working set, then the other — impossible in the \
                 paper's model, where aligned demand forces universal thrashing. This is \
                 the exact power Hassidim's offline comparator wields against LRU."
                    .into(),
            ],
        }
    }
}
