//! The offline-dp workload: the paper's exact dynamic programs on fixed
//! queries — one FTF solve (Algorithm 1) and two PARTIAL-INDIVIDUAL-FAULTS
//! decisions (Algorithm 2) on either side of the feasibility boundary.
//!
//! DP work swings tenfold between random instances of one size, which
//! would drown any code change in seed noise. The instances are therefore
//! two fixed `mcp_workloads::zipf` draws (about 0.2M FTF states; about
//! 0.65M PIF expansions per query pair), and the benchmark seed draws a
//! relabelling of their pages and cores: every seed gives another input
//! with the same search. The FTF instance is kept to a few megabytes of
//! state arena because memory-bound solves slowed up to twofold in the
//! host's busy phases, far more than the cache-resident workloads.
//!
//! The answers are pinned. The FTF minimum is a constant, re-derived once
//! per run by replaying the DP's own witness schedule. The PIF queries are
//! built at set-up from an optimal schedule of the PIF instance: at a
//! horizon every schedule has finished by, they ask for that schedule's
//! per-core fault counts (feasible, by the schedule itself) and for one
//! fault fewer on one core (infeasible, since the total is then below the
//! minimum).

use crate::harness::{median, quantile, splitmix64, Bench, Fingerprint, Fnv, Metrics};
use crate::trace::Tracer;
use mcp_core::{Budget, PageId, SimConfig, Workload};
use mcp_offline::{
    ftf_dp_governed_with_stats, pif_decide_with_stats, DpStats, FtfOptions, FtfOutcome, PifOptions,
};
use mcp_policies::Replay;
use std::collections::BTreeMap;
use std::time::Instant;

/// Cores, requests per core, per-core page universe, K, τ of every instance.
const CORES: usize = 3;
const LEN: usize = 20;
const UNIVERSE: u32 = 6;
const K: usize = 6;
const TAU: u64 = 2;
/// State cap for the FTF solve: far above the instance's state count.
const FTF_MAX_STATES: usize = 4_000_000;

/// The FTF instance's zipf seed and its minimum total faults.
const FTF_INSTANCE: (u64, u64) = (371, 24);
/// The PIF instance's zipf seed.
const PIF_INSTANCE: u64 = 0;

/// The offline-dp workload.
#[derive(Clone, Debug, Default)]
pub struct OfflineBench;

/// One exact query's inputs.
pub struct PifQuery {
    bounds: Vec<u64>,
    expect: bool,
}

/// The generated instances and their pinned answers.
pub struct OfflineInput {
    cfg: SimConfig,
    ftf: Workload,
    ftf_min: u64,
    pif: Workload,
    horizon: u64,
    queries: [PifQuery; 2],
    input_hash: u64,
}

/// One pass: the FTF outcome and both PIF answers, with their statistics.
pub struct OfflineOutput {
    ftf: Result<(u64, DpStats), String>,
    pif: Vec<Result<(bool, DpStats), String>>,
    /// Wall time of each query, microseconds.
    query_us: Vec<f64>,
}

/// Per-core faults of an optimal (FTF) schedule of `w`, replayed on the
/// simulator from the DP's reconstructed witness.
fn witness(w: &Workload, cfg: SimConfig) -> Result<Vec<u64>, String> {
    let options = FtfOptions {
        jobs: 1,
        reconstruct: true,
        ..FtfOptions::default()
    };
    let budget = Budget::unlimited().with_max_states(FTF_MAX_STATES);
    let schedule = match ftf_dp_governed_with_stats(w, cfg, options, &budget, None) {
        Ok((FtfOutcome::Complete(r), _)) => r.schedule,
        _ => None,
    }
    .ok_or("FTF witness: no schedule reconstructed")?;
    mcp_core::simulate(w, cfg, Replay::new(schedule.decisions))
        .map(|r| r.faults)
        .map_err(|e| format!("FTF witness replay failed: {e:?}"))
}

/// The fixed instance drawn with zipf seed `sub_seed`.
fn instance(sub_seed: u64) -> Workload {
    mcp_workloads::zipf(CORES, LEN, UNIVERSE, 0.9, sub_seed)
}

/// `w` with its pages and cores relabelled by `seed`; also returns, per
/// new core, its core in `w`.
fn relabel(w: &Workload, seed: u64) -> (Workload, Vec<usize>) {
    let mut state = seed;
    let mut next = move || {
        state = splitmix64(state);
        state
    };
    let mut shuffle = |v: &mut Vec<u32>| {
        for i in (1..v.len()).rev() {
            v.swap(i, (next() % (i as u64 + 1)) as usize);
        }
    };
    let pages: Vec<u32> = w
        .sequences()
        .iter()
        .flatten()
        .map(|p| p.0)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut targets = pages.clone();
    shuffle(&mut targets);
    let map: BTreeMap<u32, u32> = pages.into_iter().zip(targets).collect();
    let mut order: Vec<u32> = (0..CORES as u32).collect();
    shuffle(&mut order);
    let order: Vec<usize> = order.into_iter().map(|c| c as usize).collect();
    let seqs = order
        .iter()
        .map(|&c| w.sequence(c).iter().map(|p| PageId(map[&p.0])).collect())
        .collect();
    (Workload::new(seqs).expect("nonempty"), order)
}

impl Bench for OfflineBench {
    type Input = OfflineInput;
    type Ready = ();
    type Output = OfflineOutput;

    fn items(&self, _input: &OfflineInput) -> u64 {
        3
    }

    fn setup(&self, seed: u64, tr: &mut Tracer) -> OfflineInput {
        let (ftf_sub, ftf_min) = FTF_INSTANCE;
        let (base, (ftf, _), (pif, order)) = tr.span("workloads.gen", |_| {
            let base = instance(PIF_INSTANCE);
            let pif = relabel(&base, splitmix64(seed));
            (base, relabel(&instance(ftf_sub), seed), pif)
        });
        let cfg = SimConfig::new(K, TAU);
        // The witness comes from the instance before relabelling, so every
        // seed asks the same queries (a relabelled solve may pick another
        // optimal schedule, with another per-core split).
        let witness = tr
            .span("offline.pif_dp.boundary", |_| witness(&base, cfg))
            .expect("the PIF instance solves within the state cap");
        let bounds: Vec<u64> = order.iter().map(|&c| witness[c]).collect();
        // Below the optimum by one fault on the most-faulting core.
        let mut tight = bounds.clone();
        let j = (0..CORES).max_by_key(|&j| (tight[j], j)).expect("cores");
        tight[j] -= 1;
        // Every request takes at most τ + 1 steps, so every schedule has
        // finished by this horizon and its faults there are its total.
        let horizon = (0..CORES).map(|j| pif.len(j) as u64).max().unwrap_or(0) * (TAU + 1);
        let mut h = Fnv::default();
        for w in [&ftf, &pif] {
            for seq in w.sequences() {
                h.word(u64::MAX);
                seq.iter().for_each(|p| h.word(u64::from(p.0)));
            }
        }
        OfflineInput {
            cfg,
            ftf,
            ftf_min,
            pif,
            horizon,
            queries: [
                PifQuery {
                    bounds,
                    expect: true,
                },
                PifQuery {
                    bounds: tight,
                    expect: false,
                },
            ],
            input_hash: h.0,
        }
    }

    fn ready(&self, _input: &OfflineInput) {}

    fn pass(&self, input: &OfflineInput, _ready: (), tr: &mut Tracer) -> OfflineOutput {
        let mut query_us = Vec::with_capacity(3);
        let t0 = Instant::now();
        let ftf = tr.span("offline.ftf_dp.solve", |_| {
            let options = FtfOptions {
                jobs: 1,
                ..FtfOptions::default()
            };
            let budget = Budget::unlimited().with_max_states(FTF_MAX_STATES);
            match ftf_dp_governed_with_stats(&input.ftf, input.cfg, options, &budget, None) {
                Ok((FtfOutcome::Complete(r), stats)) => Ok((r.min_faults, stats)),
                Ok((FtfOutcome::Truncated(t), _)) => Err(format!("FTF truncated: {}", t.reason)),
                Err(e) => Err(format!("FTF failed: {e}")),
            }
        });
        query_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        let mut pif = Vec::with_capacity(2);
        for (query, name) in input
            .queries
            .iter()
            .zip(["offline.pif_dp.feasible", "offline.pif_dp.infeasible"])
        {
            let t0 = Instant::now();
            let options = PifOptions {
                jobs: 1,
                ..PifOptions::default()
            };
            pif.push(tr.span(name, |_| {
                pif_decide_with_stats(&input.pif, input.cfg, input.horizon, &query.bounds, options)
                    .map_err(|e| format!("PIF failed: {e}"))
            }));
            query_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
        OfflineOutput { ftf, pif, query_us }
    }

    fn latency_us(&self, out: &OfflineOutput) -> (f64, f64) {
        (median(&out.query_us), quantile(&out.query_us, 0.99))
    }

    fn check(&self, input: &OfflineInput, out: &OfflineOutput, failures: &mut Vec<String>) -> u64 {
        let mut failed = 0;
        match &out.ftf {
            Ok((min, _)) if *min == input.ftf_min => {}
            Ok((min, _)) => {
                failed += 1;
                failures.push(format!("FTF minimum {min}, pinned {}", input.ftf_min));
            }
            Err(e) => {
                failed += 1;
                failures.push(e.clone());
            }
        }
        for (query, answer) in input.queries.iter().zip(&out.pif) {
            match answer {
                Ok((ans, _)) if *ans == query.expect => {}
                Ok((ans, _)) => {
                    failed += 1;
                    failures.push(format!(
                        "PIF at bounds {:?}: {ans}, pinned {}",
                        query.bounds, query.expect
                    ));
                }
                Err(e) => {
                    failed += 1;
                    failures.push(e.clone());
                }
            }
        }
        failed
    }

    fn verify(&self, input: &OfflineInput, _out: &OfflineOutput, failures: &mut Vec<String>) {
        // The pinned minimum is achievable: replay the DP's own witness.
        match witness(&input.ftf, input.cfg) {
            Ok(faults) if faults.iter().sum::<u64>() == input.ftf_min => {}
            Ok(faults) => failures.push(format!(
                "FTF witness replays to {} faults, pinned {}",
                faults.iter().sum::<u64>(),
                input.ftf_min
            )),
            Err(e) => failures.push(e),
        }
    }

    fn fingerprint(&self, input: &OfflineInput, out: &OfflineOutput) -> Fingerprint {
        let ftf = out.ftf.as_ref().map(|(m, s)| (*m, *s)).unwrap_or_default();
        let pif: Vec<(bool, DpStats)> = out
            .pif
            .iter()
            .map(|r| r.clone().unwrap_or_default())
            .collect();
        vec![
            ("core.faults", ftf.0),
            ("offline.ftf_dp.states", ftf.1.states as u64),
            ("offline.ftf_dp.expansions", ftf.1.expansions as u64),
            (
                "offline.pif_dp.states",
                pif.iter().map(|p| p.1.states as u64).max().unwrap_or(0),
            ),
            (
                "offline.pif_dp.expansions",
                pif.iter().map(|p| p.1.expansions as u64).sum(),
            ),
            (
                "offline.pif_dp.answers",
                pif.iter().fold(0, |acc, p| acc * 2 + u64::from(p.0)),
            ),
            ("offline.input_hash", input.input_hash),
        ]
    }

    fn layers(&self, _input: &OfflineInput, out: &OfflineOutput, tr: &mut Tracer, m: &mut Metrics) {
        let ftf_s = median(&tr.durations_ns("offline.ftf_dp.solve")) / 1e9;
        let pif_s = (median(&tr.durations_ns("offline.pif_dp.feasible"))
            + median(&tr.durations_ns("offline.pif_dp.infeasible")))
            / 1e9;
        let ftf = out.ftf.as_ref().map(|(_, s)| *s).unwrap_or_default();
        let pif: Vec<DpStats> = out
            .pif
            .iter()
            .map(|r| r.as_ref().map(|(_, s)| *s).unwrap_or_default())
            .collect();
        let mb = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
        m.set("offline.ftf_dp.solve_ms", ftf_s * 1e3, "ms");
        m.set(
            "offline.ftf_dp.states_per_s",
            ftf.states as f64 / ftf_s,
            "1/s",
        );
        m.set(
            "offline.ftf_dp.peak_arena_mb",
            mb(ftf.peak_arena_bytes),
            "MB",
        );
        let pif_expansions: usize = pif.iter().map(|s| s.expansions).sum();
        m.set("offline.pif_dp.solve_ms", pif_s * 1e3, "ms");
        m.set(
            "offline.pif_dp.expansions_per_s",
            pif_expansions as f64 / pif_s,
            "1/s",
        );
        m.set(
            "offline.pif_dp.peak_arena_mb",
            mb(pif.iter().map(|s| s.peak_arena_bytes).max().unwrap_or(0)),
            "MB",
        );
    }
}
