//! The admissible lower bound of both DPs (`FtfOptions::bound`,
//! `PifOptions::bound`) against the unbounded DPs: it may only shrink the
//! explored space. The FTF optimum and its reconstructed witness, the PIF
//! decision and the PIF witness must come out identical — on disjoint and
//! shared-page instances, lazy and full transitions, at every worker
//! count. A witness-free FTF solve, whose cut also drops the edges that
//! can only tie the upper bound, must report the same optimum over no
//! more states. A bounded PIF decision, which on the full relation also
//! delays voluntary evictions of pages the next step does not read, must
//! advance no more fault rows than the unbounded one. Also checked here:
//! the upper bounds the FTF cut relies on are feasible, the anytime
//! bracket only tightens, and truncate → resume with the bound on
//! reproduces the uninterrupted run.

use mcp_core::{Budget, PageId, SimConfig, Workload};
use mcp_offline::state::{greedy_completion_faults, StateKey};
use mcp_offline::{
    ftf_dp, ftf_dp_governed, ftf_dp_governed_with_stats, pif_decide, pif_decide_with_stats,
    pif_witness, DpInstance, FtfCheckpoint, FtfOptions, FtfOutcome, FtfSchedule, FtfTruncated,
    PifOptions,
};
use mcp_policies::SharedFitf;
use proptest::prelude::*;

/// Two or three cores of up to five requests over values `0..4`.
fn seqs() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0u32..4, 1..6), 2..=3)
}

/// The workload of `seqs`: private pages per core when `disjoint`, one
/// shared universe otherwise.
fn workload(seqs: &[Vec<u32>], disjoint: bool) -> Workload {
    let offset = |core: usize| if disjoint { core as u32 * 100 } else { 0 };
    Workload::new(
        seqs.iter()
            .enumerate()
            .map(|(core, s)| s.iter().map(|&v| PageId(offset(core) + v)).collect())
            .collect(),
    )
    .unwrap()
}

/// A witness as comparable data: decisions in key order, then voluntary
/// evictions.
fn flat(s: &FtfSchedule) -> String {
    let mut d: Vec<_> = s.decisions.iter().collect();
    d.sort_unstable_by_key(|(k, _)| **k);
    format!("{d:?}|{:?}", s.voluntary)
}

fn ftf(w: &Workload, cfg: SimConfig, lazy: bool, bound: bool, jobs: usize) -> (u64, String) {
    let r = ftf_dp(
        w,
        cfg,
        FtfOptions {
            lazy,
            bound,
            jobs,
            reconstruct: true,
            ..Default::default()
        },
    )
    .unwrap();
    (r.min_faults, flat(r.schedule.as_ref().unwrap()))
}

/// The optimum and state count of a solve with the bound on and no
/// witness (the default).
fn proof(w: &Workload, cfg: SimConfig, lazy: bool, jobs: usize) -> (u64, usize) {
    let r = ftf_dp(
        w,
        cfg,
        FtfOptions {
            lazy,
            jobs,
            ..Default::default()
        },
    )
    .unwrap();
    (r.min_faults, r.states)
}

fn pif_opts(full_transitions: bool, bound: bool, jobs: usize) -> PifOptions {
    PifOptions {
        full_transitions,
        bound,
        jobs,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bounded_ftf_equals_unbounded(
        seqs in seqs(),
        (disjoint, extra, tau, lazy) in (0u8..2, 0usize..3, 0u64..3, 0u8..2),
    ) {
        let (w, lazy) = (workload(&seqs, disjoint == 1), lazy == 1);
        let cfg = SimConfig::new(w.num_cores() + extra, tau);
        let raw = ftf(&w, cfg, lazy, false, 1);
        for jobs in [1usize, 2, 4] {
            prop_assert_eq!(&ftf(&w, cfg, lazy, true, jobs), &raw, "jobs={}", jobs);
        }
    }

    #[test]
    fn witness_free_ftf_equals_unbounded(
        seqs in seqs(),
        (disjoint, extra, tau, lazy) in (0u8..2, 0usize..3, 0u64..3, 0u8..2),
    ) {
        let (w, lazy) = (workload(&seqs, disjoint == 1), lazy == 1);
        let cfg = SimConfig::new(w.num_cores() + extra, tau);
        let raw = ftf_dp(&w, cfg, FtfOptions { lazy, bound: false, ..Default::default() })
            .unwrap();
        let witness = ftf_dp(&w, cfg, FtfOptions { lazy, reconstruct: true, ..Default::default() })
            .unwrap();
        prop_assert_eq!(witness.min_faults, raw.min_faults);
        prop_assert!(witness.states <= raw.states, "the bound cannot add states");
        let base = proof(&w, cfg, lazy, 1);
        prop_assert_eq!(base.0, raw.min_faults);
        prop_assert!(
            base.1 <= witness.states,
            "witness-free {} states, witness run {}", base.1, witness.states
        );
        for jobs in [2usize, 4] {
            prop_assert_eq!(proof(&w, cfg, lazy, jobs), base, "jobs={}", jobs);
        }
    }

    #[test]
    fn bounded_pif_equals_unbounded(
        seqs in seqs(),
        (disjoint, extra, tau, full) in (0u8..2, 0usize..3, 0u64..3, 0u8..2),
        at in 1u64..30,
        slack in prop::collection::vec(0u64..6, 3),
    ) {
        let (w, full) = (workload(&seqs, disjoint == 1), full == 1);
        let cfg = SimConfig::new(w.num_cores() + extra, tau);
        let bounds: Vec<u64> = (0..w.num_cores())
            .map(|i| slack[i].min(w.len(i) as u64))
            .collect();
        let (raw, raw_stats) =
            pif_decide_with_stats(&w, cfg, at, &bounds, pif_opts(full, false, 1)).unwrap();
        let raw_witness = pif_witness(&w, cfg, at, &bounds, pif_opts(full, false, 1))
            .unwrap()
            .map(|s| flat(&s));
        prop_assert_eq!(raw, raw_witness.is_some());
        for jobs in [1usize, 2, 4] {
            let opts = pif_opts(full, true, jobs);
            let (ans, stats) = pif_decide_with_stats(&w, cfg, at, &bounds, opts).unwrap();
            prop_assert_eq!(ans, raw, "jobs={}", jobs);
            prop_assert!(
                stats.expansions <= raw_stats.expansions,
                "bounded {} expansions, unbounded {}", stats.expansions, raw_stats.expansions
            );
            let witness = pif_witness(&w, cfg, at, &bounds, opts).unwrap().map(|s| flat(&s));
            prop_assert_eq!(&witness, &raw_witness, "jobs={}", jobs);
        }
    }

    #[test]
    fn ftf_upper_bounds_are_feasible_on_disjoint_instances(
        seqs in seqs(),
        extra in 0usize..3,
        tau in 0u64..3,
    ) {
        let w = workload(&seqs, true);
        let cfg = SimConfig::new(w.num_cores() + extra, tau);
        let opt = ftf_dp(&w, cfg, FtfOptions { bound: false, ..Default::default() })
            .unwrap()
            .min_faults;
        let fitf = mcp_core::simulate(&w, cfg, SharedFitf::new()).unwrap().total_faults();
        prop_assert!(fitf >= opt, "S_FITF {} below the optimum {}", fitf, opt);
        let inst = DpInstance::build(&w, &cfg).unwrap();
        let greedy = greedy_completion_faults(&inst, &(0, inst.start_positions()));
        prop_assert!(greedy >= opt, "greedy completion {} below the optimum {}", greedy, opt);
    }
}

/// The `offline-dp` benchmark's FTF instance (minimum 24 faults): big
/// enough that the bounded solve's buckets clear the pool's
/// sequential-fallback threshold, so jobs 2 and 4 really fan out.
fn large() -> (Workload, SimConfig) {
    (
        mcp_workloads::zipf(3, 20, 6, 0.9, 371),
        SimConfig::new(6, 2),
    )
}

/// Mid-size zipf instances, disjoint and shared: the unbounded DPs fan
/// out over the pool on them.
fn mid_size() -> Vec<(Workload, SimConfig)> {
    let mut cases = Vec::new();
    for seed in 0..3 {
        cases.push((
            mcp_workloads::zipf(3, 10, 6, 0.9, seed),
            SimConfig::new(6, 2),
        ));
        cases.push((
            mcp_workloads::zipf_shared(2, 14, 5, 0.9, seed),
            SimConfig::new(4, 1),
        ));
    }
    cases
}

#[test]
fn mid_size_bounded_equals_unbounded() {
    for (w, cfg) in mid_size() {
        let raw = ftf(&w, cfg, true, false, 1);
        let bounds: Vec<u64> = (0..w.num_cores()).map(|i| w.len(i) as u64 / 2).collect();
        let raw_pif = pif_decide(&w, cfg, 20, &bounds, pif_opts(true, false, 1)).unwrap();
        let raw_witness = pif_witness(&w, cfg, 20, &bounds, pif_opts(true, false, 1))
            .unwrap()
            .map(|s| flat(&s));
        for jobs in [1usize, 2, 4] {
            assert_eq!(
                ftf(&w, cfg, true, true, jobs),
                raw,
                "FTF jobs={jobs} on {w:?}"
            );
            let opts = pif_opts(true, true, jobs);
            assert_eq!(
                pif_decide(&w, cfg, 20, &bounds, opts).unwrap(),
                raw_pif,
                "PIF jobs={jobs} on {w:?}"
            );
            let witness = pif_witness(&w, cfg, 20, &bounds, opts)
                .unwrap()
                .map(|s| flat(&s));
            assert_eq!(witness, raw_witness, "PIF witness jobs={jobs} on {w:?}");
        }
    }
}

#[test]
fn witness_free_solve_of_the_offline_dp_instance_is_pinned() {
    let (w, cfg) = large();
    let witness = ftf_dp(
        &w,
        cfg,
        FtfOptions {
            reconstruct: true,
            jobs: 1,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!((witness.min_faults, witness.states), (24, 9967));
    for jobs in [1usize, 2, 4] {
        assert_eq!(proof(&w, cfg, true, jobs), (24, 4953), "jobs={jobs}");
    }
}

/// The `offline-dp` benchmark's PIF pair, before its relabelling: the
/// bounds of an optimal schedule's per-core faults, then one fault fewer
/// on the most-faulting core. Delaying the voluntary evictions of pages
/// the next step does not read took the pair from 9,334 + 4,636 advanced
/// rows (228 peak states) to the pinned counts; the answers are those of
/// the literal relation.
#[test]
fn delayed_evictions_on_the_offline_dp_pif_pair_are_pinned() {
    let w = mcp_workloads::zipf(3, 20, 6, 0.9, 0);
    let cfg = SimConfig::new(6, 2);
    for (bounds, answer, expansions, states) in [
        ([6u64, 8, 5], true, 2_113, 154),
        ([6, 7, 5], false, 1_455, 150),
    ] {
        for jobs in [1usize, 2, 4] {
            let (got, stats) =
                pif_decide_with_stats(&w, cfg, 60, &bounds, pif_opts(true, true, jobs)).unwrap();
            assert_eq!(
                (got, stats.expansions, stats.states),
                (answer, expansions, states),
                "bounds={bounds:?} jobs={jobs}"
            );
        }
    }
}

#[test]
fn bound_pruned_is_worker_count_invariant() {
    let shared = (
        mcp_workloads::zipf_shared(2, 14, 5, 0.9, 1),
        SimConfig::new(4, 1),
    );
    for ((w, cfg), min) in [(large(), 24), (shared, 6)] {
        let run = |jobs: usize| {
            let options = FtfOptions {
                jobs,
                reconstruct: true,
                ..Default::default()
            };
            let (outcome, stats) =
                ftf_dp_governed_with_stats(&w, cfg, options, &Budget::unlimited(), None).unwrap();
            let FtfOutcome::Complete(r) = outcome else {
                panic!("unlimited budget must complete")
            };
            (r.min_faults, flat(r.schedule.as_ref().unwrap()), stats)
        };
        let base = run(1);
        assert_eq!(base.0, min, "minimum on {w:?}");
        assert!(base.2.bound_pruned > 0, "the FTF bound must cut on {w:?}");
        for jobs in [2usize, 4] {
            assert_eq!(run(jobs), base, "FTF jobs={jobs} on {w:?}");
        }
    }

    for seed in [0u64, 1] {
        let w = mcp_workloads::zipf(3, 10, 6, 0.9, seed);
        let cfg = SimConfig::new(6, 2);
        let bounds: Vec<u64> = (0..w.num_cores()).map(|i| w.len(i) as u64 / 2).collect();
        let pif = |jobs: usize| {
            pif_decide_with_stats(&w, cfg, 20, &bounds, pif_opts(true, true, jobs)).unwrap()
        };
        let base = pif(1);
        assert!(base.1.bound_pruned > 0, "the PIF bound must cut on {w:?}");
        for jobs in [2usize, 4] {
            assert_eq!(pif(jobs), base, "PIF jobs={jobs} on {w:?}");
        }
    }
}

/// The bracket the truncation reported before the lower bound: the
/// cheapest frontier state's faults, and the better of its greedy
/// completion and the best terminal.
fn plain_bracket(w: &Workload, cfg: SimConfig, ck: &FtfCheckpoint) -> (u64, u64) {
    let inst = DpInstance::build(w, &cfg).unwrap();
    let faults = |key: &StateKey| {
        let i = ck.best.binary_search_by(|(k, _, _)| k.cmp(key)).unwrap();
        ck.best[i].1
    };
    let mut seed: Option<(u64, &StateKey)> = None;
    for key in &ck.frontier {
        let f = faults(key);
        if seed.is_none_or(|(sf, _)| f < sf) {
            seed = Some((f, key));
        }
    }
    let greedy = seed.map(|(f, key)| f + greedy_completion_faults(&inst, key));
    let terminal = ck.best_terminal.as_ref().map(|(f, _)| *f);
    let incumbent = greedy.into_iter().chain(terminal).min().unwrap();
    (seed.map_or(u64::MAX, |(f, _)| f).min(incumbent), incumbent)
}

#[test]
fn anytime_bracket_holds_the_optimum_and_only_tightens() {
    let cases = [
        (mcp_workloads::zipf(3, 8, 5, 0.9, 1), SimConfig::new(4, 1)),
        (mcp_workloads::zipf(2, 12, 4, 0.9, 2), SimConfig::new(3, 2)),
        (
            mcp_workloads::zipf_shared(2, 10, 5, 0.9, 4),
            SimConfig::new(3, 1),
        ),
    ];
    for (w, cfg) in &cases {
        let opt = ftf_dp(w, *cfg, FtfOptions::default()).unwrap().min_faults;
        let mut tighter = 0;
        for bound in [false, true] {
            for cap in [1usize, 5, 20, 60, 150, 400, 1000] {
                let options = FtfOptions {
                    bound,
                    ..Default::default()
                };
                let budget = Budget::unlimited().with_max_states(cap);
                let FtfOutcome::Truncated(FtfTruncated {
                    lower_bound,
                    incumbent,
                    checkpoint,
                    ..
                }) = ftf_dp_governed(w, *cfg, options, &budget, None).unwrap()
                else {
                    continue;
                };
                assert!(
                    lower_bound <= opt && opt <= incumbent,
                    "cap {cap} bound={bound}: [{lower_bound}, {incumbent}] misses {opt}"
                );
                let (plain_lower, plain_incumbent) = plain_bracket(w, *cfg, &checkpoint);
                assert!(
                    plain_lower <= lower_bound && incumbent <= plain_incumbent,
                    "cap {cap} bound={bound}: [{lower_bound}, {incumbent}] looser than \
                     [{plain_lower}, {plain_incumbent}]"
                );
                if (lower_bound, incumbent) != (plain_lower, plain_incumbent) {
                    tighter += 1;
                }
            }
        }
        assert!(
            tighter > 0,
            "the lower bound must tighten some bracket of {w:?}"
        );
    }
}

#[test]
fn bounded_truncate_and_resume_reproduces_the_full_run() {
    let (w, cfg) = large();
    let options = |jobs: usize| FtfOptions {
        reconstruct: true,
        jobs,
        ..Default::default()
    };
    let full = ftf_dp(&w, cfg, options(1)).unwrap();
    let full_witness = flat(full.schedule.as_ref().unwrap());
    for cap in [10usize, 300, full.states / 2] {
        let budget = Budget::unlimited().with_max_states(cap);
        let FtfOutcome::Truncated(t) = ftf_dp_governed(&w, cfg, options(1), &budget, None).unwrap()
        else {
            panic!("cap {cap} must trip")
        };
        let bytes = t.checkpoint.to_bytes();
        for jobs in [1usize, 2, 4] {
            let resume = FtfCheckpoint::from_bytes(&bytes).unwrap();
            let FtfOutcome::Complete(r) =
                ftf_dp_governed(&w, cfg, options(jobs), &Budget::unlimited(), Some(&resume))
                    .unwrap()
            else {
                panic!("unlimited resume must complete")
            };
            assert_eq!(r.min_faults, full.min_faults, "cap {cap} jobs={jobs}");
            assert_eq!(r.states, full.states, "cap {cap} jobs={jobs}");
            assert_eq!(
                flat(r.schedule.as_ref().unwrap()),
                full_witness,
                "cap {cap} jobs={jobs}"
            );
        }
    }
}
