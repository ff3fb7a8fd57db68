//! The DP contract the exec layer must not break: every result — fault
//! counts, state/expansion counts, witnesses — is identical for every
//! worker count. These tests pin the options-level `jobs` knob rather
//! than the process-wide setting so they stay independent of test-runner
//! threading.

use mcp_core::{Budget, SimConfig, Workload};
use mcp_offline::{
    ftf_dp, ftf_dp_governed, pif_decide, pif_decide_governed, pif_witness, FtfOptions, FtfOutcome,
    PifOptions, PifOutcome,
};
use mcp_policies::Replay;

/// FNV-1a, used to pin results against fingerprints recorded on the seed
/// (pre-packed-engine) implementation. The packed state engine must be
/// observationally identical, so these constants must never change.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn wl(seqs: &[&[u32]]) -> Workload {
    Workload::from_u32(seqs.iter().map(|s| s.to_vec())).unwrap()
}

/// Long enough to clear the sequential-fallback threshold in at least the
/// busiest buckets, so worker threads genuinely run.
fn contended(n: usize) -> Workload {
    Workload::from_u32([
        (0..n).map(|i| (i % 3) as u32).collect::<Vec<_>>(),
        (0..n).map(|i| 10 + (i % 3) as u32).collect::<Vec<_>>(),
    ])
    .unwrap()
}

#[test]
fn ftf_results_are_worker_count_invariant() {
    let workloads = [
        contended(24),
        wl(&[&[1, 2, 3, 1, 2], &[7, 8, 7, 8, 7]]),
        wl(&[&[1, 2, 1, 2, 1, 2], &[7, 8, 7, 8, 7, 8]]),
    ];
    for w in &workloads {
        for k in [2usize, 3] {
            let cfg = SimConfig::new(k, 1);
            let base = ftf_dp(
                w,
                cfg,
                FtfOptions {
                    jobs: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            for jobs in [2usize, 4, 7] {
                let r = ftf_dp(
                    w,
                    cfg,
                    FtfOptions {
                        jobs,
                        ..Default::default()
                    },
                )
                .unwrap();
                assert_eq!(r.min_faults, base.min_faults, "k={k} jobs={jobs}");
                assert_eq!(r.states, base.states, "k={k} jobs={jobs}");
            }
        }
    }
}

#[test]
fn ftf_schedules_replay_identically_across_worker_counts() {
    let w = contended(16);
    let cfg = SimConfig::new(3, 1);
    let run = |jobs: usize| {
        let r = ftf_dp(
            &w,
            cfg,
            FtfOptions {
                reconstruct: true,
                jobs,
                ..Default::default()
            },
        )
        .unwrap();
        let s = r.schedule.unwrap();
        let sim = mcp_core::simulate(
            &w,
            cfg,
            Replay::new(s.decisions).with_voluntary(s.voluntary),
        )
        .unwrap();
        (r.min_faults, sim.total_faults(), sim.fault_times.clone())
    };
    let base = run(1);
    assert_eq!(base.0, base.1, "witness must replay to the optimum");
    for jobs in [2usize, 4] {
        assert_eq!(run(jobs), base, "jobs={jobs}");
    }
}

#[test]
fn pif_decisions_are_worker_count_invariant() {
    let w = contended(18);
    let cfg = SimConfig::new(2, 1);
    let horizon = 60u64;
    for bounds in [[20u64, 20], [9, 9], [2, 2], [0, 0]] {
        for full in [true, false] {
            let base = pif_decide(
                &w,
                cfg,
                horizon,
                &bounds,
                PifOptions {
                    full_transitions: full,
                    jobs: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            for jobs in [2usize, 4] {
                let got = pif_decide(
                    &w,
                    cfg,
                    horizon,
                    &bounds,
                    PifOptions {
                        full_transitions: full,
                        jobs,
                        ..Default::default()
                    },
                )
                .unwrap();
                assert_eq!(got, base, "bounds={bounds:?} full={full} jobs={jobs}");
            }
        }
    }
}

/// `anytime_checkpoint.rs`'s workload variant (`i % 4` on core 1), used
/// by the checkpoint-byte fingerprints below.
fn contended4(n: usize) -> Workload {
    Workload::from_u32([
        (0..n).map(|i| (i % 3) as u32).collect::<Vec<_>>(),
        (0..n).map(|i| 10 + (i % 4) as u32).collect::<Vec<_>>(),
    ])
    .unwrap()
}

/// Fingerprints of the FTF results from `ftf_results_are_worker_count_
/// invariant`'s sweep, recorded on the seed implementation. Order:
/// workload-major, then k in {2, 3}.
const FTF_RESULT_FPS: [u64; 6] = [
    0xef8b7345d02845b0,
    0xf102521877be981f,
    0xd1328977a87fcc9e,
    0x45534ee2d4164eac,
    0xf63aab8967aac82e,
    0x454c5ee2d4104b2e,
];
const FTF_WITNESS_FP: u64 = 0xad00b31aca813c22;
const PIF_DECISION_BITS: &str = "11000000";
const PIF_WITNESS_FP: u64 = 0x839e35b1621a5c60;
const FTF_CKPT_FP: u64 = 0xc7da23591bda9bf1;
const PIF_CKPT_FP: u64 = 0xd283ef6e9e98eed4;

/// `FTF_RESULT_FPS`' sweep with the lower bound on and a witness: the
/// same minima over fewer states. A run without a witness recorded these
/// too, before its cut took the edges that can only tie the upper bound.
const FTF_WITNESS_RUN_RESULT_FPS: [u64; 6] = [
    0xef8b7345d02845b0,
    0xf10c521877c6eca4,
    0xd1328977a87fcc9e,
    0x4556cde2d4195c50,
    0xf63aab8967aac82e,
    0x4548dce2d40d3871,
];
/// `FTF_RESULT_FPS`' sweep with the lower bound on and no witness (the
/// default): the same minima over fewer states still.
const FTF_BOUNDED_RESULT_FPS: [u64; 6] = [
    0xef8b7d45d02856ae,
    0x6bb2ac00397c89f3,
    0x0e69e8f0f953500d,
    0x35d674180fc9e52b,
    0x207b30f103c501c1,
    0x4559dee2d41baf0a,
];
const FTF_BOUNDED_CKPT_FP: u64 = 0x19b58a7d9758b651;
/// The bounded PIF snapshot: the search delays voluntary evictions of
/// pages the next step does not read, so its cap-40 run trips one layer
/// later than the literal relation's (at `t_done` 8, not 7).
const PIF_BOUNDED_CKPT_FP: u64 = 0x50e9884cddabf003;

/// The FTF result fingerprints of `FTF_RESULT_FPS`' sweep at one setting
/// of the lower bound and the witness.
fn ftf_result_fps(bound: bool, reconstruct: bool, jobs: usize) -> Vec<u64> {
    let workloads = [
        contended(24),
        wl(&[&[1, 2, 3, 1, 2], &[7, 8, 7, 8, 7]]),
        wl(&[&[1, 2, 1, 2, 1, 2], &[7, 8, 7, 8, 7, 8]]),
    ];
    let mut fps = Vec::new();
    for w in &workloads {
        for k in [2usize, 3] {
            let r = ftf_dp(
                w,
                SimConfig::new(k, 1),
                FtfOptions {
                    bound,
                    reconstruct,
                    jobs,
                    ..Default::default()
                },
            )
            .unwrap();
            fps.push(fnv(format!("{}|{}", r.min_faults, r.states).as_bytes()));
        }
    }
    fps
}

#[test]
fn ftf_results_match_recorded_fingerprints() {
    for jobs in [1usize, 2, 4] {
        for reconstruct in [false, true] {
            assert_eq!(
                ftf_result_fps(false, reconstruct, jobs),
                FTF_RESULT_FPS,
                "reconstruct={reconstruct} jobs={jobs}"
            );
        }
        assert_eq!(
            ftf_result_fps(true, true, jobs),
            FTF_WITNESS_RUN_RESULT_FPS,
            "bounded witness run, jobs={jobs}"
        );
        assert_eq!(
            ftf_result_fps(true, false, jobs),
            FTF_BOUNDED_RESULT_FPS,
            "bounded, jobs={jobs}"
        );
    }
}

#[test]
fn ftf_witness_matches_recorded_fingerprint() {
    let w = contended(16);
    for (jobs, bound) in [1usize, 2, 4]
        .into_iter()
        .flat_map(|j| [(j, false), (j, true)])
    {
        let r = ftf_dp(
            &w,
            SimConfig::new(3, 1),
            FtfOptions {
                reconstruct: true,
                bound,
                jobs,
                ..Default::default()
            },
        )
        .unwrap();
        let s = r.schedule.unwrap();
        let mut d: Vec<_> = s.decisions.into_iter().collect();
        d.sort_unstable_by_key(|(k, _)| *k);
        let fp = fnv(format!("{}|{:?}|{:?}", r.min_faults, d, s.voluntary).as_bytes());
        assert_eq!(fp, FTF_WITNESS_FP, "jobs={jobs} bound={bound}");
    }
}

#[test]
fn pif_decisions_match_recorded_fingerprints() {
    let w = contended(18);
    let cfg = SimConfig::new(2, 1);
    for (jobs, bound) in [1usize, 2, 4]
        .into_iter()
        .flat_map(|j| [(j, false), (j, true)])
    {
        let mut bits = String::new();
        for bounds in [[20u64, 20], [9, 9], [2, 2], [0, 0]] {
            for full in [true, false] {
                let ans = pif_decide(
                    &w,
                    cfg,
                    60,
                    &bounds,
                    PifOptions {
                        full_transitions: full,
                        bound,
                        jobs,
                        ..Default::default()
                    },
                )
                .unwrap();
                bits.push(if ans { '1' } else { '0' });
            }
        }
        assert_eq!(bits, PIF_DECISION_BITS, "jobs={jobs} bound={bound}");
    }
}

#[test]
fn pif_witness_matches_recorded_fingerprint() {
    let w = contended(12);
    for (jobs, bound) in [1usize, 2, 4]
        .into_iter()
        .flat_map(|j| [(j, false), (j, true)])
    {
        let s = pif_witness(
            &w,
            SimConfig::new(2, 1),
            30,
            &[12, 12],
            PifOptions {
                bound,
                jobs,
                ..Default::default()
            },
        )
        .unwrap()
        .unwrap();
        let mut d: Vec<_> = s.decisions.into_iter().collect();
        d.sort_unstable_by_key(|(k, _)| *k);
        let fp = fnv(format!("{:?}|{:?}", d, s.voluntary).as_bytes());
        assert_eq!(fp, PIF_WITNESS_FP, "jobs={jobs} bound={bound}");
    }
}

#[test]
fn ftf_checkpoint_bytes_match_recorded_fingerprint() {
    let w = contended4(12);
    let budget = Budget::unlimited().with_max_states(10);
    for jobs in [1usize, 2, 4] {
        for (bound, pin) in [(false, FTF_CKPT_FP), (true, FTF_BOUNDED_CKPT_FP)] {
            let opts = FtfOptions {
                reconstruct: true,
                bound,
                jobs,
                ..Default::default()
            };
            match ftf_dp_governed(&w, SimConfig::new(3, 1), opts, &budget, None).unwrap() {
                FtfOutcome::Truncated(t) => {
                    assert_eq!(
                        fnv(&t.checkpoint.to_bytes()),
                        pin,
                        "bound={bound} jobs={jobs}"
                    );
                }
                FtfOutcome::Complete(_) => {
                    panic!("cap 10 must truncate (bound={bound} jobs={jobs})")
                }
            }
        }
    }
}

#[test]
fn pif_checkpoint_bytes_match_recorded_fingerprint() {
    let w = contended4(12);
    let budget = Budget::unlimited().with_max_states(40);
    for jobs in [1usize, 2, 4] {
        for (bound, t_done, pin) in [(false, 7, PIF_CKPT_FP), (true, 8, PIF_BOUNDED_CKPT_FP)] {
            let opts = PifOptions {
                bound,
                jobs,
                ..Default::default()
            };
            match pif_decide_governed(&w, SimConfig::new(3, 1), 16, &[8, 8], opts, &budget, None)
                .unwrap()
            {
                PifOutcome::Truncated(t) => {
                    assert_eq!(t.t_done, t_done, "bound={bound} jobs={jobs}");
                    assert_eq!(
                        fnv(&t.checkpoint.to_bytes()),
                        pin,
                        "bound={bound} jobs={jobs}"
                    );
                }
                PifOutcome::Decided(ans) => {
                    panic!("cap 40 must truncate, got {ans} (bound={bound} jobs={jobs})")
                }
            }
        }
    }
}

/// `pif_fingerprint` of the checkpoint test's query, per `(full_transitions,
/// bound)`. The literal relation and both honest ones keep the values they
/// had before the bounded search delayed voluntary evictions; the delayed
/// search (fingerprint bit 3) no longer matches its old value
/// `0x234a75d6c93eb852`, so snapshots of the old search are refused.
const PIF_FINGERPRINTS: [((bool, bool), u64); 4] = [
    ((true, false), 0xe5f1153de2d2d6bc),
    ((false, false), 0xde2b4d3e05367255),
    ((false, true), 0xfdf483a916816401),
    ((true, true), 0x12a049ef75f27aa4),
];

#[test]
fn pif_fingerprint_marks_only_the_delayed_search() {
    let w = contended4(12);
    let cfg = SimConfig::new(3, 1);
    for ((full_transitions, bound), pin) in PIF_FINGERPRINTS {
        let opts = PifOptions {
            full_transitions,
            bound,
            ..Default::default()
        };
        let fp = mcp_offline::pif_fingerprint(&w, cfg, 16, &[8, 8], &opts).unwrap();
        assert_eq!(fp, pin, "full={full_transitions} bound={bound}");
    }
}

#[test]
fn pif_witness_is_worker_count_invariant() {
    let w = contended(12);
    let cfg = SimConfig::new(2, 1);
    let run = |jobs: usize| {
        pif_witness(
            &w,
            cfg,
            30,
            &[12, 12],
            PifOptions {
                jobs,
                ..Default::default()
            },
        )
        .unwrap()
        .map(|s| {
            let mut d: Vec<_> = s.decisions.into_iter().collect();
            d.sort_unstable_by_key(|(k, _)| *k);
            (format!("{d:?}"), format!("{:?}", s.voluntary))
        })
    };
    let base = run(1);
    assert!(base.is_some(), "witness must exist for generous bounds");
    for jobs in [2usize, 4] {
        assert_eq!(run(jobs), base, "jobs={jobs}");
    }
}
