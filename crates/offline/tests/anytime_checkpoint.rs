//! The resource-governance contract of the exact solvers, end to end:
//! wherever a budget trips, the anytime bracket `[lower_bound,
//! incumbent]` contains the true optimum; a truncated run resumed from
//! its checkpoint — through on-disk bytes, at any worker count, even
//! chained through several trips — reproduces the uninterrupted result
//! bit for bit (min faults, state counts, witness schedule). Witness-free
//! runs, whose cut is strict, keep the same contract for the optimum and
//! the state count, and their snapshots never resume a witness run.

use mcp_core::budget::{request_cancel, reset_cancel};
use mcp_core::{Budget, SimConfig, TripReason, Workload};
use mcp_offline::{
    ftf_dp, ftf_dp_governed, pif_decide, pif_decide_governed, FtfCheckpoint, FtfOptions,
    FtfOutcome, FtfResult, FtfTruncated, PifCheckpoint, PifOptions, PifOutcome,
};
use std::time::Duration;

fn wl(seqs: &[&[u32]]) -> Workload {
    Workload::from_u32(seqs.iter().map(|s| s.to_vec())).unwrap()
}

/// A contended two-core workload big enough for several buckets.
fn contended(n: usize) -> Workload {
    Workload::from_u32([
        (0..n).map(|i| (i % 3) as u32).collect::<Vec<_>>(),
        (0..n).map(|i| 10 + (i % 4) as u32).collect::<Vec<_>>(),
    ])
    .unwrap()
}

fn opts(jobs: usize) -> FtfOptions {
    FtfOptions {
        reconstruct: true,
        jobs,
        ..Default::default()
    }
}

/// The default options: the lower bound on and no witness, so the cut
/// also takes the edges that can only tie the upper bound.
fn proof_opts(jobs: usize) -> FtfOptions {
    FtfOptions {
        jobs,
        ..Default::default()
    }
}

fn full_run(w: &Workload, cfg: SimConfig) -> FtfResult {
    ftf_dp(w, cfg, opts(1)).unwrap()
}

/// Run governed to completion, resuming through serialized checkpoint
/// bytes every time the state cap trips; returns the final result and
/// the bracket `(lower_bound, incumbent)` of every trip taken.
fn run_chained(
    w: &Workload,
    cfg: SimConfig,
    options: FtfOptions,
    cap_step: usize,
) -> (FtfResult, Vec<(u64, u64)>) {
    let mut brackets = Vec::new();
    let mut cap = cap_step;
    let mut snapshot: Option<Vec<u8>> = None;
    loop {
        let budget = Budget::unlimited().with_max_states(cap);
        let resume = snapshot
            .as_ref()
            .map(|bytes| FtfCheckpoint::from_bytes(bytes).expect("roundtrip"));
        match ftf_dp_governed(w, cfg, options, &budget, resume.as_ref()).unwrap() {
            FtfOutcome::Complete(r) => return (r, brackets),
            FtfOutcome::Truncated(t) => {
                assert!(matches!(t.reason, TripReason::StateCap { .. }));
                brackets.push((t.lower_bound, t.incumbent));
                assert!(brackets.len() < 100, "must converge");
                cap += cap_step;
                snapshot = Some(t.checkpoint.to_bytes());
            }
        }
    }
}

#[test]
fn bracket_contains_the_optimum_wherever_the_cap_trips() {
    let cases = [
        (contended(14), SimConfig::new(3, 1)),
        (
            wl(&[&[1, 2, 3, 1, 2, 3], &[7, 8, 7, 8, 7, 8]]),
            SimConfig::new(3, 1),
        ),
        (wl(&[&[1, 2, 1, 2], &[9, 8, 9, 8]]), SimConfig::new(2, 0)),
    ];
    for (w, cfg) in &cases {
        let opt = full_run(w, *cfg).min_faults;
        let mut saw_truncation = false;
        for cap in [1usize, 2, 5, 10, 25, 100, 500, 5000] {
            let budget = Budget::unlimited().with_max_states(cap);
            match ftf_dp_governed(w, *cfg, opts(1), &budget, None).unwrap() {
                FtfOutcome::Complete(r) => assert_eq!(r.min_faults, opt),
                FtfOutcome::Truncated(FtfTruncated {
                    lower_bound,
                    incumbent,
                    ..
                }) => {
                    saw_truncation = true;
                    assert!(
                        lower_bound <= opt && opt <= incumbent,
                        "cap {cap}: bracket [{lower_bound}, {incumbent}] must contain {opt}"
                    );
                }
            }
        }
        assert!(saw_truncation, "at least the tiny caps must trip");
    }
}

#[test]
fn resume_reproduces_the_full_run_at_every_worker_count() {
    let w = contended(12);
    let cfg = SimConfig::new(3, 1);
    let full = full_run(&w, cfg);
    for jobs in [1usize, 2, 4] {
        // Trip once mid-run, then resume without a budget.
        let budget = Budget::unlimited().with_max_states(10);
        let t = match ftf_dp_governed(&w, cfg, opts(jobs), &budget, None).unwrap() {
            FtfOutcome::Truncated(t) => t,
            FtfOutcome::Complete(_) => panic!("cap 10 must trip"),
        };
        let resumed = match ftf_dp_governed(
            &w,
            cfg,
            opts(jobs),
            &Budget::unlimited(),
            Some(&t.checkpoint),
        )
        .unwrap()
        {
            FtfOutcome::Complete(r) => r,
            FtfOutcome::Truncated(_) => panic!("unlimited resume must complete"),
        };
        assert_eq!(resumed.min_faults, full.min_faults, "jobs={jobs}");
        assert_eq!(resumed.states, full.states, "jobs={jobs}");
        assert_eq!(
            resumed.schedule.as_ref().unwrap().decisions,
            full.schedule.as_ref().unwrap().decisions,
            "witness schedule must be identical, jobs={jobs}"
        );
    }
}

#[test]
fn chained_checkpoints_converge_to_the_same_answer() {
    let w = contended(12);
    let cfg = SimConfig::new(3, 1);
    let full = full_run(&w, cfg);
    for jobs in [1usize, 4] {
        let (r, brackets) = run_chained(&w, cfg, opts(jobs), 25);
        let trips = brackets.len();
        assert!(trips >= 2, "step 25 must trip several times (got {trips})");
        assert_eq!(r.min_faults, full.min_faults);
        assert_eq!(r.states, full.states);
        assert_eq!(
            r.schedule.as_ref().unwrap().decisions,
            full.schedule.as_ref().unwrap().decisions
        );
    }
}

#[test]
fn checkpoint_survives_the_disk_and_rejects_corruption() {
    let w = contended(12);
    let cfg = SimConfig::new(3, 1);
    let budget = Budget::unlimited().with_max_states(10);
    let t = match ftf_dp_governed(&w, cfg, opts(1), &budget, None).unwrap() {
        FtfOutcome::Truncated(t) => t,
        FtfOutcome::Complete(_) => panic!("cap 10 must trip"),
    };

    let dir = std::env::temp_dir().join(format!("mcp_anytime_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ftf.ckpt");
    t.checkpoint.save(&path).unwrap();
    let loaded = FtfCheckpoint::load(&path).unwrap();
    assert_eq!(loaded.to_bytes(), t.checkpoint.to_bytes());

    // Any flipped byte is caught by the checksum (or the parser).
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    assert!(FtfCheckpoint::load(&path).is_err());

    // A checkpoint from a different instance is rejected by fingerprint.
    let other = wl(&[&[1, 2, 1, 2], &[9, 8, 9, 8]]);
    let err = ftf_dp_governed(
        &other,
        SimConfig::new(2, 0),
        opts(1),
        &budget,
        Some(&t.checkpoint),
    );
    assert!(err.is_err(), "foreign checkpoint must be rejected");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zero_deadline_and_cancellation_both_trip() {
    let w = contended(10);
    let cfg = SimConfig::new(3, 1);

    let budget = Budget::unlimited().with_deadline(Duration::ZERO);
    match ftf_dp_governed(&w, cfg, opts(1), &budget, None).unwrap() {
        FtfOutcome::Truncated(t) => assert_eq!(t.reason, TripReason::Deadline),
        FtfOutcome::Complete(_) => panic!("zero deadline must trip"),
    }

    reset_cancel();
    request_cancel();
    let budget = Budget::unlimited().with_global_cancel();
    match ftf_dp_governed(&w, cfg, opts(1), &budget, None).unwrap() {
        FtfOutcome::Truncated(t) => assert_eq!(t.reason, TripReason::Cancelled),
        FtfOutcome::Complete(_) => panic!("cancellation must trip"),
    }
    reset_cancel();

    // With the flag cleared the same budget no longer trips.
    match ftf_dp_governed(&w, cfg, opts(1), &budget, None).unwrap() {
        FtfOutcome::Complete(_) => {}
        FtfOutcome::Truncated(t) => panic!("cleared cancel flag must not trip: {:?}", t.reason),
    }
}

#[test]
fn pif_resume_matches_the_direct_decision_at_every_worker_count() {
    let w = contended(12);
    let cfg = SimConfig::new(3, 1);
    let horizon = 16;
    for bounds in [&[3u64, 3][..], &[0, 0][..], &[8, 8][..]] {
        let direct = pif_decide(&w, cfg, horizon, bounds, PifOptions::default()).unwrap();
        for jobs in [1usize, 2, 4] {
            let po = PifOptions {
                jobs,
                ..Default::default()
            };
            // Trip at the first layer boundary, roundtrip through bytes,
            // then finish without a budget.
            let t = match pif_decide_governed(
                &w,
                cfg,
                horizon,
                bounds,
                po,
                &Budget::unlimited().with_deadline(Duration::ZERO),
                None,
            )
            .unwrap()
            {
                PifOutcome::Truncated(t) => t,
                PifOutcome::Decided(ans) => {
                    // Bounds like [0,0] can be refuted before the first
                    // budget check; the direct answer must agree.
                    assert_eq!(ans, direct, "bounds {bounds:?} jobs={jobs}");
                    continue;
                }
            };
            let bytes = t.checkpoint.to_bytes();
            let resume = PifCheckpoint::from_bytes(&bytes).unwrap();
            match pif_decide_governed(
                &w,
                cfg,
                horizon,
                bounds,
                po,
                &Budget::unlimited(),
                Some(&resume),
            )
            .unwrap()
            {
                PifOutcome::Decided(ans) => {
                    assert_eq!(ans, direct, "bounds {bounds:?} jobs={jobs}")
                }
                PifOutcome::Truncated(_) => panic!("unlimited resume must decide"),
            }
        }
    }
}

/// Three cores with τ = 2: one step advances a state's position sum by up
/// to 9, so the FTF dedup ring has 10 tables and a trip leaves up to nine
/// buckets pending at once.
fn three_core() -> Workload {
    Workload::from_u32([
        (0..9).map(|i| (i % 3) as u32).collect::<Vec<_>>(),
        (0..9).map(|i| 10 + (i % 4) as u32).collect::<Vec<_>>(),
        (0..9).map(|i| 20 + (i * 7 % 5) as u32).collect::<Vec<_>>(),
    ])
    .unwrap()
}

fn truncate_at(w: &Workload, cfg: SimConfig, cap: usize, jobs: usize) -> FtfTruncated {
    let budget = Budget::unlimited().with_max_states(cap);
    match ftf_dp_governed(w, cfg, opts(jobs), &budget, None).unwrap() {
        FtfOutcome::Truncated(t) => t,
        FtfOutcome::Complete(_) => panic!("cap {cap} must trip"),
    }
}

#[test]
fn resume_with_several_pending_buckets_is_bit_identical() {
    let w = three_core();
    let cfg = SimConfig::new(5, 2);
    let full = full_run(&w, cfg);
    // The bounded solve discovers 2,814 states; both caps trip before.
    let (cap, later_cap) = (400, 2000);
    let t = truncate_at(&w, cfg, cap, 1);
    let pending: std::collections::BTreeSet<u64> = t
        .checkpoint
        .frontier
        .iter()
        .map(|key| key.1.iter().map(|&x| u64::from(x)).sum())
        .collect();
    assert!(
        pending.len() >= 4,
        "the trip must leave several buckets pending, got sums {pending:?}"
    );
    let later = truncate_at(&w, cfg, later_cap, 1).checkpoint.to_bytes();
    let bytes = t.checkpoint.to_bytes();
    for jobs in [1usize, 2] {
        let resume = FtfCheckpoint::from_bytes(&bytes).unwrap();
        // Resumed to the next trip: the snapshot bytes equal the direct
        // run's at that cap.
        let budget = Budget::unlimited().with_max_states(later_cap);
        match ftf_dp_governed(&w, cfg, opts(jobs), &budget, Some(&resume)).unwrap() {
            FtfOutcome::Truncated(t2) => assert_eq!(t2.checkpoint.to_bytes(), later, "jobs={jobs}"),
            FtfOutcome::Complete(_) => panic!("cap {later_cap} must trip (jobs={jobs})"),
        }
        // Resumed to the end: the full run's answer, states and witness.
        let r = match ftf_dp_governed(&w, cfg, opts(jobs), &Budget::unlimited(), Some(&resume))
            .unwrap()
        {
            FtfOutcome::Complete(r) => r,
            FtfOutcome::Truncated(_) => panic!("unlimited resume must complete"),
        };
        assert_eq!(r.min_faults, full.min_faults, "jobs={jobs}");
        assert_eq!(r.states, full.states, "jobs={jobs}");
        let (a, b) = (r.schedule.unwrap(), full.schedule.as_ref().unwrap().clone());
        assert_eq!(a.decisions, b.decisions, "jobs={jobs}");
        assert_eq!(a.voluntary, b.voluntary, "jobs={jobs}");
    }
}

/// The `offline-dp` benchmark's FTF instance: its upper bound is already
/// the optimum (24), so a witness-free run keeps no terminal at all.
fn offline_dp() -> (Workload, SimConfig) {
    (
        mcp_workloads::zipf(3, 20, 6, 0.9, 371),
        SimConfig::new(6, 2),
    )
}

#[test]
fn witness_free_chained_resume_reproduces_the_full_run() {
    let cases = [
        (contended(12), SimConfig::new(3, 1), 25),
        (three_core(), SimConfig::new(5, 2), 300),
        (offline_dp().0, offline_dp().1, 600),
    ];
    for (w, cfg, cap_step) in &cases {
        let opt = ftf_dp(
            w,
            *cfg,
            FtfOptions {
                bound: false,
                ..Default::default()
            },
        )
        .unwrap()
        .min_faults;
        let full = ftf_dp(w, *cfg, proof_opts(1)).unwrap();
        assert_eq!(full.min_faults, opt);
        for jobs in [1usize, 2, 4] {
            let (r, brackets) = run_chained(w, *cfg, proof_opts(jobs), *cap_step);
            assert!(
                brackets.len() >= 2,
                "step {cap_step} must trip several times"
            );
            assert_eq!(
                (r.min_faults, r.states),
                (full.min_faults, full.states),
                "jobs={jobs} on {w:?}"
            );
            for (lower, incumbent) in brackets {
                assert!(
                    lower <= opt && opt <= incumbent,
                    "[{lower}, {incumbent}] misses {opt}"
                );
            }
        }
    }
}

#[test]
fn witness_free_trip_after_the_last_discovery_still_brackets_the_optimum() {
    let (w, cfg) = offline_dp();
    let full = ftf_dp(&w, cfg, proof_opts(1)).unwrap();
    assert_eq!(full.min_faults, 24);
    // The cap trips at the first boundary after the last state is found.
    // Its frontier is not empty, yet the strict cut drops every successor
    // from there on: no terminal is ever reached.
    let budget = Budget::unlimited().with_max_states(full.states - 1);
    let FtfOutcome::Truncated(t) = ftf_dp_governed(&w, cfg, proof_opts(1), &budget, None).unwrap()
    else {
        panic!("cap {} must trip", full.states - 1)
    };
    assert_eq!(t.states, full.states);
    assert!(t.frontier_states > 0);
    assert!(t.checkpoint.best_terminal.is_none());
    assert!(
        t.lower_bound <= 24 && 24 <= t.incumbent,
        "[{}, {}] misses 24",
        t.lower_bound,
        t.incumbent
    );
    let bytes = t.checkpoint.to_bytes();
    for jobs in [1usize, 2, 4] {
        let resume = FtfCheckpoint::from_bytes(&bytes).unwrap();
        let FtfOutcome::Complete(r) = ftf_dp_governed(
            &w,
            cfg,
            proof_opts(jobs),
            &Budget::unlimited(),
            Some(&resume),
        )
        .unwrap() else {
            panic!("unlimited resume must complete")
        };
        assert_eq!((r.min_faults, r.states), (24, full.states), "jobs={jobs}");
    }
}

#[test]
fn witness_free_snapshots_never_resume_a_witness_run() {
    let w = contended(12);
    let cfg = SimConfig::new(3, 1);
    let budget = Budget::unlimited().with_max_states(10);
    let FtfOutcome::Truncated(t) = ftf_dp_governed(&w, cfg, proof_opts(1), &budget, None).unwrap()
    else {
        panic!("cap 10 must trip")
    };
    assert_eq!(
        t.checkpoint.fingerprint,
        mcp_offline::ftf_fingerprint(&w, cfg, &proof_opts(1)).unwrap()
    );
    assert_ne!(
        t.checkpoint.fingerprint,
        mcp_offline::ftf_fingerprint(&w, cfg, &opts(1)).unwrap()
    );
    let err = ftf_dp_governed(&w, cfg, opts(1), &Budget::unlimited(), Some(&t.checkpoint));
    assert!(
        matches!(err, Err(mcp_offline::DpError::Model(_))),
        "a witness run must refuse a witness-free snapshot"
    );
}
