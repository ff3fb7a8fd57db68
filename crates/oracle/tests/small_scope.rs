//! Small-scope exhaustive check: every instance up to a size bound, not a
//! sample.
//!
//! Instances are all workloads with p ≤ 2 cores and a bounded number of
//! requests in total: six in the default run, eight in the ignored one. Pages are canonicalised by first occurrence in core
//! order (restricted-growth strings), so each page pattern appears once;
//! every split of the requests between the cores is kept, because core
//! order is the service order. Each instance runs at every `K` from `p`
//! to its distinct-page count and every `τ ∈ {0, 1, 2}`, and must satisfy:
//!
//! * the engine-driven brute force and the naive oracle agree on the
//!   minimum total faults;
//! * on disjoint instances, Algorithm 1 agrees too, and Theorem 5's
//!   FITF-restricted class attains the optimum. (On shared pages the DPs
//!   read a page in flight for another core as a hit, DESIGN §1, so they
//!   are compared on disjoint instances only.)
//! * the engine-driven searches and the naive oracle agree on the
//!   makespan optimum and both lexicographic optima.
//!
//! A second pass checks Algorithm 2 (PARTIAL-INDIVIDUAL-FAULTS) on every
//! instance up to Σnᵢ ≤ 5 (≤ 7 under `--ignored`), at the horizons `1`,
//! `⌊n_max(τ+1)/2⌋` and `n_max(τ+1)` and every bound vector
//! `0 ≤ bᵢ ≤ nᵢ`: the default `pif_decide`, which delays the voluntary
//! evictions of pages the next step does not read, decides like the
//! paper's literal relation (`bound: false`) everywhere, and on disjoint
//! instances both decide like `oracle_pif_feasible`.
//!
//! A third pass checks the scheduling-capable model on every instance
//! whose cores share a page (Σnᵢ ≤ 5 by default, ≤ 6 under `--ignored`):
//! `sched_min` and the naive stall oracle agree on the minimum total
//! faults. There a wait can turn a join into a hit, which is what the
//! search's "never defer everyone" cut once missed. (Disjoint instances
//! are sampled by `differential.rs` and the fuzz suite.)

use mcp_core::{PageId, SimConfig, Workload};
use mcp_offline::{
    brute_force_faults_then_makespan, brute_force_makespan_then_faults, brute_force_min_faults,
    brute_force_min_makespan, fitf_restricted_min_faults, ftf_min_faults, pif_decide, sched_min,
    Objective, PifOptions,
};
use mcp_oracle::{oracle_optima, oracle_pif_feasible, oracle_sched_min_faults};
use std::collections::BTreeSet;

const CAP: usize = 50_000_000;

/// Every restricted-growth string of length `n`: `s[0] = 0` and each entry
/// is at most one more than the maximum before it.
fn restricted_growth_strings(n: usize) -> Vec<Vec<u32>> {
    fn extend(prefix: &mut Vec<u32>, next_new: u32, n: usize, out: &mut Vec<Vec<u32>>) {
        if prefix.len() == n {
            out.push(prefix.clone());
            return;
        }
        for page in 0..=next_new {
            prefix.push(page);
            extend(prefix, next_new.max(page + 1), n, out);
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    extend(&mut Vec::with_capacity(n), 0, n, &mut out);
    out
}

/// Every workload with `cores` sequences and `total` requests, up to page
/// renaming.
fn instances(cores: usize, total: usize) -> Vec<Workload> {
    let splits: Vec<Vec<usize>> = match cores {
        1 => vec![vec![total]],
        2 => (0..=total).map(|a| vec![a, total - a]).collect(),
        _ => unreachable!("the small scope covers p <= 2"),
    };
    let mut out = Vec::new();
    for pages in restricted_growth_strings(total) {
        for lens in &splits {
            let mut rest = pages.as_slice();
            let seqs: Vec<Vec<PageId>> = lens
                .iter()
                .map(|&len| {
                    let (seq, tail) = rest.split_at(len);
                    rest = tail;
                    seq.iter().copied().map(PageId).collect()
                })
                .collect();
            out.push(Workload::new(seqs).unwrap());
        }
    }
    out
}

/// Check every instance with `1 ≤ Σnᵢ ≤ bound` with `check`; returns
/// how many `(instance, K, τ)` configurations were checked.
fn check_up_to(bound: usize, check: fn(&Workload, SimConfig)) -> usize {
    let mut checked = 0;
    for cores in 1..=2 {
        for total in 1..=bound {
            for w in instances(cores, total) {
                let distinct = w.universe().len();
                for k in cores..=distinct.max(cores) {
                    for tau in 0..=2 {
                        check(&w, SimConfig::new(k, tau));
                        checked += 1;
                    }
                }
            }
        }
    }
    checked
}

fn check(w: &Workload, cfg: SimConfig) {
    let at = || format!("{:?} K={} tau={}", w.sequences(), cfg.cache_size, cfg.tau);
    let optima = oracle_optima(w, cfg, CAP).expect("oracle run cap");
    let oracle = optima.faults;
    let brute = brute_force_min_faults(w, cfg, CAP).unwrap();
    assert_eq!(brute, oracle, "brute force vs oracle on {}", at());
    if w.is_disjoint() {
        let opt = ftf_min_faults(w, cfg).unwrap();
        assert_eq!(oracle, opt, "oracle vs Algorithm 1 on {}", at());
        let restricted = fitf_restricted_min_faults(w, cfg, CAP).unwrap();
        assert_eq!(
            restricted,
            opt,
            "Theorem 5 class vs Algorithm 1 on {}",
            at()
        );
    }
    assert_eq!(
        brute_force_min_makespan(w, cfg, CAP).unwrap(),
        optima.makespan,
        "makespan on {}",
        at()
    );
    assert_eq!(
        brute_force_faults_then_makespan(w, cfg, CAP).unwrap(),
        optima.faults_then_makespan,
        "(faults, makespan) on {}",
        at()
    );
    assert_eq!(
        brute_force_makespan_then_faults(w, cfg, CAP).unwrap(),
        optima.makespan_then_faults,
        "(makespan, faults) on {}",
        at()
    );
}

/// `sched_min` against the naive stall oracle on a shared instance. The
/// horizon leaves every no-stall schedule (done by `n(τ+1)`) `τ + 2`
/// steps of slack for waits; both sides optimise under the same horizon,
/// and the naive oracle's enumeration grows steeply with it.
fn check_stall(w: &Workload, cfg: SimConfig) {
    if w.is_disjoint() {
        return;
    }
    let horizon = w.total_len() as u64 * (cfg.tau + 1) + cfg.tau + 2;
    let oracle = oracle_sched_min_faults(w, cfg, horizon, CAP).expect("oracle run cap");
    let search = sched_min(w, cfg, Objective::Faults, horizon, None, CAP).unwrap();
    assert_eq!(
        search,
        oracle,
        "stall model on {:?} K={} tau={}",
        w.sequences(),
        cfg.cache_size,
        cfg.tau
    );
}

/// Every bound vector `b` with `0 ≤ b_i ≤ n_i`.
fn bound_vectors(w: &Workload) -> Vec<Vec<u64>> {
    (0..w.num_cores()).fold(vec![Vec::new()], |prefixes, i| {
        prefixes
            .iter()
            .flat_map(|prefix| {
                (0..=w.len(i) as u64).map(move |b| {
                    let mut v = prefix.clone();
                    v.push(b);
                    v
                })
            })
            .collect()
    })
}

/// Algorithm 2 on every bound vector at the horizons `1`,
/// `⌊n_max(τ+1)/2⌋` and `n_max(τ+1)`: the default search (lower bound on,
/// voluntary evictions of pages the next step does not read delayed)
/// decides like the paper's literal relation (`bound: false`) on every
/// instance, and on disjoint instances both decide like the naive oracle.
fn check_pif(w: &Workload, cfg: SimConfig) {
    let n_max = (0..w.num_cores()).map(|i| w.len(i)).max().unwrap_or(0) as u64;
    let last = n_max * (cfg.tau + 1);
    let literal = PifOptions {
        bound: false,
        ..Default::default()
    };
    for t in BTreeSet::from([1, last / 2, last]) {
        for bounds in bound_vectors(w) {
            let at = || {
                format!(
                    "{:?} K={} tau={} t={t} b={bounds:?}",
                    w.sequences(),
                    cfg.cache_size,
                    cfg.tau
                )
            };
            let delayed = pif_decide(w, cfg, t, &bounds, PifOptions::default()).unwrap();
            let raw = pif_decide(w, cfg, t, &bounds, literal).unwrap();
            assert_eq!(delayed, raw, "default vs literal PIF on {}", at());
            if w.is_disjoint() {
                let oracle = oracle_pif_feasible(w, cfg, t, &bounds, CAP).expect("oracle run cap");
                assert_eq!(raw, oracle, "Algorithm 2 vs oracle on {}", at());
            }
        }
    }
}

#[test]
fn restricted_growth_strings_are_counted_by_bell_numbers() {
    let bell = [1, 1, 2, 5, 15, 52, 203];
    for (n, &b) in bell.iter().enumerate() {
        assert_eq!(restricted_growth_strings(n).len(), b, "n={n}");
    }
}

#[test]
fn every_instance_up_to_six_requests() {
    assert!(check_up_to(6, check) > 0);
}

#[test]
fn every_instance_up_to_five_requests_decides_pif_alike() {
    assert!(check_up_to(5, check_pif) > 0);
}

#[test]
fn every_shared_instance_up_to_five_requests_in_the_stall_model() {
    assert!(check_up_to(5, check_stall) > 0);
}

/// The larger bound: run with `cargo test --release -p mcp-oracle --test
/// small_scope -- --ignored`.
#[test]
#[ignore]
fn every_instance_up_to_eight_requests() {
    assert!(check_up_to(8, check) > 0);
}

/// Algorithm 2's larger bound (about forty seconds in release).
#[test]
#[ignore]
fn every_instance_up_to_seven_requests_decides_pif_alike() {
    assert!(check_up_to(7, check_pif) > 0);
}

/// The stall model's larger bound (about four minutes in release, nearly
/// all of it in the naive oracle).
#[test]
#[ignore]
fn every_shared_instance_up_to_six_requests_in_the_stall_model() {
    assert!(check_up_to(6, check_stall) > 0);
}
