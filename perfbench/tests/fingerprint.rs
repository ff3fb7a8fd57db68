//! The model-time fingerprint of every workload is a function of the seed
//! alone: identical across runs at one seed, identical between traced and
//! untraced runs, and different across seeds (so the seed reaches the
//! generators). Every output check must pass on the way.

use mcp_perfbench::{run_named, Options, Outcome, END_TO_END, PER_LAYER, WORKLOADS};

/// A run with the fewest passes the harness allows.
fn run(workload: &str, seed: u64, traced: bool) -> Outcome {
    let opt = Options {
        seed,
        seconds: 0.0,
        traced,
    };
    let out = run_named(workload, &opt).expect("known workload");
    assert!(out.correct, "{workload} seed {seed}: {:?}", out.failures);
    assert_eq!(out.failed, 0, "{workload} seed {seed}");
    out
}

#[test]
fn fingerprints_depend_on_the_seed_only() {
    mcp_exec::set_jobs(Some(1));
    for &workload in WORKLOADS {
        let a = run(workload, 7, false);
        let again = run(workload, 7, false);
        let traced = run(workload, 7, true);
        let other = run(workload, 8, false);
        assert_eq!(a.fingerprint, again.fingerprint, "{workload}: rerun");
        assert_eq!(a.fingerprint, traced.fingerprint, "{workload}: traced");
        assert_ne!(
            a.fingerprint, other.fingerprint,
            "{workload}: seeds 7 and 8"
        );

        let names = |o: &Outcome| o.metrics.0.iter().map(|m| m.0.clone()).collect::<Vec<_>>();
        let expect =
            |list: &[(&str, &str)]| list.iter().map(|m| m.0.to_string()).collect::<Vec<_>>();
        assert_eq!(names(&a), expect(END_TO_END), "{workload}");
        assert_eq!(names(&traced), expect(PER_LAYER), "{workload}");
        for (name, value, _) in &a.metrics.0 {
            assert!(*value > 0.0, "{workload}: {name} = {value}");
        }
    }
}
