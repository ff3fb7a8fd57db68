//! Fault-containment contracts of the pool under adversarial conditions:
//! ordered-slot delivery when *multiple* tasks panic inside the same
//! work-stealing chunk, and the retry/quarantine layer under injected
//! chaos faults — identical results at every worker count.

use mcp_chaos::{arm_scoped, disarmed_scoped, FaultPlan};
use mcp_exec::{Pool, Quarantined};
use std::panic;
use std::sync::Mutex;

/// Silence the default panic hook for the duration of a test (contained
/// panics would otherwise spam stderr).
fn quietly<R>(f: impl FnOnce() -> R) -> R {
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let out = f();
    panic::set_hook(hook);
    out
}

#[test]
fn multiple_panics_in_the_same_chunk_keep_ordered_slots() {
    // Pool::new(2) over 32 items → chunk size 32/(2*4) = 4, so indices
    // 4..8 form one whole chunk; poisoning all four exercises repeated
    // unwinds inside a single stolen chunk.
    let items: Vec<usize> = (0..32).collect();
    let poisoned = 4..8;
    quietly(|| {
        for workers in [1, 2, 4] {
            let pool = Pool::new(workers);
            let results = pool.par_try_map(&items, |_, &x| {
                if poisoned.contains(&x) {
                    panic!("poisoned item {x}");
                }
                x * 10
            });
            assert_eq!(results.len(), items.len());
            for (i, slot) in results.iter().enumerate() {
                if poisoned.contains(&i) {
                    let p = slot.as_ref().unwrap_err();
                    assert_eq!(p.index, i, "panic lands in its own slot");
                    assert_eq!(p.message, format!("poisoned item {i}"));
                } else {
                    assert_eq!(slot.as_ref().unwrap(), &(i * 10), "workers={workers}");
                }
            }
        }
    });
}

#[test]
fn emit_streams_every_slot_in_order_despite_same_chunk_panics() {
    let items: Vec<usize> = (0..32).collect();
    quietly(|| {
        let pool = Pool::new(2);
        let mut seen = Vec::new();
        pool.par_try_map_emit(
            &items,
            |_, &x| {
                if (12..16).contains(&x) {
                    panic!("boom {x}");
                }
                x
            },
            |i, slot| seen.push((i, slot.is_ok())),
        );
        let expected: Vec<(usize, bool)> = (0..32).map(|i| (i, !(12..16).contains(&i))).collect();
        assert_eq!(seen, expected, "emit order is input order, panics included");
    });
}

#[test]
fn deterministic_failures_are_quarantined_while_the_rest_complete() {
    let _guard = disarmed_scoped();
    let items: Vec<usize> = (0..24).collect();
    quietly(|| {
        let pool = Pool::new(3);
        let results = pool.par_try_map_retry("test.quarantine", 3, &items, |_, &x| {
            if x % 7 == 3 {
                panic!("always broken {x}");
            }
            x + 1
        });
        for (i, slot) in results.iter().enumerate() {
            if i % 7 == 3 {
                let q: &Quarantined = slot.as_ref().unwrap_err();
                assert_eq!((q.index, q.attempts), (i, 3));
                assert_eq!(q.last.message, format!("always broken {i}"));
                assert_eq!(q.last.index, i, "retry rounds re-anchor the input index");
            } else {
                assert_eq!(slot.as_ref().unwrap(), &(i + 1));
            }
        }
    });
}

#[test]
fn injected_faults_are_retried_to_identical_results_at_every_worker_count() {
    let items: Vec<u64> = (0..48).collect();
    let plan = FaultPlan {
        task_per_mille: 600,
        max_consecutive: 2,
        max_stall_ms: 2,
        ..FaultPlan::seeded(0xC5A0_5011)
    };
    quietly(|| {
        let _guard = arm_scoped(plan);
        let mut reference: Option<Vec<Result<u64, Quarantined>>> = None;
        for workers in [1, 2, 4, 8] {
            let pool = Pool::new(workers);
            let results = pool.par_try_map_retry("test.chaos", 4, &items, |_, &x| x * 3);
            assert!(
                results.iter().all(|r| r.is_ok()),
                "injected faults must clear within the retry budget (workers={workers})"
            );
            match &reference {
                None => reference = Some(results),
                Some(r) => assert_eq!(&results, r, "workers={workers}"),
            }
        }
    });
}

#[test]
fn retry_emit_observes_every_slot_once_in_input_order() {
    let _guard = disarmed_scoped();
    let items: Vec<usize> = (0..20).collect();
    quietly(|| {
        let pool = Pool::new(2);
        let emitted = Mutex::new(Vec::new());
        let results = pool.par_try_map_retry_emit(
            "test.emit",
            2,
            &items,
            |_, &x| {
                if x == 5 || x == 11 {
                    panic!("broken {x}");
                }
                x
            },
            |i, slot| emitted.lock().unwrap().push((i, slot.is_ok())),
        );
        let expected: Vec<(usize, bool)> = (0..20).map(|i| (i, i != 5 && i != 11)).collect();
        assert_eq!(*emitted.lock().unwrap(), expected);
        assert_eq!(results.iter().filter(|r| r.is_err()).count(), 2);
    });
}
