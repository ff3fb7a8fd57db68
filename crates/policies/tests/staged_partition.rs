//! Integration tests for the staged dynamic partition: equivalence with
//! static partitions in the single-stage case (proptest), and correct
//! shrink enforcement across stage boundaries.

use mcp_core::{simulate, PageId, SimConfig, Time, Workload};
use mcp_policies::{static_partition_lru, Lru, Partition, StagedPartition};
use proptest::prelude::*;

fn arb_disjoint_two_core() -> impl Strategy<Value = Workload> {
    (
        prop::collection::vec(0u32..4, 1..30),
        prop::collection::vec(100u32..104, 1..30),
    )
        .prop_map(|(a, b)| {
            Workload::new(vec![
                a.into_iter().map(PageId).collect(),
                b.into_iter().map(PageId).collect(),
            ])
            .unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn single_stage_equals_static_partition(
        w in arb_disjoint_two_core(),
        k0 in 1usize..4,
        k1 in 1usize..4,
        tau in 0u64..4,
    ) {
        let cfg = SimConfig::new(k0 + k1, tau);
        let part = Partition::from_sizes(vec![k0, k1]);
        let s = simulate(&w, cfg, static_partition_lru(part.clone())).unwrap();
        let d = simulate(
            &w,
            cfg,
            StagedPartition::uniform(vec![(1, part)], Lru::new),
        )
        .unwrap();
        prop_assert_eq!(s.faults, d.faults);
        prop_assert_eq!(s.fault_times, d.fault_times);
    }

    #[test]
    fn identical_stages_collapse_to_static(
        w in arb_disjoint_two_core(),
        tau in 0u64..3,
        stages in 2usize..6,
    ) {
        // Repeating the same partition across m stages must behave exactly
        // like the static partition (no spurious shrink evictions).
        let cfg = SimConfig::new(4, tau);
        let part = Partition::from_sizes(vec![2, 2]);
        let horizon = (w.total_len() as u64 + 1) * (tau + 1) + 1;
        let plan: Vec<(Time, Partition)> = (0..stages)
            .map(|s| (1 + s as u64 * (horizon / stages as u64).max(1), part.clone()))
            .collect();
        let s = simulate(&w, cfg, static_partition_lru(part.clone())).unwrap();
        let d = simulate(&w, cfg, StagedPartition::uniform(plan, Lru::new)).unwrap();
        prop_assert_eq!(s.faults, d.faults);
    }
}

#[test]
fn shrink_boundary_is_honoured_even_mid_fetch() {
    // Core 0's part shrinks from 3 to 1 at t = 8 while it may have a fetch
    // in flight; enforcement must catch up without evicting fetching cells.
    let w = Workload::from_u32([vec![1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3], vec![7; 12]]).unwrap();
    let stages = vec![
        (1, Partition::from_sizes(vec![3, 1])),
        (8, Partition::from_sizes(vec![1, 3])),
    ];
    let r = simulate(
        &w,
        SimConfig::new(4, 2),
        StagedPartition::uniform(stages, Lru::new),
    )
    .unwrap();
    // Core 0 must refault after the shrink; core 1 only cold-misses.
    assert!(
        r.faults[0] >= 4,
        "shrink must cost core 0 extra faults: {:?}",
        r.faults
    );
    assert_eq!(r.faults[1], 1);
    // Conservation still holds.
    assert_eq!(r.faults[0] + r.hits[0], 12);
}

#[test]
fn fully_pinned_parts_borrow_a_cell_on_shared_workloads() {
    // Page 1 is shared, and a simultaneous read of it can pin every page
    // a faulting core's part owns. The staged partition used to panic
    // here for want of an evictable page; like the static partition it
    // now borrows a cell.
    let w = Workload::from_u32([vec![2, 1], vec![1, 0]]).unwrap();
    let cfg = SimConfig::new(3, 1);
    let part = Partition::equal(3, 2);
    let staged = simulate(
        &w,
        cfg,
        StagedPartition::uniform(vec![(1, part.clone())], Lru::new),
    );
    let staged = staged.unwrap();
    let fixed = simulate(&w, cfg, static_partition_lru(part)).unwrap();
    assert_eq!(staged.faults, fixed.faults);
    assert_eq!(staged.fault_times, fixed.fault_times);
    for core in 0..2 {
        assert_eq!(staged.faults[core] + staged.hits[core], 2);
    }
}
