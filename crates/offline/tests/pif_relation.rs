//! The instance that tells the paper's full PIF transition relation from
//! the honest one. On `[[0, 0, 1, 2], [2, 0, 2, 0]]` at K = 2, τ = 1, the
//! bounds `[2, 3]` can be met at time 6 only by a schedule that evicts a
//! page voluntarily. So the decision must say yes on the full relation,
//! with the bound (which explores only the voluntary evictions of pages
//! the next step reads) and without it, and no on the honest relation;
//! `pif_witness` must agree. A DP hook that drops voluntary evictions from
//! the full relation turns the first answers into no.

use mcp_core::{SimConfig, Workload};
use mcp_offline::{pif_decide, pif_witness, PifOptions};

#[test]
fn only_the_full_relation_meets_the_bounds() {
    let w = Workload::from_u32([vec![0, 0, 1, 2], vec![2, 0, 2, 0]]).unwrap();
    let cfg = SimConfig::new(2, 1);
    let (horizon, bounds) = (6, [2, 3]);
    for jobs in [1, 2] {
        let options = |full_transitions, bound| PifOptions {
            full_transitions,
            bound,
            jobs,
            ..PifOptions::default()
        };
        for (full, bound, feasible) in [
            (true, true, true),
            (true, false, true),
            (false, true, false),
            (false, false, false),
        ] {
            let got = pif_decide(&w, cfg, horizon, &bounds, options(full, bound));
            assert_eq!(
                got,
                Ok(feasible),
                "full_transitions={full} bound={bound} jobs={jobs}"
            );
        }
        let witness = |full| pif_witness(&w, cfg, horizon, &bounds, options(full, true)).unwrap();
        assert!(witness(true).is_some(), "jobs={jobs}");
        assert!(witness(false).is_none(), "jobs={jobs}");
    }
}
