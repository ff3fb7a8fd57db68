//! Workload characterization: reuse distances, working-set curves, and
//! per-core summaries — the quantities that predict how a sequence
//! behaves under the strategies (an LRU stack distance ≤ k is exactly a
//! hit at cache size k).

use mcp_core::{PageId, Workload};
use std::collections::HashMap;

/// Summary of one core's request sequence.
#[derive(Clone, Debug, PartialEq)]
pub struct CoreProfile {
    /// Requests issued.
    pub requests: usize,
    /// Distinct pages touched.
    pub distinct: usize,
    /// Median LRU reuse distance of re-references (`None` if no page is
    /// ever re-referenced).
    pub median_reuse: Option<usize>,
    /// Fraction of requests that are re-references (1 − cold-miss rate).
    pub reuse_fraction: f64,
    /// Working-set sizes at window lengths 8, 64, 512 (mean distinct
    /// pages per window; windows longer than the sequence report
    /// `distinct`).
    pub working_set: [f64; 3],
}

/// LRU stack distances of a sequence (Mattson et al. 1970).
///
/// `distance[i]` is the LRU stack depth of request `i`: the number of
/// distinct pages referenced since the previous use of `seq[i]`
/// (`usize::MAX` for a first use). A request hits in an LRU cache of size
/// `k` iff its stack distance is `≤ k`.
pub fn lru_stack_distances(seq: &[PageId]) -> Vec<usize> {
    // Simple O(n · d) stack maintenance (d = distinct pages): adequate for
    // the instance sizes here, and trivially correct. The stack holds
    // pages in recency order, most recent first.
    let mut stack: Vec<PageId> = Vec::new();
    let mut out = Vec::with_capacity(seq.len());
    for &page in seq {
        match stack.iter().position(|&p| p == page) {
            None => out.push(usize::MAX),
            Some(depth) => {
                out.push(depth + 1);
                stack.remove(depth);
            }
        }
        stack.insert(0, page);
    }
    out
}

/// LRU reuse distances (stack distances) of every re-reference in `seq`,
/// ascending. First references are excluded.
pub fn reuse_distances(seq: &[PageId]) -> Vec<usize> {
    let mut out = lru_stack_distances(seq);
    out.retain(|&d| d != usize::MAX);
    out.sort_unstable();
    out
}

/// Mean number of distinct pages per window of `window` consecutive
/// requests (Denning's working set, sampled at every offset).
pub fn working_set_size(seq: &[PageId], window: usize) -> f64 {
    if seq.is_empty() {
        return 0.0;
    }
    let window = window.max(1);
    if window >= seq.len() {
        return seq.iter().collect::<std::collections::HashSet<_>>().len() as f64;
    }
    // Sliding window with occurrence counts.
    let mut counts: HashMap<PageId, usize> = HashMap::new();
    for &p in &seq[..window] {
        *counts.entry(p).or_insert(0) += 1;
    }
    let mut total = counts.len() as f64;
    let mut samples = 1usize;
    for i in window..seq.len() {
        let leaving = seq[i - window];
        match counts.get_mut(&leaving) {
            Some(c) if *c > 1 => *c -= 1,
            _ => {
                counts.remove(&leaving);
            }
        }
        *counts.entry(seq[i]).or_insert(0) += 1;
        total += counts.len() as f64;
        samples += 1;
    }
    total / samples as f64
}

/// Profile one core's sequence.
pub fn profile_core(seq: &[PageId]) -> CoreProfile {
    let distances = reuse_distances(seq);
    let distinct = seq.iter().collect::<std::collections::HashSet<_>>().len();
    CoreProfile {
        requests: seq.len(),
        distinct,
        median_reuse: if distances.is_empty() {
            None
        } else {
            Some(distances[distances.len() / 2])
        },
        reuse_fraction: if seq.is_empty() {
            0.0
        } else {
            distances.len() as f64 / seq.len() as f64
        },
        working_set: [
            working_set_size(seq, 8),
            working_set_size(seq, 64),
            working_set_size(seq, 512),
        ],
    }
}

/// Profile every core of a workload.
pub fn profile(workload: &Workload) -> Vec<CoreProfile> {
    workload
        .sequences()
        .iter()
        .map(|s| profile_core(s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(vs: &[u32]) -> Vec<PageId> {
        vs.iter().copied().map(PageId).collect()
    }

    #[test]
    fn reuse_distances_of_a_tight_loop() {
        // 1 2 1 2 1 2: every re-reference has stack distance 2.
        let d = reuse_distances(&seq(&[1, 2, 1, 2, 1, 2]));
        assert_eq!(d, vec![2, 2, 2, 2]);
    }

    #[test]
    fn scan_has_no_reuse() {
        let d = reuse_distances(&seq(&[1, 2, 3, 4, 5]));
        assert!(d.is_empty());
        let p = profile_core(&seq(&[1, 2, 3, 4, 5]));
        assert_eq!(p.median_reuse, None);
        assert_eq!(p.reuse_fraction, 0.0);
        assert_eq!(p.distinct, 5);
    }

    #[test]
    fn working_set_of_a_loop_saturates() {
        let s: Vec<PageId> = seq(&(0..100).map(|i| i % 4).collect::<Vec<_>>());
        // Any window >= 4 sees exactly the 4 loop pages.
        assert!((working_set_size(&s, 8) - 4.0).abs() < 1e-9);
        assert!((working_set_size(&s, 64) - 4.0).abs() < 1e-9);
        // A window of 2 sees exactly 2 distinct pages.
        assert!((working_set_size(&s, 2) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn working_set_edge_cases() {
        assert_eq!(working_set_size(&[], 8), 0.0);
        let s = seq(&[1, 1, 2]);
        assert_eq!(working_set_size(&s, 100), 2.0); // whole-sequence fallback
    }

    #[test]
    fn profile_reports_consistent_shapes() {
        let w = crate::synthetic::zipf(2, 400, 32, 0.9, 3);
        let profiles = profile(&w);
        assert_eq!(profiles.len(), 2);
        for p in profiles {
            assert_eq!(p.requests, 400);
            assert!(p.distinct <= 32);
            assert!(p.reuse_fraction > 0.5, "Zipf traffic reuses heavily");
            assert!(p.working_set[0] <= p.working_set[1] + 1e-9);
            assert!(p.working_set[1] <= p.working_set[2] + 1e-9);
        }
    }

    #[test]
    fn reuse_distance_matches_lru_hit_rule() {
        // A request hits in LRU(k) iff its reuse distance <= k: check the
        // histogram against a direct LRU simulation.
        let w = crate::synthetic::zipf(1, 300, 16, 1.0, 9);
        let s = w.sequence(0);
        let d = reuse_distances(s);
        for k in 1..=6usize {
            let hits_by_distance = d.iter().filter(|&&x| x <= k).count() as u64;
            let faults = mcp_offline_free_lru(s, k);
            assert_eq!(faults, s.len() as u64 - hits_by_distance, "k={k}");
        }
    }

    /// Minimal LRU reference (keeps this crate free of mcp-offline).
    fn mcp_offline_free_lru(seq: &[PageId], k: usize) -> u64 {
        let mut stack: Vec<PageId> = Vec::new();
        let mut faults = 0;
        for &p in seq {
            match stack.iter().position(|&q| q == p) {
                Some(i) => {
                    stack.remove(i);
                }
                None => {
                    faults += 1;
                    if stack.len() == k {
                        stack.pop();
                    }
                }
            }
            stack.insert(0, p);
        }
        faults
    }
}
