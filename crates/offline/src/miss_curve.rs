//! Miss-ratio curves: faults as a function of cache size, for LRU (via
//! Mattson stack distances, one pass for all sizes) and OPT (per-size
//! Belady). These are the per-core oracles behind optimal static
//! partitioning.

use crate::belady_seq::belady_faults;
use mcp_core::PageId;
pub use mcp_workloads::lru_stack_distances;
use std::collections::HashMap;

/// LRU fault counts for every cache size `1..=k_max`, from one
/// stack-distance pass.
pub fn lru_curve(seq: &[PageId], k_max: usize) -> Vec<u64> {
    let distances = lru_stack_distances(seq);
    // hist[d] = number of requests with stack distance exactly d (1-based);
    // infinite distances (first uses) always fault.
    let mut hist = vec![0u64; k_max + 2];
    let mut infinite = 0u64;
    for &d in &distances {
        if d == usize::MAX || d > k_max {
            infinite += 1;
        } else {
            hist[d] += 1;
        }
    }
    // faults(k) = infinite + Σ_{d > k} hist[d], via a suffix sum.
    let mut curve = vec![0u64; k_max];
    for k in 1..=k_max {
        let beyond: u64 = hist[k + 1..].iter().sum();
        curve[k - 1] = infinite + beyond;
    }
    curve
}

/// OPT (Belady) fault counts for every cache size `1..=k_max`.
pub fn opt_curve(seq: &[PageId], k_max: usize) -> Vec<u64> {
    (1..=k_max).map(|k| belady_faults(seq, k)).collect()
}

/// Faults of LRU on a single sequence with cache size `k` (classic
/// sequential LRU — equivalently the per-part behaviour of `sP^B_LRU`).
pub fn lru_faults(seq: &[PageId], k: usize) -> u64 {
    assert!(k >= 1);
    lru_curve(seq, k)[k - 1]
}

/// Working-set size (distinct pages) of a sequence.
pub fn distinct_pages(seq: &[PageId]) -> usize {
    seq.iter()
        .copied()
        .collect::<std::collections::HashSet<_>>()
        .len()
}

/// Decompose a sequence into LRU phases for cache size `k` (Lemma 1's
/// phase partition): a new phase starts at the `(k+1)`-th distinct page
/// since the phase began. Returns phase start indices.
pub fn phase_starts(seq: &[PageId], k: usize) -> Vec<usize> {
    assert!(k >= 1);
    let mut starts = Vec::new();
    let mut current: HashMap<PageId, ()> = HashMap::new();
    for (i, &page) in seq.iter().enumerate() {
        if i == 0 {
            starts.push(0);
            current.insert(page, ());
            continue;
        }
        if !current.contains_key(&page) && current.len() == k {
            starts.push(i);
            current.clear();
        }
        current.insert(page, ());
    }
    starts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(vs: &[u32]) -> Vec<PageId> {
        vs.iter().copied().map(PageId).collect()
    }

    #[test]
    fn stack_distances_basic() {
        let s = seq(&[1, 2, 1, 3, 2, 1]);
        let d = lru_stack_distances(&s);
        assert_eq!(d[0], usize::MAX); // 1: first use
        assert_eq!(d[1], usize::MAX); // 2: first use
        assert_eq!(d[2], 2); // 1: {2,1} since last use
        assert_eq!(d[3], usize::MAX); // 3: first use
        assert_eq!(d[4], 3); // 2: {1,3, itself-excluded...}: depth of 2 = 3
        assert_eq!(d[5], 3); // 1
    }

    #[test]
    fn curve_matches_direct_lru_simulation() {
        // Direct LRU with recency list.
        fn lru_sim(seq: &[PageId], k: usize) -> u64 {
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
        let s = seq(&[1, 2, 3, 1, 4, 2, 5, 1, 2, 3, 4, 5, 1, 1, 2, 6, 3]);
        let curve = lru_curve(&s, 6);
        for k in 1..=6 {
            assert_eq!(curve[k - 1], lru_sim(&s, k), "k={k}");
        }
    }

    #[test]
    fn inclusion_property_lru_monotone() {
        let s = seq(&[3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3]);
        let curve = lru_curve(&s, 8);
        for w in curve.windows(2) {
            assert!(
                w[0] >= w[1],
                "LRU curve must be nonincreasing (inclusion property)"
            );
        }
    }

    #[test]
    fn opt_never_worse_than_lru() {
        let s = seq(&[1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4]);
        let lru = lru_curve(&s, 4);
        let opt = opt_curve(&s, 4);
        for k in 0..4 {
            assert!(
                opt[k] <= lru[k],
                "k={} opt={} lru={}",
                k + 1,
                opt[k],
                lru[k]
            );
        }
        // Cycling 4 pages through 3 cells: LRU faults always; OPT does not.
        assert_eq!(lru[2], 12);
        assert!(opt[2] < 12);
    }

    #[test]
    fn phases_lemma1_structure() {
        // k=2: phases restart at each 3rd distinct page.
        let s = seq(&[1, 2, 1, 3, 4, 3, 1, 2]);
        let starts = phase_starts(&s, 2);
        assert_eq!(starts, vec![0, 3, 6]);
        // Any algorithm faults at least once per phase; LRU at most k per
        // phase (Lemma 1's upper bound skeleton).
        let phases = starts.len() as u64;
        let lru = lru_faults(&s, 2);
        assert!(lru <= 2 * phases);
        let opt = belady_faults(&s, 2);
        assert!(opt >= phases);
    }

    #[test]
    fn distinct_count() {
        assert_eq!(distinct_pages(&seq(&[1, 1, 2, 3, 2])), 3);
    }
}
