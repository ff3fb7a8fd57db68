//! The packed SWAR Pareto insert (`mcp_offline::pareto::insert`) against
//! the boxed-vector insert it replaced, kept here as the oracle.
//!
//! Random streams with duplicates and mutual dominance, for core counts
//! on both sides of the four-lanes-per-word boundary: after every insert
//! the packed set must hold the oracle's vectors in the oracle's order,
//! with each row's tag still beside it.

use mcp_offline::pareto::{insert, pack_row, row_words, unpack_row, MAX_LANE};
use proptest::prelude::*;

/// The original Pareto insert over boxed vectors: reject `v` if some
/// stored vector dominates it, else drop what `v` dominates and append.
fn oracle_insert(set: &mut Vec<(Box<[u16]>, usize)>, v: Box<[u16]>, tag: usize) {
    let dominates = |a: &[u16], b: &[u16]| a.iter().zip(b).all(|(x, y)| x <= y);
    if set.iter().any(|(u, _)| dominates(u, &v)) {
        return;
    }
    set.retain(|(u, _)| !dominates(&v, u));
    set.push((v, tag));
}

/// Core counts on both sides of the four-lanes-per-word boundary.
const CORES: [usize; 6] = [1, 3, 4, 5, 8, 9];

/// A lane value from a raw draw in `0..36`: mostly `0..4`, so duplicates
/// and dominance are common, sometimes the top of the lane range.
fn lane(raw: u16) -> u16 {
    if raw < 32 {
        raw % 4
    } else {
        MAX_LANE - (raw - 32)
    }
}

fn check(cores: usize, vectors: &[Vec<u16>]) {
    let w = row_words(cores);
    let (mut rows, mut tags) = (Vec::new(), Vec::new());
    let mut oracle: Vec<(Box<[u16]>, usize)> = Vec::new();
    let mut row = Vec::with_capacity(w);
    for (tag, v) in vectors.iter().enumerate() {
        row.clear();
        pack_row(v, &mut row);
        let before = oracle.len();
        oracle_insert(&mut oracle, v.clone().into_boxed_slice(), tag);
        let added = insert(&mut rows, &mut tags, &row, tag);
        assert_eq!(added, oracle.last().map(|e| e.1) == Some(tag));
        let got: Vec<(Box<[u16]>, usize)> = rows
            .chunks_exact(w)
            .map(|r| unpack_row(r, cores))
            .zip(tags.iter().copied())
            .collect();
        assert_eq!(got, oracle, "after inserting {v:?} (set had {before})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn swar_insert_matches_the_boxed_oracle(
        pick in 0usize..6,
        raw in prop::collection::vec(prop::collection::vec(0u16..36, 9), 1..120),
    ) {
        let cores = CORES[pick];
        let vectors: Vec<Vec<u16>> =
            raw.iter().map(|v| v[..cores].iter().map(|&x| lane(x)).collect()).collect();
        check(cores, &vectors);
    }
}

#[test]
fn every_core_count_runs() {
    // The property picks one core count per case; pin each at least once.
    for cores in CORES {
        let vectors: Vec<Vec<u16>> = (0..200u16)
            .map(|i| {
                (0..cores as u16)
                    .map(|j| lane((i * 7 + j * 13) % 36))
                    .collect()
            })
            .collect();
        check(cores, &vectors);
    }
}
