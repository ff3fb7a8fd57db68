//! Property test of the [`QuantileSketch`] relative-error guarantee:
//! for arbitrary nonnegative streams and any probed quantile, the sketch
//! answer is within `α` relative error of the exact sorted-array
//! quantile at the same rank, merging split streams loses nothing, and
//! recording a run of equal values with `add_n` is the same as adding
//! them one by one.

use mcp_analysis::stats::QuantileSketch;
use proptest::prelude::*;

fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[(q * (sorted.len() - 1) as f64).floor() as usize]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sketch_within_alpha_of_exact(
        raw in prop::collection::vec(0u64..1_000_000_000_000, 1..400),
        alpha_pm in 5u32..80, // α in [0.005, 0.08)
        q_pm in 0u32..1001,
    ) {
        // Milli-unit integers -> nonnegative floats spanning 9 decades.
        let values: Vec<f64> = raw.iter().map(|&v| v as f64 * 0.001).collect();
        let alpha = alpha_pm as f64 / 1000.0;
        let q = q_pm as f64 / 1000.0;
        let mut sk = QuantileSketch::new(alpha);
        for &v in &values {
            sk.add(v);
        }
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let exact = exact_quantile(&sorted, q);
        let est = sk.quantile(q).expect("non-empty sketch answers");
        prop_assert!(
            (est - exact).abs() <= alpha * exact + 1e-9,
            "alpha={} q={}: est {} vs exact {}", alpha, q, est, exact
        );
    }

    #[test]
    fn merged_split_streams_answer_like_one(
        raw in prop::collection::vec(0u64..1_000_000_000, 2..300),
        split_pm in 0u32..1001,
    ) {
        let values: Vec<f64> = raw.iter().map(|&v| v as f64 * 0.001).collect();
        let split = (values.len() * split_pm as usize) / 1001;
        let (lo, hi) = values.split_at(split);
        let mut a = QuantileSketch::new(0.01);
        let mut whole = QuantileSketch::new(0.01);
        for &v in lo {
            a.add(v);
        }
        let mut b = QuantileSketch::new(0.01);
        for &v in hi {
            b.add(v);
        }
        for &v in &values {
            whole.add(v);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        for q in [0.5, 0.9, 0.99] {
            prop_assert_eq!(a.quantile(q), whole.quantile(q), "q={}", q);
        }
    }

    #[test]
    fn add_n_equals_repeated_add(
        runs in prop::collection::vec((0u64..1_000_000_000_000, 0u64..40), 1..60),
        zeros in prop::collection::vec(0u64..5, 0..4),
    ) {
        // Runs of milli-unit values plus some runs bound for the zero
        // bucket (exact zero, negative, NaN).
        let mut stream: Vec<(f64, u64)> =
            runs.iter().map(|&(v, n)| (v as f64 * 0.001, n)).collect();
        for (i, &n) in zeros.iter().enumerate() {
            let v = [0.0, -1.5, f64::NAN, 1e-12][i % 4];
            stream.push((v, n));
        }
        let mut batched = QuantileSketch::default_latency();
        let mut single = QuantileSketch::default_latency();
        for &(v, n) in &stream {
            batched.add_n(v, n);
            for _ in 0..n {
                single.add(v);
            }
        }
        prop_assert_eq!(batched.count(), single.count());
        prop_assert_eq!(batched.zero_count(), single.zero_count());
        let (b, s) = (batched.p50_p90_p99(), single.p50_p90_p99());
        prop_assert_eq!(
            (b.0.to_bits(), b.1.to_bits(), b.2.to_bits()),
            (s.0.to_bits(), s.1.to_bits(), s.2.to_bits())
        );
        for q in [0.0, 0.25, 0.75, 1.0] {
            prop_assert_eq!(
                batched.quantile(q).map(f64::to_bits),
                single.quantile(q).map(f64::to_bits),
                "q={}", q
            );
        }
    }
}
