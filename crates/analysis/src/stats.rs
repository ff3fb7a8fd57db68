//! Small statistics helpers for the experiment reports: growth-rate fits
//! and summary aggregates — plus the streaming [`QuantileSketch`] behind
//! the serve layer's latency percentiles and the tournament fault-spread
//! table.

use std::collections::BTreeMap;

/// Arithmetic mean. Empty input yields `NaN`.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Geometric mean of positive values. Empty input yields `NaN`.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Least-squares slope of `y` against `x`.
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return f64::NAN;
    }
    let mx = points.iter().map(|(x, _)| x).sum::<f64>() / n;
    let my = points.iter().map(|(_, y)| y).sum::<f64>() / n;
    let sxy: f64 = points.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = points.iter().map(|(x, _)| (x - mx) * (x - mx)).sum();
    sxy / sxx
}

/// Fitted exponent `e` of a power law `y ≈ c·x^e`, from the slope of the
/// log-log regression. Requires strictly positive data.
pub fn growth_exponent(points: &[(f64, f64)]) -> f64 {
    let logged: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    slope(&logged)
}

/// `true` if `ys` grows at least linearly in `xs` (fitted exponent ≥
/// `0.9`), the check used for the paper's `Ω(n)` separations.
pub fn grows_linearly(points: &[(f64, f64)]) -> bool {
    growth_exponent(points) >= 0.9
}

/// Format a float with sensible precision for tables.
pub fn fmt(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// A streaming quantile sketch with a provable *relative*-error bound
/// (the DDSketch construction): values are counted in logarithmic
/// buckets `(γ^(i-1), γ^i]` with `γ = (1+α)/(1-α)`, so any reported
/// quantile `v̂` satisfies `|v̂ - v| ≤ α·v` for the true rank item `v`.
///
/// Memory is `O(log(max/min)/α)` buckets regardless of stream length;
/// storage is a `BTreeMap` so iteration order — and therefore every
/// reported value — is deterministic. Values `≤ 1e-9` (and non-finite
/// inputs) collapse into an exact zero bucket. Built for the serve
/// layer's latency percentiles (p50/p90/p99 over nanoseconds) but
/// generic over any nonnegative measure.
#[derive(Clone, Debug)]
pub struct QuantileSketch {
    alpha: f64,
    ln_gamma: f64,
    buckets: BTreeMap<i32, u64>,
    zero: u64,
    count: u64,
}

impl QuantileSketch {
    /// Values at or below this threshold land in the exact zero bucket.
    const MIN_TRACKED: f64 = 1e-9;

    /// A sketch with relative-error bound `alpha` (`0 < alpha < 1`).
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "alpha must be in (0, 1), got {alpha}"
        );
        QuantileSketch {
            alpha,
            ln_gamma: ((1.0 + alpha) / (1.0 - alpha)).ln(),
            buckets: BTreeMap::new(),
            zero: 0,
            count: 0,
        }
    }

    /// The default sketch for latency metrics: α = 1% relative error.
    pub fn default_latency() -> Self {
        QuantileSketch::new(0.01)
    }

    /// The configured relative-error bound α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Record one observation. Non-finite and `≤ 1e-9` values count in
    /// the exact zero bucket.
    pub fn add(&mut self, v: f64) {
        self.add_n(v, 1);
    }

    /// Record `n` observations of the same value `v` — the same multiset
    /// as `n` calls of [`QuantileSketch::add`], for one `ln` and one
    /// bucket update. `n = 0` records nothing.
    pub fn add_n(&mut self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        self.count += n;
        if !v.is_finite() || v <= Self::MIN_TRACKED {
            self.zero += n;
            return;
        }
        let i = (v.ln() / self.ln_gamma).ceil() as i32;
        *self.buckets.entry(i).or_insert(0) += n;
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Observations recorded in the exact zero bucket (non-finite and
    /// `≤ 1e-9` values).
    pub fn zero_count(&self) -> u64 {
        self.zero
    }

    /// `true` iff nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Fold `other` into `self`. Both sketches must share the same α.
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert!(
            (self.alpha - other.alpha).abs() < f64::EPSILON,
            "cannot merge sketches with different alphas ({} vs {})",
            self.alpha,
            other.alpha
        );
        self.zero += other.zero;
        self.count += other.count;
        for (&i, &c) in &other.buckets {
            *self.buckets.entry(i).or_insert(0) += c;
        }
    }

    /// The `q`-quantile estimate (`0 ≤ q ≤ 1`), i.e. an α-relative
    /// approximation of the item at rank `⌊q·(n-1)⌋` of the sorted
    /// stream. `None` on an empty sketch or out-of-range `q`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = (q * (self.count - 1) as f64).floor() as u64 + 1;
        if rank <= self.zero {
            return Some(0.0);
        }
        let mut cum = self.zero;
        for (&i, &c) in &self.buckets {
            cum += c;
            if cum >= rank {
                let gamma = self.ln_gamma.exp();
                return Some((self.ln_gamma * i as f64).exp() * 2.0 / (1.0 + gamma));
            }
        }
        None // unreachable: cum totals self.count >= rank
    }

    /// The standard latency triple `(p50, p90, p99)`; zeros when empty.
    pub fn p50_p90_p99(&self) -> (f64, f64, f64) {
        (
            self.quantile(0.50).unwrap_or(0.0),
            self.quantile(0.90).unwrap_or(0.0),
            self.quantile(0.99).unwrap_or(0.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn slope_of_line() {
        let pts: Vec<(f64, f64)> = (1..10).map(|i| (i as f64, 3.0 * i as f64 + 1.0)).collect();
        assert!((slope(&pts) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn exponent_of_square() {
        let pts: Vec<(f64, f64)> = (1..20).map(|i| (i as f64, (i * i) as f64)).collect();
        assert!((growth_exponent(&pts) - 2.0).abs() < 1e-6);
        assert!(grows_linearly(&pts));
    }

    #[test]
    fn constant_does_not_grow() {
        let pts: Vec<(f64, f64)> = (1..20).map(|i| (i as f64, 7.0)).collect();
        assert!(!grows_linearly(&pts));
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(1234.5), "1234"); // ties round to even
        assert_eq!(fmt(3.17459), "3.17");
        assert_eq!(fmt(0.01234), "0.0123");
    }

    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        sorted[(q * (sorted.len() - 1) as f64).floor() as usize]
    }

    #[test]
    fn sketch_brackets_exact_quantiles() {
        let mut sk = QuantileSketch::new(0.01);
        let mut vals: Vec<f64> = (1..=10_000).map(|i| (i as f64) * 0.37).collect();
        for &v in &vals {
            sk.add(v);
        }
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let exact = exact_quantile(&vals, q);
            let est = sk.quantile(q).unwrap();
            assert!(
                (est - exact).abs() <= 0.01 * exact + 1e-9,
                "q={q}: est {est} vs exact {exact}"
            );
        }
        assert_eq!(sk.count(), 10_000);
    }

    #[test]
    fn sketch_zero_and_empty_behaviour() {
        let sk = QuantileSketch::default_latency();
        assert!(sk.is_empty());
        assert_eq!(sk.quantile(0.5), None);
        assert_eq!(sk.p50_p90_p99(), (0.0, 0.0, 0.0));
        let mut sk = QuantileSketch::new(0.05);
        sk.add(0.0);
        sk.add(-3.0);
        sk.add(f64::NAN);
        sk.add(100.0);
        assert_eq!(sk.quantile(0.0), Some(0.0));
        // Ranks ⌊q(n-1)⌋+1 ≤ 3 sit in the zero bucket; only q = 1 reaches
        // the single positive observation.
        assert_eq!(sk.quantile(0.99), Some(0.0));
        let top = sk.quantile(1.0).unwrap();
        assert!((top - 100.0).abs() <= 0.05 * 100.0, "{top}");
        assert!(sk.quantile(1.5).is_none());
    }

    #[test]
    fn sketch_merge_equals_single_stream() {
        let mut a = QuantileSketch::new(0.02);
        let mut b = QuantileSketch::new(0.02);
        let mut whole = QuantileSketch::new(0.02);
        for i in 1..=500 {
            let v = (i * i) as f64;
            if i % 2 == 0 {
                a.add(v);
            } else {
                b.add(v);
            }
            whole.add(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), whole.quantile(q), "merge must be lossless");
        }
    }

    #[test]
    #[should_panic(expected = "different alphas")]
    fn sketch_merge_rejects_alpha_mismatch() {
        let mut a = QuantileSketch::new(0.01);
        a.merge(&QuantileSketch::new(0.02));
    }
}
