//! The run loop every workload shares: set-up, one untimed warm-up pass,
//! a timed loop of single-threaded passes with the set-up repeated between
//! them, output checks outside the timed sections, and (traced runs only)
//! a second timed loop with spans plus the workload's layer probes.

use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// Named model-time counts that must not depend on timing, tracing or
/// the host: identical passes at one seed give identical fingerprints.
pub type Fingerprint = Vec<(&'static str, u64)>;

/// Metrics of one run, in report order: `(name, value, unit)`.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Record (or overwrite) one metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|m| m.0 == name) {
            Some(m) => {
                m.1 = value;
                m.2 = unit;
            }
            None => self.0.push((name.to_string(), value, unit)),
        }
    }

    /// The value of metric `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// One workload of the benchmark.
pub trait Bench {
    /// Generated inputs (built once per set-up).
    type Input;
    /// Per-pass state built outside the timed section.
    type Ready;
    /// What one pass returns.
    type Output;

    /// Items one pass processes (requests, cells or exact queries).
    fn items(&self, input: &Self::Input) -> u64;
    /// Generate the inputs from `seed`.
    fn setup(&self, seed: u64, tr: &mut Tracer) -> Self::Input;
    /// Build the per-pass state (untimed, except on the first set-up).
    fn ready(&self, input: &Self::Input) -> Self::Ready;
    /// The timed chain of calls into the program.
    fn pass(&self, input: &Self::Input, ready: Self::Ready, tr: &mut Tracer) -> Self::Output;
    /// Median and 99th-percentile item latency of one pass, microseconds.
    fn latency_us(&self, out: &Self::Output) -> (f64, f64);
    /// Checks run after every pass: pushes a line per failed check and
    /// returns the failed operations, counting every line at least once.
    fn check(&self, input: &Self::Input, out: &Self::Output, failures: &mut Vec<String>) -> u64;
    /// Costlier checks, run once per run on the warm-up pass: a line per
    /// failed check, each counted as one failed operation.
    fn verify(&self, _input: &Self::Input, _out: &Self::Output, _failures: &mut Vec<String>) {}
    /// Model-time counts of one pass.
    fn fingerprint(&self, input: &Self::Input, out: &Self::Output) -> Fingerprint;
    /// Traced runs only: per-layer metrics from the traced passes (in
    /// `tr`) and from probes run outside the passes.
    fn layers(&self, input: &Self::Input, out: &Self::Output, tr: &mut Tracer, m: &mut Metrics);
}

/// How to run a workload.
#[derive(Clone, Debug)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Length of the measuring phase (split in two when traced).
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub traced: bool,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// No check failed.
    pub correct: bool,
    /// Items attempted over every pass, warm-up included.
    pub attempted: u64,
    /// Failed operations: failed items, and one per other failed check.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// The warm-up pass's fingerprint.
    pub fingerprint: Fingerprint,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Spans of a traced run.
    pub trace: Option<Tracer>,
}

/// Timings of one timed loop.
struct Loop {
    pass_s: Vec<f64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
}

impl Loop {
    fn throughput(&self, items: u64) -> f64 {
        items as f64 / best_quartile_mean(&self.pass_s)
    }
}

/// Run `bench` under `opt`.
pub fn run<B: Bench>(bench: &B, opt: &Options) -> Outcome {
    let host_start = host_ref_ms();
    let mut tr = Tracer::new(opt.traced);
    let mut failures = Vec::new();

    // Set-up: everything before the first timed call. The timed loops
    // repeat it between passes, so `setup_s`, the median over every
    // repetition, samples the whole run rather than its first moments.
    let mut setup_s = Vec::new();
    let set_up = |tr: &mut Tracer, setup_s: &mut Vec<f64>| {
        let t0 = Instant::now();
        let input = tr.span("bench.setup", |tr| bench.setup(opt.seed, tr));
        let ready = bench.ready(&input);
        setup_s.push(t0.elapsed().as_secs_f64());
        (input, ready)
    };
    let (input, ready) = set_up(&mut tr, &mut setup_s);
    let items = bench.items(&input);

    // Warm-up: untimed, untraced, fully checked.
    let mut off = Tracer::new(false);
    let warm = bench.pass(&input, ready, &mut off);
    let mut failed = bench.check(&input, &warm, &mut failures);
    let checked = failures.len();
    bench.verify(&input, &warm, &mut failures);
    failed += (failures.len() - checked) as u64;
    let fingerprint = bench.fingerprint(&input, &warm);
    let mut attempted = items;

    let mut timed = |tr: &mut Tracer, seconds: f64, failures: &mut Vec<String>| {
        let mut lp = Loop {
            pass_s: Vec::new(),
            p50_us: Vec::new(),
            p99_us: Vec::new(),
        };
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds.max(0.0));
        let mut setup_spent = 0.0;
        while lp.pass_s.len() < MIN_PASSES || Instant::now() < deadline {
            while setup_s.len() < SETUP_REPS
                || setup_spent < SETUP_SHARE * start.elapsed().as_secs_f64()
            {
                let t0 = Instant::now();
                drop(set_up(tr, &mut setup_s));
                setup_spent += t0.elapsed().as_secs_f64();
            }
            let ready = bench.ready(&input);
            let t0 = Instant::now();
            let out = tr.span("bench.pass", |tr| bench.pass(&input, ready, tr));
            lp.pass_s.push(t0.elapsed().as_secs_f64());
            let (p50, p99) = bench.latency_us(&out);
            lp.p50_us.push(p50);
            lp.p99_us.push(p99);
            failed += bench.check(&input, &out, failures);
            if bench.fingerprint(&input, &out) != fingerprint {
                failed += 1;
                failures.push(format!("pass {} fingerprint differs", lp.pass_s.len()));
            }
            attempted += items;
        }
        lp
    };

    let mut metrics = Metrics::default();
    if opt.traced {
        let plain = timed(&mut off, opt.seconds / 2.0, &mut failures);
        let traced = timed(&mut tr, opt.seconds / 2.0, &mut failures);
        let (plain_tp, traced_tp) = (plain.throughput(items), traced.throughput(items));
        metrics.set("host.ref_ms.start", host_start, "ms");
        metrics.set(
            "workloads.gen_ms",
            median(&tr.durations_ns("workloads.gen")) / 1e6,
            "ms",
        );
        metrics.set(
            "bench.trace_overhead_pct",
            100.0 * (plain_tp - traced_tp) / plain_tp,
            "%",
        );
        metrics.set(
            "bench.pass.self_ms",
            median(&tr.self_ns("bench.pass")) / 1e6,
            "ms",
        );
        bench.layers(&input, &warm, &mut tr, &mut metrics);
        for (name, value) in &fingerprint {
            metrics.set(name, *value as f64, "count");
        }
        metrics.set("host.ref_ms.end", host_ref_ms(), "ms");
    } else {
        let lp = timed(&mut off, opt.seconds, &mut failures);
        let rates: Vec<f64> = lp.pass_s.iter().map(|s| items as f64 / s).collect();
        eprintln!(
            "passes {} throughput p10 {:.6e} p50 {:.6e} p90 {:.6e}",
            rates.len(),
            quantile(&rates, 0.1),
            quantile(&rates, 0.5),
            quantile(&rates, 0.9)
        );
        metrics.set("throughput", lp.throughput(items), "1/s");
        metrics.set("latency_p50_us", best_quartile_mean(&lp.p50_us), "us");
        metrics.set("latency_p99_us", best_quartile_mean(&lp.p99_us), "us");
        metrics.set("setup_s", median(&setup_s), "s");
        metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
        eprintln!("host.ref_ms start={host_start:.3} end={:.3}", host_ref_ms());
    }
    drop(warm);
    if opt.traced {
        metrics.set("fail_ratio", failed as f64 / attempted as f64, "ratio");
    }
    Outcome {
        correct: failures.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        fingerprint,
        failures,
        trace: opt.traced.then_some(tr),
    }
}

/// Set-up runs at least `SETUP_REPS` times, and before each timed pass it
/// repeats until it has taken `SETUP_SHARE` of the timed loop so far.
const SETUP_REPS: usize = 5;
const SETUP_SHARE: f64 = 0.1;
/// Least number of timed passes per timed loop, whatever `seconds` says.
const MIN_PASSES: usize = 5;

/// Median (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Mean of the lowest quarter of the values (at least one): the
/// pass-level estimator of every timing. The host's slow phases and
/// stalls only ever add time, so the fastest quarter of a run's passes is
/// the steadiest reading of the code's own speed; averaging a quarter
/// rather than taking the minimum also smooths the bucket edges of the
/// server's latency sketch.
pub fn best_quartile_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let best = &v[..v.len().div_ceil(4)];
    best.iter().sum::<f64>() / best.len() as f64
}

/// Linearly interpolated quantile `q` in `[0, 1]` (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Time `reps` runs of `f` and return the median, in nanoseconds.
pub fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&times)
}

/// Peak resident set size of this process (VmHWM), in MB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host sentinel: median time of a fixed integer kernel that never
/// calls the program, in milliseconds. It shows host slow phases beside
/// the metrics; no metric is divided by it.
pub fn host_ref_ms() -> f64 {
    let mut table = vec![0u64; 1 << 13];
    median_ns(5, || {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..2_000_000u64 {
            x = splitmix64(x ^ i);
            let slot = (x as usize) & (table.len() - 1);
            table[slot] = table[slot].wrapping_add(x);
        }
        std::hint::black_box(&table);
    }) / 1e6
}

/// The SplitMix64 finalizer.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a stream of words: the input and output hashes of the
/// fingerprints.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mix one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0], 0.99), 1.99);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(best_quartile_mean(&[100.0, 2.0, 3.0, 1.0, 5.0]), 1.5);
        assert_eq!(best_quartile_mean(&[]), 0.0);
    }

    /// A workload of one item whose every pass fails one check and whose
    /// warm-up also fails `verify`.
    struct Failing;

    impl Bench for Failing {
        type Input = ();
        type Ready = ();
        type Output = ();
        fn items(&self, _: &()) -> u64 {
            1
        }
        fn setup(&self, _: u64, _: &mut Tracer) {}
        fn ready(&self, _: &()) {}
        fn pass(&self, _: &(), _: (), _: &mut Tracer) {}
        fn latency_us(&self, _: &()) -> (f64, f64) {
            (1.0, 1.0)
        }
        fn check(&self, _: &(), _: &(), failures: &mut Vec<String>) -> u64 {
            failures.push("check".into());
            1
        }
        fn verify(&self, _: &(), _: &(), failures: &mut Vec<String>) {
            failures.push("verify".into());
        }
        fn fingerprint(&self, _: &(), _: &()) -> Fingerprint {
            Vec::new()
        }
        fn layers(&self, _: &(), _: &(), _: &mut Tracer, _: &mut Metrics) {}
    }

    #[test]
    fn each_failed_check_counts_once() {
        let opt = Options {
            seed: 0,
            seconds: 0.0,
            traced: false,
        };
        let out = run(&Failing, &opt);
        assert!(!out.correct);
        // The warm-up's check and verify, then one check per timed pass.
        assert_eq!(out.failed, 2 + MIN_PASSES as u64);
        assert_eq!(out.failed, out.failures.len() as u64);
        assert_eq!(out.attempted, 1 + MIN_PASSES as u64);
    }
}
