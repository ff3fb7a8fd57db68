//! The repository's benchmark: four workloads, each a single-threaded
//! chain of calls into the program's public functions, timed from here.
//!
//! * `serve-sparse` — `mcp serve` burst-drain on staggered-thrash traffic
//!   over 256 cores with τ = 300: the online engine's per-step scans
//!   dominate.
//! * `serve-dense` — `mcp serve` burst-drain on hit-heavy shared-Zipf
//!   traffic over 4 cores: decoding, admission, cFCFS dispatch and
//!   latency bookkeeping dominate.
//! * `tournament` — all 15 strategy families on a 480-cell grid through
//!   the batch engine, its cross-check and the report. No serve code runs.
//! * `offline-dp` — one exact FTF solve and two PIF decisions with pinned
//!   answers: the only workload that exercises the DP layer.
//!
//! An untraced run reports the end-to-end metrics ([`END_TO_END`]); a
//! traced run repeats the passes inside spans and adds layer probes, and
//! reports the per-layer metrics ([`PER_LAYER`]). A per-layer metric of a
//! layer the workload never calls reads 0.

pub mod harness;
pub mod offline;
pub mod serve;
pub mod tournament;
pub mod trace;

pub use harness::{run, Options, Outcome};

/// Workload names, in report order.
pub const WORKLOADS: &[&str] = &["serve-sparse", "serve-dense", "tournament", "offline-dp"];

/// End-to-end metrics of an untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.ref_ms.start", "ms"),
    ("host.ref_ms.end", "ms"),
    ("workloads.gen_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.pass.self_ms", "ms"),
    ("fail_ratio", "ratio"),
    ("core.faults", "count"),
    ("core.makespan", "count"),
    ("serve.served", "count"),
    ("serve.connection_ns_per_req", "ns"),
    ("serve.transport.decode_ns_per_req", "ns"),
    ("serve.queue.admit_ns_per_req", "ns"),
    ("serve.queue.dropped", "count"),
    ("serve.server.run_ns_per_req", "ns"),
    ("serve.server.driver_self_ns_per_req", "ns"),
    ("core.online.advance_ns_per_req", "ns"),
    ("core.sim.simulate_ns_per_req", "ns"),
    ("serve.live_rps.depth256", "1/s"),
    ("serve.live_rps.depth4096", "1/s"),
    ("batch.cells", "count"),
    ("batch.inapplicable", "count"),
    ("batch.quarantined", "count"),
    ("batch.run_cells_ms", "ms"),
    ("batch.dense_cells_per_s", "1/s"),
    ("batch.fallback_cells_per_s", "1/s"),
    ("batch.reference_cells_per_s", "1/s"),
    ("batch.crosscheck_ms", "ms"),
    ("analysis.report_ms", "ms"),
    ("offline.ftf_dp.solve_ms", "ms"),
    ("offline.ftf_dp.states", "count"),
    ("offline.ftf_dp.expansions", "count"),
    ("offline.ftf_dp.states_per_s", "1/s"),
    ("offline.ftf_dp.peak_arena_mb", "MB"),
    ("offline.pif_dp.solve_ms", "ms"),
    ("offline.pif_dp.states", "count"),
    ("offline.pif_dp.expansions", "count"),
    ("offline.pif_dp.expansions_per_s", "1/s"),
    ("offline.pif_dp.peak_arena_mb", "MB"),
];

/// Run workload `name`; `None` for an unknown name. The metrics come back
/// in the order of [`END_TO_END`] or [`PER_LAYER`], every one present.
pub fn run_named(name: &str, opt: &Options) -> Option<Outcome> {
    let mut out = match name {
        "serve-sparse" => run(&serve::ServeBench::sparse(), opt),
        "serve-dense" => run(&serve::ServeBench::dense(), opt),
        "tournament" => run(&tournament::TournamentBench::grid(), opt),
        "offline-dp" => run(&offline::OfflineBench, opt),
        _ => return None,
    };
    let names = if opt.traced { PER_LAYER } else { END_TO_END };
    out.metrics = harness::Metrics(
        names
            .iter()
            .map(|&(metric, unit)| {
                (
                    metric.to_string(),
                    out.metrics.get(metric).unwrap_or(0.0),
                    unit,
                )
            })
            .collect(),
    );
    Some(out)
}
