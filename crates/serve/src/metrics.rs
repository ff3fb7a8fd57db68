//! Live metrics snapshots: one JSON object per line on the metrics
//! stream, cheap enough to emit every few hundred milliseconds at
//! millions of requests per second.
//!
//! Latency percentiles come from the α = 1% [`QuantileSketch`]
//! (`mcp_analysis::stats`) over nanoseconds between a request's
//! admission into a ring and its service by the engine; fairness is
//! Jain's index over the model's per-core slowdowns, reusing
//! `mcp_analysis::fairness` on the engine's live counters.

use mcp_analysis::stats::QuantileSketch;

/// A point-in-time metrics snapshot.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Monotonic snapshot counter (the final snapshot has the largest).
    pub seq: u64,
    /// Wall-clock milliseconds since the server started.
    pub uptime_ms: u64,
    /// Queue discipline name (`cfcfs` / `dfcfs`).
    pub discipline: String,
    /// Strategy name as reported by [`mcp_core::CacheStrategy::name`].
    pub strategy: String,
    /// Requests presented at the admission boundary.
    pub offered: u64,
    /// Requests offered and not dropped (`offered - dropped`): admitted
    /// into a ring, or still being pushed from a frame in flight.
    pub admitted: u64,
    /// Requests dropped at the boundary (full queue, unroutable core,
    /// closed stream). `offered == admitted + dropped` always.
    pub dropped: u64,
    /// Admitted requests refused by the engine (arrived after their
    /// core's close marker — only possible with racing clients).
    pub rejected_late: u64,
    /// Requests served by the engine.
    pub served: u64,
    /// Admitted but not yet served (in rings or awaiting the commit
    /// horizon).
    pub backlog: u64,
    /// Per-core fault counts so far.
    pub faults: Vec<u64>,
    /// Total faults so far.
    pub total_faults: u64,
    /// Total hits so far.
    pub total_hits: u64,
    /// Model-time completion of the last served request.
    pub makespan: u64,
    /// Admission-to-service latency percentiles, nanoseconds.
    pub latency_ns: (f64, f64, f64),
    /// Jain's fairness index over per-core slowdowns (1 = perfectly
    /// fair).
    pub jain_slowdown: f64,
}

impl Snapshot {
    /// Render as one line of JSON (no trailing newline).
    pub fn to_json(&self) -> String {
        let faults = self
            .faults
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let (p50, p90, p99) = self.latency_ns;
        format!(
            "{{\"seq\":{},\"uptime_ms\":{},\"discipline\":\"{}\",\"strategy\":\"{}\",\
             \"offered\":{},\"admitted\":{},\"dropped\":{},\"rejected_late\":{},\
             \"served\":{},\"backlog\":{},\"faults\":[{}],\"total_faults\":{},\
             \"total_hits\":{},\"makespan\":{},\"latency_ns\":{{\"p50\":{:.0},\
             \"p90\":{:.0},\"p99\":{:.0}}},\"jain_slowdown\":{:.4}}}",
            self.seq,
            self.uptime_ms,
            self.discipline,
            json_escape(&self.strategy),
            self.offered,
            self.admitted,
            self.dropped,
            self.rejected_late,
            self.served,
            self.backlog,
            faults,
            self.total_faults,
            self.total_hits,
            self.makespan,
            p50,
            p90,
            p99,
            self.jain_slowdown,
        )
    }
}

/// Escape a string for embedding in a JSON literal (strategy names only
/// ever need the quote/backslash cases, but be complete for controls).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The standard latency triple from a sketch (zeros when empty).
pub fn latency_triple(sketch: &QuantileSketch) -> (f64, f64, f64) {
    sketch.p50_p90_p99()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_renders_single_line_json() {
        let s = Snapshot {
            seq: 3,
            uptime_ms: 1500,
            discipline: "dfcfs".into(),
            strategy: "S_LRU".into(),
            offered: 100,
            admitted: 90,
            dropped: 10,
            rejected_late: 0,
            served: 80,
            backlog: 10,
            faults: vec![5, 7],
            total_faults: 12,
            total_hits: 68,
            makespan: 421,
            latency_ns: (1000.0, 2000.0, 9000.0),
            jain_slowdown: 0.98765,
        };
        let json = s.to_json();
        assert!(!json.contains('\n'));
        assert!(json.contains("\"offered\":100"));
        assert!(json.contains("\"faults\":[5,7]"));
        assert!(json.contains("\"p99\":9000"));
        assert!(json.contains("\"jain_slowdown\":0.9877"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn strategy_names_are_escaped() {
        assert_eq!(json_escape("sP[2,2]_LRU"), "sP[2,2]_LRU");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\u000ay");
    }
}
