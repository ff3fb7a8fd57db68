//! In-memory spans recorded by the benchmark around its own calls into
//! each layer. Nothing inside the program is instrumented: a span covers
//! one call (or one loop of calls) into a layer's public function, and a
//! layer's self time is its span minus the spans nested inside it.
//!
//! A disabled tracer runs the wrapped closure and records nothing, so the
//! untraced and traced passes execute the same calls.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.server.run`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Aggregate of every span sharing one name.
#[derive(Clone, Debug, Default)]
pub struct SpanTotals {
    /// Number of spans.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans.
    pub self_ns: u64,
}

/// A span recorder; spans stay in memory until [`Tracer::to_json`].
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recording (`on`) or pass-through tracer.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Durations (ns) of every span named `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Per span, its duration minus the durations of its direct children.
    fn self_times(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Self times (ns) of every span named `name`, in recording order.
    pub fn self_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.name == name)
            .map(|(_, own)| own as f64)
            .collect()
    }

    /// Per-name totals, sorted by name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += own;
        }
        out
    }

    /// Every span and the per-name totals as one JSON document.
    pub fn to_json(&self) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                    s.name,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        let totals: Vec<String> = self
            .totals()
            .iter()
            .map(|(name, t)| {
                format!(
                    "\"{name}\":{{\"count\":{},\"total_ms\":{},\"self_ms\":{}}}",
                    t.count,
                    t.total_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6
                )
            })
            .collect();
        format!(
            "{{\"totals\":{{{}}},\"spans\":[{}]}}",
            totals.join(","),
            spans.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        tr.span("outer", |tr| {
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let t = tr.totals();
        assert_eq!(t["outer"].count, 1);
        assert!(t["outer"].total_ns >= t["inner"].total_ns);
        assert_eq!(
            t["outer"].self_ns,
            t["outer"].total_ns - t["inner"].total_ns
        );
        assert_eq!(tr.self_ns("inner"), tr.durations_ns("inner"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", |_| 7), 7);
        assert!(tr.totals().is_empty());
    }
}
