//! Command-line entry point of the benchmark.
//!
//! ```text
//! mcp-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!               [--trace-out FILE]
//! ```
//!
//! Progress and diagnostics go to standard error; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. A traced run also writes its spans, metrics and
//! fingerprint to `--trace-out`. Exits 1 when any output check failed and
//! 2 on bad arguments.

use mcp_perfbench::{run_named, Options, WORKLOADS};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_out: Option<String>,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        traced: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(key) = it.next() {
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        let bad = |what: &str| format!("{key} {value:?}: expected {what}");
        match key.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("a number"))?,
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--trace-out" => args.trace_out = Some(value),
            _ => return Err(format!("unknown option {key}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload {:?}: expected one of {}",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mcp-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Every timed section runs on one thread.
    mcp_exec::set_jobs(Some(1));
    let opt = Options {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
    };
    let out = run_named(&args.workload, &opt).expect("workload name checked");

    let fingerprint: Vec<String> = out
        .fingerprint
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    let fingerprint = format!("{{{}}}", fingerprint.join(","));
    eprintln!(
        "fingerprint {} seed {}: {fingerprint}",
        args.workload, args.seed
    );
    for failure in &out.failures {
        eprintln!("CHECK FAILED: {failure}");
    }
    let metrics: Vec<String> = out
        .metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    let metrics = metrics.join(", ");
    if let Some(trace) = &out.trace {
        for (name, t) in trace.totals() {
            eprintln!(
                "span {name}: count {} total_ms {:.3} self_ms {:.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    if let (Some(path), Some(trace)) = (&args.trace_out, &out.trace) {
        let doc = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"metrics\":{{{metrics}}},\"fingerprint\":{fingerprint},\"trace\":{}}}\n",
            args.workload,
            args.seed,
            trace.to_json()
        );
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("mcp-perfbench: writing {path}: {e}");
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.correct, out.attempted, out.failed
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// A finite JSON number with every digit Rust prints for the value.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
