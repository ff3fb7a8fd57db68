//! `mcp simulate` — run one strategy on a trace.
//!
//! ```text
//! mcp simulate --trace w.json --k 32 --tau 4 --strategy lru
//!              [--capacity K0[,K@T]…] [--fairness] [--at T]
//! ```
//!
//! `--capacity` runs the strategy under a dynamic capacity schedule
//! `K(t)`; the schedule's initial capacity must equal `--k`. `--trace -`
//! reads the compact text format from stdin, so `mcp serve` replay logs
//! pipe straight in.

use super::{build_strategy, capacity_from, load_instance, CliError};
use crate::args::Args;
use mcp_analysis::fairness;
use mcp_analysis::report::Table;

/// Run `mcp simulate`.
pub fn run(args: &Args) -> Result<String, CliError> {
    let (workload, cfg) = load_instance(args)?;
    let capacity = capacity_from(args, cfg.cache_size)?;
    let spec = args.get("strategy").unwrap_or("lru");
    let mut strategy = build_strategy(spec, &workload, cfg)?;
    // Prime the strategy so its display name is fully resolved (begin is
    // idempotent and will run again inside the simulator).
    mcp_core::CacheStrategy::begin(&mut strategy, &workload, &cfg);
    let name = strategy.name();
    let result = match &capacity {
        Some(schedule) => {
            mcp_core::simulate_with_capacity(&workload, cfg, schedule.clone(), strategy)
        }
        None => mcp_core::simulate(&workload, cfg, strategy),
    }
    .map_err(|e| CliError::Other(e.to_string()))?;

    let mut out = String::new();
    out.push_str(&format!(
        "{name} on p = {}, n = {}, K = {}, tau = {}{}\n\n",
        workload.num_cores(),
        workload.total_len(),
        cfg.cache_size,
        cfg.tau,
        match &capacity {
            Some(schedule) => format!(", K(t) = {schedule}"),
            None => String::new(),
        }
    ));
    let mut table = Table::new(
        "per-core results",
        &[
            "core",
            "requests",
            "faults",
            "hits",
            "fault rate",
            "completion",
        ],
    );
    for core in 0..workload.num_cores() {
        let n = workload.len(core);
        table.row(vec![
            core.to_string(),
            n.to_string(),
            result.faults[core].to_string(),
            result.hits[core].to_string(),
            if n == 0 {
                "-".into()
            } else {
                format!("{:.1}%", 100.0 * result.faults[core] as f64 / n as f64)
            },
            fairness::core_completion(&result, core).to_string(),
        ]);
    }
    out.push_str(&table.to_text());
    out.push_str(&format!(
        "\ntotal: {} faults / {} requests ({:.1}%), makespan {}\n",
        result.total_faults(),
        workload.total_len(),
        100.0 * result.total_faults() as f64 / workload.total_len().max(1) as f64,
        result.makespan
    ));

    if let Some(t) = args.get("at") {
        let t: u64 = t
            .parse()
            .map_err(|_| CliError::Other(format!("bad --at {t:?}")))?;
        out.push_str(&format!(
            "fault vector at t = {t}: {:?}\n",
            result.fault_vector_at(t)
        ));
    }
    if args.flag("fairness") {
        let s = fairness::summarize(&result);
        out.push_str(&format!(
            "fairness: slowdowns {:?}, Jain {:.3}, spread {:.2}\n",
            s.slowdowns
                .iter()
                .map(|v| (v * 100.0).round() / 100.0)
                .collect::<Vec<_>>(),
            s.jain_slowdown,
            s.spread
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;
    use mcp_core::Workload;

    /// A trace file private to the calling test: tests run in parallel
    /// threads of one process, and each removes its file when done.
    fn setup(test: &str) -> String {
        let path = std::env::temp_dir()
            .join(format!("mcp_cli_sim_{}_{test}.json", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let w = Workload::from_u32([vec![1, 2, 3, 1, 2, 3], vec![9, 9, 9, 9, 9, 9]]).unwrap();
        mcp_workloads::save_json(&w, std::path::Path::new(&path)).unwrap();
        path
    }

    #[test]
    fn simulates_with_fairness_and_checkpoint() {
        let path = setup("simulates_with_fairness_and_checkpoint");
        let a = Args::parse(
            format!("simulate --trace {path} --k 4 --tau 2 --strategy lru --fairness --at 5")
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let out = run(&a).unwrap();
        assert!(out.contains("S_LRU"));
        assert!(out.contains("fault vector at t = 5"));
        assert!(out.contains("Jain"));
        assert!(out.contains("makespan"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn capacity_schedule_changes_the_fault_count() {
        let path = setup("capacity_schedule_changes_the_fault_count");
        let base = format!("simulate --trace {path} --k 4 --strategy lru");
        let fixed = run(&Args::parse(base.split_whitespace().map(String::from)).unwrap()).unwrap();
        let dropped = run(&Args::parse(
            format!("{base} --capacity 4,2@3")
                .split_whitespace()
                .map(String::from),
        )
        .unwrap())
        .unwrap();
        assert!(dropped.contains("K(t) = 4,2@3"), "{dropped}");
        assert!(!fixed.contains("K(t)"), "{fixed}");
        // The drop below the combined working set must cost faults.
        let faults = |out: &str| -> u64 {
            let tail = out.split("total: ").nth(1).unwrap();
            tail.split_whitespace().next().unwrap().parse().unwrap()
        };
        assert!(faults(&dropped) > faults(&fixed), "{dropped}\n{fixed}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_capacity_is_an_argument_error() {
        let path = setup("malformed_capacity_is_an_argument_error");
        for spec in ["nope", "4,2@", "8,2@3"] {
            let a = Args::parse(
                format!("simulate --trace {path} --k 4 --capacity {spec}")
                    .split_whitespace()
                    .map(String::from),
            )
            .unwrap();
            match run(&a) {
                Err(CliError::Args(_)) => {}
                other => panic!("--capacity {spec} should be an argument error, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_trace_is_an_error() {
        let a = Args::parse(
            "simulate --trace /nonexistent.json --k 4"
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        assert!(run(&a).is_err());
    }
}
