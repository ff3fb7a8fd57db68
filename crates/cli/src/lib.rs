//! # mcp-cli — the `mcp` command-line tool
//!
//! Generate, simulate, compare, and exactly solve multicore paging
//! instances from the shell:
//!
//! ```text
//! mcp gen zipf --cores 4 --n 2000 --universe 128 --out w.json
//! mcp simulate --trace w.json --k 32 --tau 4 --strategy lru --fairness
//! mcp compare  --trace w.json --k 32 --tau 4
//! mcp curves   --trace w.json --max-k 16
//! mcp partition --trace w.json --k 32 --policy opt
//! mcp opt --trace small.json --k 3 --tau 1 --schedule
//! mcp pif --trace small.json --k 3 --tau 1 --at 20 --bounds 4,5
//! ```
//!
//! The library half exposes [`dispatch`] plus the testable pieces
//! ([`args`], [`commands`]).

#![warn(missing_docs)]

pub mod args;
pub mod commands;

use args::Args;
use commands::CliError;

/// Usage text.
pub const USAGE: &str = "\
mcp — multicore paging toolkit (López-Ortiz & Salinger, SPAA'11)

usage: mcp <command> [options]

commands:
  gen <kind>   generate a workload (uniform|zipf|phased|cycles|graph|mixed)
                 --cores N --n N --seed S --out FILE [--text]
  simulate     run one strategy        --trace F --k K [--tau T]
                 [--strategy lru|fifo|clock|lfu|mru|fwf|lru2|rand|mark|
                  mark-rand|fitf|mimic|partition[:sizes]|partition-opt|
                  sacrifice[:core]] [--fairness] [--at T]
  compare      run a strategy matrix   --trace F --k K [--tau T]
                 [--strategies a,b,c]
  stats        workload profile        --trace F
  curves       per-core miss curves    --trace F [--max-k K] [--core N]
  partition    optimal static split    --trace F --k K [--policy lru|opt]
  opt          exact min faults (DP)   --trace F --k K [--tau T] [--schedule]
                 [--deadline DUR] [--checkpoint FILE]
  pif          fairness feasibility    --trace F --k K --at T --bounds a,b,…
                 [--deadline DUR] [--checkpoint FILE]
  fuzz         differential fuzz: event vs. online vs. naive reference
                 [--instances N] [--seed S] [--corpus DIR]
                 [--families a,b,…] [--profile mixed|large-tau|batch]
                 [--chaos] [--chaos-seed S];
                 divergences shrink to fixtures under DIR and exit 1;
                 --chaos arms a seeded fault plan (injected panics and
                 stalls) and retries each instance past injected faults —
                 only real divergences survive as quarantined failures
  chaos        crash-recovery torture: every byte-prefix truncation and
                 sampled bit flips of real checkpoints must fail typed,
                 resume at jobs 1/2/4 must match the reference
                 bit-for-bit, simulated write-crashes must never tear the
                 target, and a faulted save/load/resume chain must
                 recover [--instances N] [--seed S] [--bits N]
                 [--plan SEED[:W,R,T[,C[,STALL_MS]]]]; violations exit 1
  serve        streaming online service: per-core bounded queues
                 (cFCFS/dFCFS), live strategy, JSON metric snapshots on
                 stdout --cores P --k K [--tau T] [--strategy NAME]
                 [--discipline cfcfs|dfcfs] [--depth N] [--batch N]
                 [--snapshot-ms MS] [--replay-log FILE] [--quiet] and one
                 input mode: --seed S [--n N] [--universe U]
                 (deterministic self-driving stream; the replay log pipes
                 into `mcp simulate -` and reproduces the same faults) or
                 --listen unix:PATH|tcp:HOST:PORT (socket clients; SIGINT
                 drains, snapshots, writes the log, exits 0). Offline
                 strategies (fitf, mimic, partition-opt, sacrifice) are
                 rejected — their begin reads the future
  blast        load-generating client for serve
                 --connect unix:PATH|tcp:HOST:PORT [--cores P] [--n N]
                 [--seed S] [--universe U] [--batch B] [--no-close]
  tournament   strategy tournament on the batch runner: regret and
                 pairwise-dominance tables over a families × workloads
                 × K × τ grid
                 [--families a,b,…] [--workloads uniform|zipf|zipf-shared|
                  phased|drift|shared-hotset|staggered|bursty,…]
                 [--k 8,16] [--tau 0,4] [--cores N] [--n N] [--seeds N]
                 [--seed S] [--universe N] [--json] [--no-crosscheck]
                 [--deadline DUR]; a seeded sample of cells is re-run on
                 the per-run simulator and must match bit-for-bit

global options:
  --jobs N     worker threads for compare, curves and the exact solvers
               (default: MCP_JOBS or all hardware threads; results are
               identical for every N)

resource governance (opt, pif):
  --deadline DUR    stop at a wall-clock budget (30s, 500ms, 2m); a
                    truncated opt prints its anytime bracket
                    [lower_bound, incumbent] and exits 3
  --checkpoint FILE save the DP frontier on truncation (also on Ctrl-C)
                    and resume from FILE when re-run; removed on completion

Traces are JSON (.json) or the compact text format (anything else);
`--trace -` reads the text format from stdin.
The exact solvers (opt, pif) are exponential in K and p: keep instances small.
exit codes: 0 ok · 1 error · 2 bad arguments or malformed trace · 3 partial
";

/// Dispatch a parsed command line to its implementation.
pub fn dispatch(args: &Args) -> Result<String, CliError> {
    let jobs: usize = args.parse_or("jobs", 0usize)?;
    if jobs > 0 {
        mcp_exec::set_jobs(Some(jobs));
    }
    match args.command.as_deref() {
        None => Ok(USAGE.to_string()),
        Some("help") => Ok(USAGE.to_string()),
        Some("gen") => commands::gen::run(args),
        Some("simulate") => commands::simulate::run(args),
        Some("stats") => commands::stats::run(args),
        Some("compare") => commands::compare::run(args),
        Some("curves") => commands::curves::run(args),
        Some("partition") => commands::partition::run(args),
        Some("opt") => commands::opt::run(args),
        Some("pif") => commands::pif::run(args),
        Some("fuzz") => commands::fuzz::run(args),
        Some("chaos") => commands::chaos::run(args),
        Some("tournament") => commands::tournament::run(args),
        Some("serve") => commands::serve::run(args),
        Some("blast") => commands::blast::run(args),
        Some(other) => Err(CliError::Other(format!(
            "unknown command {other:?}; try `mcp help`"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_and_unknown_commands() {
        let none = Args::parse(std::iter::empty::<String>()).unwrap();
        assert!(dispatch(&none).unwrap().contains("usage: mcp"));
        let help = Args::parse(["help".to_string()]).unwrap();
        assert!(dispatch(&help).unwrap().contains("commands:"));
        let bad = Args::parse(["frobnicate".to_string()]).unwrap();
        assert!(dispatch(&bad).is_err());
    }
}
