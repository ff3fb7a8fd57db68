//! `mcp pif` — decide PARTIAL-INDIVIDUAL-FAULTS (Algorithm 2).
//!
//! ```text
//! mcp pif --trace w.json --k 3 --tau 1 --at 20 --bounds 4,5
//!         [--deadline DUR] [--checkpoint FILE] [--stats] [--json]
//! ```
//!
//! With `--deadline`, a run that exceeds the budget exits 3 reporting how
//! many timesteps were decided; with `--checkpoint FILE` the live layer
//! is also saved there, and re-running the same command resumes from the
//! snapshot (the file is removed on completion). `--stats` prints DP
//! engine statistics (peak live states, vector expansions, peak arena
//! bytes, dedup-table load factor, states/sec) to stderr on the decision
//! path; `--json` makes that line machine-readable. A trace whose cores
//! share a page also gets a one-line warning on stderr: the DP's answer
//! may not hold on the engine there.

use super::{budget_from, emit_stats, load_instance, warn_if_shared, CliError};
use crate::args::Args;
use mcp_offline::{
    pif_decide_governed_with_stats, pif_decide_with_stats, pif_witness, PifCheckpoint, PifOptions,
    PifOutcome,
};

/// Run `mcp pif`.
pub fn run(args: &Args) -> Result<String, CliError> {
    let (workload, cfg) = load_instance(args)?;
    warn_if_shared(&workload);
    let checkpoint: u64 = args.parse_required("at")?;
    let bounds = args
        .parse_list("bounds")?
        .ok_or_else(|| CliError::Other("missing required option --bounds a,b,…".into()))?;
    if bounds.len() != workload.num_cores() {
        return Err(CliError::Other(format!(
            "--bounds has {} entries for {} cores",
            bounds.len(),
            workload.num_cores()
        )));
    }
    let honest_only = args
        .get("transitions")
        .map(|t| t == "honest")
        .unwrap_or(false);
    let max_expansions: usize = args.parse_or("max-expansions", 20_000_000usize)?;
    let opts = PifOptions {
        full_transitions: !honest_only,
        max_expansions,
        ..Default::default()
    };
    let mut out;
    if args.flag("schedule") {
        let witness = pif_witness(&workload, cfg, checkpoint, &bounds, opts)
            .map_err(|e| CliError::Other(format!("{e} (the DP is exponential in K and p)")))?;
        match witness {
            None => {
                out = format!(
                    "PIF(t = {checkpoint}, b = {bounds:?}): infeasible — no schedule exists\n"
                );
            }
            Some(schedule) => {
                out =
                    format!("PIF(t = {checkpoint}, b = {bounds:?}): FEASIBLE; witness schedule:\n");
                let mut decisions: Vec<_> = schedule.decisions.into_iter().collect();
                decisions.sort_by_key(|((core, idx), _)| (*core, *idx));
                for ((core, idx), decision) in decisions {
                    out.push_str(&format!("  core {core} request #{idx}: {decision:?}\n"));
                }
            }
        }
    } else {
        let too_large = |e: mcp_offline::DpError| {
            CliError::Other(format!("{e} (the DP is exponential in K and p)"))
        };
        let want_stats = args.flag("stats") || args.flag("json");
        let checkpoint_path = args.get("checkpoint").map(std::path::PathBuf::from);
        let feasible = if args.get("deadline").is_some() || checkpoint_path.is_some() {
            let budget = budget_from(args)?.with_max_states(opts.max_expansions);
            // Recovery policy: a corrupt or stale resume file warns and
            // starts fresh instead of erroring out (DESIGN §13).
            let resume: Option<PifCheckpoint> = match &checkpoint_path {
                Some(p) => {
                    let expected =
                        mcp_offline::pif_fingerprint(&workload, cfg, checkpoint, &bounds, &opts)
                            .map_err(too_large)?;
                    super::load_resume(p, expected, PifCheckpoint::load, |ck| ck.fingerprint)?
                }
                None => None,
            };
            let resumed = resume.is_some();
            let t0 = std::time::Instant::now();
            let (outcome, stats) = pif_decide_governed_with_stats(
                &workload,
                cfg,
                checkpoint,
                &bounds,
                opts,
                &budget,
                resume.as_ref(),
            )
            .map_err(too_large)?;
            if want_stats {
                emit_stats("pif", &stats, t0.elapsed(), args.flag("json"));
            }
            match outcome {
                PifOutcome::Decided(ans) => {
                    if resumed {
                        if let Some(p) = &checkpoint_path {
                            std::fs::remove_file(p).ok();
                        }
                    }
                    ans
                }
                PifOutcome::Truncated(t) => {
                    let mut msg = format!(
                        "pif truncated ({:?}) after serving {} of {checkpoint} timesteps \
                         ({} live states); feasibility still open",
                        t.reason, t.t_done, t.live_states
                    );
                    match &checkpoint_path {
                        Some(p) => {
                            t.checkpoint
                                .save(p)
                                .map_err(|e| CliError::Other(format!("saving checkpoint: {e}")))?;
                            msg.push_str(&format!(
                                "; checkpoint saved to {} (re-run the same command to resume)",
                                p.display()
                            ));
                        }
                        None => msg.push_str("; pass --checkpoint FILE to make the run resumable"),
                    }
                    return Err(CliError::Partial(msg));
                }
            }
        } else {
            let t0 = std::time::Instant::now();
            let (ans, stats) = pif_decide_with_stats(&workload, cfg, checkpoint, &bounds, opts)
                .map_err(too_large)?;
            if want_stats {
                emit_stats("pif", &stats, t0.elapsed(), args.flag("json"));
            }
            ans
        };
        out = format!(
            "PIF(t = {checkpoint}, b = {bounds:?}) on p = {}, K = {}, tau = {}: {}\n",
            workload.num_cores(),
            cfg.cache_size,
            cfg.tau,
            if feasible { "FEASIBLE" } else { "infeasible" }
        );
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
            .join(format!("mcp_cli_pif_{}_{test}.json", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let w = Workload::from_u32([vec![1, 2, 1, 2], vec![9, 8, 9, 8]]).unwrap();
        mcp_workloads::save_json(&w, std::path::Path::new(&path)).unwrap();
        path
    }

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn decides_both_ways() {
        let path = setup("decides_both_ways");
        let yes = run(&parse(&format!(
            "pif --trace {path} --k 3 --tau 1 --at 30 --bounds 8,8"
        )))
        .unwrap();
        assert!(yes.contains("FEASIBLE"));
        let no = run(&parse(&format!(
            "pif --trace {path} --k 3 --tau 1 --at 30 --bounds 0,0"
        )))
        .unwrap();
        assert!(no.contains("infeasible"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn witness_schedule_is_printed() {
        let path = setup("witness_schedule_is_printed");
        let out = run(&parse(&format!(
            "pif --trace {path} --k 3 --tau 1 --at 30 --bounds 8,8 --schedule"
        )))
        .unwrap();
        assert!(out.contains("witness schedule"));
        assert!(out.contains("core 0 request #0"));
        let no = run(&parse(&format!(
            "pif --trace {path} --k 3 --tau 1 --at 30 --bounds 0,0 --schedule"
        )))
        .unwrap();
        assert!(no.contains("no schedule exists"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_flags_do_not_disturb_the_decision() {
        let path = setup("stats_flags_do_not_disturb_the_decision");
        let plain = run(&parse(&format!(
            "pif --trace {path} --k 3 --tau 1 --at 30 --bounds 8,8"
        )))
        .unwrap();
        let with_stats = run(&parse(&format!(
            "pif --trace {path} --k 3 --tau 1 --at 30 --bounds 8,8 --stats --json"
        )))
        .unwrap();
        assert_eq!(with_stats, plain);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validates_bounds_arity() {
        let path = setup("validates_bounds_arity");
        let err = run(&parse(&format!(
            "pif --trace {path} --k 3 --at 10 --bounds 1,2,3"
        )))
        .unwrap_err()
        .to_string();
        assert!(err.contains("3 entries for 2 cores"));
        std::fs::remove_file(&path).ok();
    }
}
