//! Subcommand implementations. Each command is a pure function from
//! parsed [`crate::args::Args`] values to their stdout text, so the whole
//! surface is unit-testable without spawning processes.

pub mod blast;
pub mod chaos;
pub mod compare;
pub mod curves;
pub mod fuzz;
pub mod gen;
pub mod opt;
pub mod partition;
pub mod pif;
pub mod serve;
pub mod simulate;
pub mod stats;
pub mod tournament;

use crate::args::{ArgError, Args};
use mcp_core::{CacheStrategy, SimConfig, Workload};
use std::fmt;
use std::path::Path;

/// Errors any subcommand can raise.
#[derive(Debug)]
pub enum CliError {
    /// Argument parsing/validation failure.
    Args(ArgError),
    /// A malformed trace file (typed parse error, never a panic).
    Trace(String),
    /// I/O failure reading or writing traces.
    Io(std::io::Error),
    /// A governed run tripped its budget: the message carries the anytime
    /// result and where the checkpoint was saved. Exit code 3.
    Partial(String),
    /// Anything else, with a message for the user.
    Other(String),
}

impl CliError {
    /// The process exit code for this error: 2 for user input problems
    /// (bad arguments, malformed traces), 3 for budget-truncated partial
    /// runs, 1 for everything else.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Args(_) | CliError::Trace(_) => 2,
            CliError::Partial(_) => 3,
            CliError::Io(_) | CliError::Other(_) => 1,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Trace(m) => write!(f, "{m}"),
            CliError::Io(e) => write!(f, "{e}"),
            CliError::Partial(m) => write!(f, "{m}"),
            CliError::Other(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Load a workload trace: `.json` via serde, anything else as the compact
/// text format, and `-` as text from stdin (so `mcp serve` replay logs
/// pipe straight into `mcp simulate -`). Malformed input surfaces as
/// [`CliError::Trace`] (exit 2); only genuine I/O failures (missing file,
/// permissions) are [`CliError::Io`]. Neither parser panics on corrupt
/// bytes.
pub fn load_trace(path: &str) -> Result<Workload, CliError> {
    if path == "-" {
        let stdin = std::io::stdin();
        return mcp_workloads::read_text(stdin.lock()).map_err(|e| match e {
            mcp_workloads::TextError::Io(io) => CliError::Io(io),
            parse => CliError::Trace(format!("malformed trace on stdin: {parse}")),
        });
    }
    let p = Path::new(path);
    if p.extension().map(|e| e == "json").unwrap_or(false) {
        mcp_workloads::load_json(p).map_err(|e| {
            if e.kind() == std::io::ErrorKind::InvalidData {
                CliError::Trace(format!("malformed trace {path}: {e}"))
            } else {
                CliError::Io(e)
            }
        })
    } else {
        let file = std::fs::File::open(p)?;
        mcp_workloads::read_text(std::io::BufReader::new(file)).map_err(|e| match e {
            mcp_workloads::TextError::Io(io) => CliError::Io(io),
            parse => CliError::Trace(format!("malformed trace {path}: {parse}")),
        })
    }
}

/// Parse `--capacity SPEC` (`K0[,K@T]…`, e.g. `8,4@100,8@200`) into a
/// dynamic capacity schedule. `None` when the option is absent; malformed
/// specs and schedules whose initial capacity disagrees with `--k` are
/// argument errors (exit 2).
pub fn capacity_from(
    args: &Args,
    cache_size: usize,
) -> Result<Option<mcp_core::CapacitySchedule>, CliError> {
    let Some(spec) = args.get("capacity") else {
        return Ok(None);
    };
    let bad = |expected: &'static str| {
        CliError::Args(ArgError::BadValue {
            key: "capacity".to_string(),
            value: spec.to_string(),
            expected,
        })
    };
    let schedule: mcp_core::CapacitySchedule = spec
        .parse()
        .map_err(|_| bad("a schedule like 8 or 8,4@100,8@200 (K0[,K@T]...)"))?;
    if schedule.initial_k() != cache_size {
        return Err(bad("a schedule whose initial capacity equals --k"));
    }
    Ok(Some(schedule))
}

/// Parse `--deadline DUR` (e.g. `30s`, `500ms`, `2m`) into a [`mcp_core::Budget`];
/// Ctrl-C cancellation is always honoured by governed runs.
pub fn budget_from(args: &Args) -> Result<mcp_core::Budget, CliError> {
    let mut budget = mcp_core::Budget::unlimited().with_global_cancel();
    if let Some(spec) = args.get("deadline") {
        let d = mcp_core::budget::parse_duration(spec).map_err(|_| {
            CliError::Args(ArgError::BadValue {
                key: "deadline".to_string(),
                value: spec.to_string(),
                expected: "a duration like 30s, 500ms, 2m",
            })
        })?;
        budget = budget.with_deadline(d);
    }
    Ok(budget)
}

/// Print DP engine statistics (`--stats`) to stderr, keeping stdout
/// clean for the command's result. `--json` swaps the human-readable
/// line for a single machine-readable JSON object. The throughput field
/// is 0 when the elapsed time is too small to measure.
pub fn emit_stats(
    algo: &str,
    stats: &mcp_offline::DpStats,
    elapsed: std::time::Duration,
    json: bool,
) {
    let secs = elapsed.as_secs_f64();
    let rate = if secs > 0.0 {
        stats.states as f64 / secs
    } else {
        0.0
    };
    if json {
        eprintln!(
            "{{\"algo\":\"{algo}\",\"states\":{},\"expansions\":{},\"peak_arena_bytes\":{},\
             \"dedup_load_factor\":{:.4},\"elapsed_sec\":{:.6},\"states_per_sec\":{:.1}}}",
            stats.states,
            stats.expansions,
            stats.peak_arena_bytes,
            stats.dedup_load_factor,
            secs,
            rate
        );
    } else {
        eprintln!(
            "[stats] {algo}: {} states, {} expansions, peak arena {} bytes, \
             dedup load {:.2}, {:.0} states/sec",
            stats.states, stats.expansions, stats.peak_arena_bytes, stats.dedup_load_factor, rate
        );
    }
}

/// Read `--trace`, `--k`, `--tau` into a ready instance.
pub fn load_instance(args: &Args) -> Result<(Workload, SimConfig), CliError> {
    let trace = args.require("trace")?;
    let workload = load_trace(trace)?;
    let k: usize = args.parse_required("k")?;
    let tau: u64 = args.parse_or("tau", 0u64)?;
    let cfg = SimConfig::new(k, tau);
    cfg.validate(&workload)
        .map_err(|e| CliError::Other(e.to_string()))?;
    Ok((workload, cfg))
}

/// Load a `--checkpoint` resume file under the recovery policy
/// (DESIGN §13): a missing file starts fresh; a corrupt snapshot or one
/// whose fingerprint does not match `expected` (stale: different trace,
/// config, or options) degrades to a stderr warning and a fresh start —
/// the unusable file is removed so the next save can replace it; only
/// genuine I/O errors abort. `fingerprint_of` extracts the snapshot's
/// stored fingerprint so the staleness check happens here, before the
/// solver would fail deep inside resume.
pub fn load_resume<T>(
    path: &Path,
    expected: u64,
    load: impl FnOnce(&Path) -> Result<T, mcp_offline::CheckpointError>,
    fingerprint_of: impl FnOnce(&T) -> u64,
) -> Result<Option<T>, CliError> {
    use mcp_offline::CheckpointError as CE;
    if !path.exists() {
        return Ok(None);
    }
    let degrade = |why: String| {
        eprintln!(
            "warning: ignoring checkpoint {}: {why}; restarting from scratch",
            path.display()
        );
        let _ = std::fs::remove_file(path);
        Ok(None)
    };
    match load(path) {
        Ok(ck) => {
            let found = fingerprint_of(&ck);
            if found != expected {
                return degrade(CE::Mismatch { expected, found }.to_string());
            }
            Ok(Some(ck))
        }
        Err(CE::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(CE::Io(e)) => Err(CliError::Io(e)),
        Err(e) => degrade(e.to_string()),
    }
}

/// Build a strategy by name. Partition strategies take sizes after a
/// colon, e.g. `partition:4,2,2`; `partition:equal` splits evenly.
pub fn build_strategy(
    spec: &str,
    workload: &Workload,
    cfg: SimConfig,
) -> Result<Box<dyn CacheStrategy>, CliError> {
    use mcp_policies::*;
    let p = workload.num_cores();
    let make_partition = |tail: &str| -> Result<Partition, CliError> {
        if tail.is_empty() || tail == "equal" {
            return Ok(Partition::equal(cfg.cache_size, p));
        }
        let sizes = tail
            .split(',')
            .map(|t| t.trim().parse::<usize>())
            .collect::<Result<Vec<_>, _>>()
            .map_err(|_| CliError::Other(format!("bad partition sizes {tail:?}")))?;
        let part = Partition::from_sizes(sizes);
        part.validate(cfg.cache_size, p)
            .map_err(|e| CliError::Other(e.to_string()))?;
        Ok(part)
    };
    let (head, tail) = spec.split_once(':').unwrap_or((spec, ""));
    Ok(match head {
        "lru" => Box::new(shared_lru()),
        "fifo" => Box::new(shared_fifo()),
        "clock" => Box::new(Shared::new(Clock::new())),
        "lfu" => Box::new(Shared::new(Lfu::new())),
        "mru" => Box::new(Shared::new(Mru::new())),
        "fwf" => Box::new(Shared::new(Fwf::new())),
        "lru2" => Box::new(Shared::new(LruK::new(2))),
        "rand" => Box::new(Shared::new(RandomEvict::new(tail.parse().unwrap_or(0)))),
        "mark" => Box::new(Shared::new(Marking::new(MarkingTie::Lru))),
        "mark-rand" => Box::new(Shared::new(Marking::new(MarkingTie::Random(
            tail.parse().unwrap_or(0),
        )))),
        "fitf" => Box::new(SharedFitf::new()),
        "mimic" => Box::new(LruMimicPartition::new()),
        "partition" => Box::new(static_partition_lru(make_partition(tail)?)),
        "partition-opt" => Box::new(static_partition_belady(make_partition(tail)?)),
        "sacrifice" => {
            let core: usize = tail.parse().unwrap_or(p - 1);
            if core >= p {
                return Err(CliError::Other(format!(
                    "sacrifice core {core} out of range"
                )));
            }
            Box::new(SacrificeOffline::new(core))
        }
        other => {
            return Err(CliError::Other(format!(
                "unknown strategy {other:?}; try lru, fifo, clock, lfu, mru, fwf, lru2, rand, \
                 mark, mark-rand, fitf, mimic, partition[:sizes], partition-opt[:sizes], \
                 sacrifice[:core]"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wl() -> Workload {
        Workload::from_u32([vec![1, 2, 1], vec![7, 8, 7]]).unwrap()
    }

    #[test]
    fn strategies_resolve_by_name() {
        let w = wl();
        let cfg = SimConfig::new(4, 1);
        for spec in [
            "lru",
            "fifo",
            "clock",
            "lfu",
            "mru",
            "fwf",
            "lru2",
            "rand",
            "rand:7",
            "mark",
            "mark-rand:3",
            "fitf",
            "mimic",
            "partition",
            "partition:2,2",
            "partition-opt",
            "sacrifice",
            "sacrifice:0",
        ] {
            let s = build_strategy(spec, &w, cfg);
            assert!(
                s.is_ok(),
                "{spec} failed: {:?}",
                s.err().map(|e| e.to_string())
            );
        }
        assert!(build_strategy("nope", &w, cfg).is_err());
        assert!(build_strategy("partition:9,9", &w, cfg).is_err());
        assert!(build_strategy("sacrifice:5", &w, cfg).is_err());
    }

    #[test]
    fn strategies_actually_run() {
        let w = wl();
        let cfg = SimConfig::new(4, 1);
        for spec in ["lru", "partition:2,2", "mimic", "fitf"] {
            let s = build_strategy(spec, &w, cfg).unwrap();
            let r = mcp_core::simulate(&w, cfg, s).unwrap();
            assert_eq!(r.total_faults() + r.total_hits(), 6);
        }
    }
}
