//! # mcp-chaos — deterministic fault injection for the paging toolkit
//!
//! Every long-running computation in this workspace — governed DP sweeps,
//! checkpoint save/resume chains, tournament grids — leans on disk IO and
//! the worker pool. This crate adversarially exercises those seams with
//! *seeded, reproducible* faults so that recovery is a tested policy, not
//! luck (DESIGN §13).
//!
//! ## Model
//!
//! A [`FaultPlan`] is armed process-wide ([`arm`]/[`disarm`]). Injection
//! sites call [`write_fault`], [`read_fault`] or [`task_fault`] with a
//! `(site, index, attempt)` coordinate; the decision is a pure splitmix64
//! hash of the plan seed and that coordinate — exactly the
//! `mcp_exec::derive_seed` discipline — so a fault fires at the same
//! logical operation regardless of worker count, interleaving, or wall
//! clock. When no plan is armed every probe is a single relaxed atomic
//! load returning `None` (zero-cost in production).
//!
//! ## The bounded-adversary guarantee
//!
//! Faults only fire while `attempt < max_consecutive`. Retry loops that
//! allow more attempts than that (e.g. [`io::MAX_IO_ATTEMPTS`], the
//! exec-layer task quarantine) are therefore *guaranteed to make
//! progress* under any default plan: an injected fault is transient by
//! construction, while a real, repeated failure exhausts its attempts
//! and surfaces as a typed error. Torture plans for tests may set
//! `max_consecutive` high enough to defeat every retry and prove the
//! typed-error path.

pub mod io;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock};
use std::time::Duration;

/// Prefix of every panic message raised by [`task_point`]; lets harnesses
/// distinguish injected panics from genuine ones.
pub const INJECTED_PANIC_PREFIX: &str = "mcp-chaos injected panic";

/// A seeded, process-wide fault-injection plan. Rates are per-mille
/// (1000 = always); the same plan produces the same fault sequence at
/// every `--jobs` level because decisions are keyed on logical
/// `(site, index, attempt)` coordinates, never on threads or time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Master seed; every site decision derives from it via splitmix64.
    pub seed: u64,
    /// Per-mille chance a write attempt faults (torn write, ENOSPC,
    /// rename failure — picked by a second hash draw).
    pub write_per_mille: u16,
    /// Per-mille chance a read attempt faults (short read, bit flip,
    /// transient error).
    pub read_per_mille: u16,
    /// Per-mille chance a task attempt faults (panic or stall).
    pub task_per_mille: u16,
    /// Faults only fire on attempts `0..max_consecutive`; later retries
    /// of the same operation run clean. This is the bounded-adversary
    /// knob that guarantees retry loops terminate successfully.
    pub max_consecutive: u32,
    /// Upper bound on an injected stall, in milliseconds.
    pub max_stall_ms: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            write_per_mille: 250,
            read_per_mille: 150,
            task_per_mille: 100,
            max_consecutive: 2,
            max_stall_ms: 4,
        }
    }
}

impl FaultPlan {
    /// The default plan under a different seed.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// A plan whose write faults defeat every retry (rate 1000, unbounded
    /// consecutive faults): [`io::atomic_write`] always fails, proving
    /// the crash-mid-write atomicity contract. Reads and tasks run clean.
    pub fn write_crash(seed: u64) -> Self {
        FaultPlan {
            seed,
            write_per_mille: 1000,
            read_per_mille: 0,
            task_per_mille: 0,
            max_consecutive: u32::MAX,
            max_stall_ms: 0,
        }
    }

    /// Parse a plan spec: `SEED[:W,R,T[,C[,STALL_MS]]]` with decimal or
    /// `0x`-prefixed seed (the `MCP_CHAOS` env format and the
    /// `mcp chaos --plan` format).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let bad = |what: &str| format!("bad fault plan {spec:?}: {what}");
        let (seed_text, rest) = match spec.split_once(':') {
            None => (spec, None),
            Some((s, r)) => (s, Some(r)),
        };
        let seed = parse_u64(seed_text).ok_or_else(|| bad("seed must be an integer"))?;
        let mut plan = FaultPlan::seeded(seed);
        if let Some(rest) = rest {
            let parts: Vec<&str> = rest.split(',').collect();
            if parts.len() < 3 || parts.len() > 5 {
                return Err(bad("expected W,R,T[,C[,STALL_MS]] after the colon"));
            }
            let mille = |text: &str, what: &str| -> Result<u16, String> {
                match parse_u64(text) {
                    Some(v) if v <= 1000 => Ok(v as u16),
                    _ => Err(bad(&format!("{what} must be a per-mille rate (0..=1000)"))),
                }
            };
            plan.write_per_mille = mille(parts[0], "write rate")?;
            plan.read_per_mille = mille(parts[1], "read rate")?;
            plan.task_per_mille = mille(parts[2], "task rate")?;
            if let Some(c) = parts.get(3) {
                plan.max_consecutive = parse_u64(c)
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(|| bad("max consecutive must be an integer"))?;
            }
            if let Some(ms) = parts.get(4) {
                plan.max_stall_ms =
                    parse_u64(ms).ok_or_else(|| bad("stall ms must be an integer"))?;
            }
        }
        Ok(plan)
    }
}

fn parse_u64(text: &str) -> Option<u64> {
    let cleaned: String = text.chars().filter(|&c| c != '_').collect();
    if let Some(hex) = cleaned
        .strip_prefix("0x")
        .or_else(|| cleaned.strip_prefix("0X"))
    {
        u64::from_str_radix(hex, 16).ok()
    } else {
        cleaned.parse().ok()
    }
}

/// A write-attempt fault, decided by [`write_fault`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteFault {
    /// Simulated crash mid-write: only `keep_per_256/256` of the bytes
    /// reach the temp file before the "crash".
    Torn { keep_per_256: u8 },
    /// The write fails up front (disk full).
    Enospc,
    /// The payload lands in the temp file but the publishing rename fails.
    RenameFail,
}

/// A read-attempt fault, decided by [`read_fault`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadFault {
    /// The read returns only a `keep_per_256/256` prefix of the file.
    Short { keep_per_256: u8 },
    /// One bit of the returned buffer flips (position derived from
    /// `salt`); the downstream checksum must catch it.
    BitFlip { salt: u64 },
    /// The read itself errors (transient EIO); retryable.
    Transient,
}

/// A task-attempt fault, decided by [`task_fault`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskFault {
    /// Panic with an [`INJECTED_PANIC_PREFIX`] message.
    Panic,
    /// Sleep for the given duration (trips tight deadlines).
    Stall(Duration),
}

// ---------------------------------------------------------------------------
// Process-wide arming

static ARMED: AtomicBool = AtomicBool::new(false);
static PLAN: RwLock<Option<FaultPlan>> = RwLock::new(None);
/// Serializes armed sections across threads of one process: tests and the
/// torture harness hold this (via [`arm_scoped`]) so concurrent tests
/// never observe each other's plans.
static ARM_LOCK: Mutex<()> = Mutex::new(());

/// Is any fault plan armed? Single relaxed atomic load — the fast path
/// every injection probe takes first.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Arm `plan` process-wide. Prefer [`arm_scoped`] in tests.
pub fn arm(plan: FaultPlan) {
    *PLAN.write().unwrap_or_else(|e| e.into_inner()) = Some(plan);
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarm: every probe returns `None` again.
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
    *PLAN.write().unwrap_or_else(|e| e.into_inner()) = None;
}

/// The currently armed plan, if any.
pub fn current_plan() -> Option<FaultPlan> {
    if !armed() {
        return None;
    }
    *PLAN.read().unwrap_or_else(|e| e.into_inner())
}

/// RAII guard from [`arm_scoped`]: disarms on drop and holds the global
/// arm lock for its lifetime.
pub struct ArmGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for ArmGuard {
    fn drop(&mut self) {
        disarm();
    }
}

/// Arm `plan` for a lexical scope: takes the global arm lock (so
/// concurrently running tests serialize instead of cross-contaminating),
/// arms, and disarms when the guard drops.
pub fn arm_scoped(plan: FaultPlan) -> ArmGuard {
    let lock = ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    arm(plan);
    ArmGuard { _lock: lock }
}

/// RAII guard from [`disarmed_scoped`]: holds the global arm lock for its
/// lifetime, so no [`arm_scoped`] plan can be armed while it lives.
pub struct DisarmedGuard {
    _lock: MutexGuard<'static, ()>,
}

/// Hold "no plan armed" for a lexical scope: takes the same global arm
/// lock as [`arm_scoped`] and disarms. Tests that rely on running
/// unfaulted take this guard, so a concurrently running test's armed plan
/// waits for them instead of leaking into them.
pub fn disarmed_scoped() -> DisarmedGuard {
    let lock = ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    disarm();
    DisarmedGuard { _lock: lock }
}

/// Arm from the `MCP_CHAOS` environment variable (format:
/// [`FaultPlan::parse`]) if it is set and valid. Returns the armed plan.
/// Binaries call this at startup so end-to-end tests can inject faults
/// into a spawned process.
pub fn arm_from_env() -> Option<FaultPlan> {
    let spec = std::env::var("MCP_CHAOS").ok()?;
    match FaultPlan::parse(&spec) {
        Ok(plan) => {
            arm(plan);
            Some(plan)
        }
        Err(e) => {
            eprintln!("warning: ignoring MCP_CHAOS: {e}");
            None
        }
    }
}

// ---------------------------------------------------------------------------
// Decisions

/// splitmix64 — the same finalizer `mcp_exec::derive_seed` uses.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over arbitrary bytes; names injection sites.
pub fn site_hash(site: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in site.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The pure decision hash for one `(class, site, index, attempt)`
/// coordinate under `plan`. Distinct classes (write/read/task) draw from
/// independent streams.
fn decision(plan: &FaultPlan, class: u64, site: &str, index: u64, attempt: u32) -> u64 {
    splitmix64(
        plan.seed
            ^ site_hash(site).rotate_left(17)
            ^ (index.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (attempt as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)
            ^ class.wrapping_mul(0xA076_1D64_78BD_642F),
    )
}

fn fires(h: u64, per_mille: u16, attempt: u32, plan: &FaultPlan) -> bool {
    attempt < plan.max_consecutive && h % 1000 < per_mille as u64
}

/// Should the `attempt`-th try of write operation `index` at `site`
/// fault, and how? `None` when disarmed or the draw misses.
pub fn write_fault(site: &str, index: u64, attempt: u32) -> Option<WriteFault> {
    let plan = current_plan()?;
    let h = decision(&plan, 1, site, index, attempt);
    if !fires(h, plan.write_per_mille, attempt, &plan) {
        return None;
    }
    Some(match (h >> 10) % 3 {
        0 => WriteFault::Torn {
            keep_per_256: (h >> 32) as u8,
        },
        1 => WriteFault::Enospc,
        _ => WriteFault::RenameFail,
    })
}

/// Should the `attempt`-th try of read operation `index` at `site` fault,
/// and how?
pub fn read_fault(site: &str, index: u64, attempt: u32) -> Option<ReadFault> {
    let plan = current_plan()?;
    let h = decision(&plan, 2, site, index, attempt);
    if !fires(h, plan.read_per_mille, attempt, &plan) {
        return None;
    }
    Some(match (h >> 10) % 3 {
        0 => ReadFault::Short {
            keep_per_256: (h >> 32) as u8,
        },
        1 => ReadFault::BitFlip { salt: h >> 20 },
        _ => ReadFault::Transient,
    })
}

/// Should the `attempt`-th try of task `index` at `site` fault, and how?
pub fn task_fault(site: &str, index: u64, attempt: u32) -> Option<TaskFault> {
    let plan = current_plan()?;
    let h = decision(&plan, 3, site, index, attempt);
    if !fires(h, plan.task_per_mille, attempt, &plan) {
        return None;
    }
    Some(match (h >> 10) % 2 {
        0 => TaskFault::Panic,
        _ => TaskFault::Stall(Duration::from_millis(
            1 + (h >> 32) % plan.max_stall_ms.max(1),
        )),
    })
}

/// Execute a task-site probe: no-op when disarmed; panics (with
/// [`INJECTED_PANIC_PREFIX`]) or stalls when the plan says so. Retry
/// layers pass the attempt number so injected faults clear after
/// `max_consecutive` attempts.
#[inline]
pub fn task_point(site: &str, index: u64, attempt: u32) {
    if !armed() {
        return;
    }
    match task_fault(site, index, attempt) {
        None => {}
        Some(TaskFault::Stall(d)) => std::thread::sleep(d),
        Some(TaskFault::Panic) => {
            panic!("{INJECTED_PANIC_PREFIX}: site={site} index={index} attempt={attempt}")
        }
    }
}

/// Is `message` (a caught panic payload) an injected panic?
pub fn is_injected_panic(message: &str) -> bool {
    message.starts_with(INJECTED_PANIC_PREFIX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_probes_are_none() {
        let _guard = disarmed_scoped();
        assert!(!armed());
        assert!(write_fault("t", 0, 0).is_none());
        assert!(read_fault("t", 0, 0).is_none());
        assert!(task_fault("t", 0, 0).is_none());
        task_point("t", 0, 0); // must be a no-op, not a panic
    }

    #[test]
    fn decisions_are_deterministic_and_site_scoped() {
        let _guard = arm_scoped(FaultPlan::seeded(0xC5A0));
        let probe = |site: &str| {
            (0..200u64)
                .map(|i| write_fault(site, i, 0))
                .collect::<Vec<_>>()
        };
        assert_eq!(probe("a"), probe("a"), "same coordinates, same faults");
        assert_ne!(probe("a"), probe("b"), "sites draw independent streams");
        let hits = probe("a").iter().filter(|f| f.is_some()).count();
        // 250‰ over 200 draws: loose 3-sigma-ish band, deterministic anyway.
        assert!((20..=80).contains(&hits), "hit rate off: {hits}/200");
    }

    #[test]
    fn faults_stop_after_max_consecutive_attempts() {
        let plan = FaultPlan {
            write_per_mille: 1000,
            read_per_mille: 1000,
            task_per_mille: 1000,
            max_consecutive: 2,
            ..FaultPlan::seeded(7)
        };
        let _guard = arm_scoped(plan);
        for i in 0..50 {
            assert!(write_fault("s", i, 0).is_some());
            assert!(write_fault("s", i, 1).is_some());
            assert!(write_fault("s", i, 2).is_none(), "attempt 2 must run clean");
            assert!(read_fault("s", i, 2).is_none());
            assert!(task_fault("s", i, 2).is_none());
        }
    }

    #[test]
    fn injected_panics_carry_the_prefix() {
        let plan = FaultPlan {
            task_per_mille: 1000,
            max_stall_ms: 0, // degenerate stalls still 1ms; find a panic draw
            ..FaultPlan::seeded(3)
        };
        let _guard = arm_scoped(plan);
        let idx = (0..500u64)
            .find(|&i| matches!(task_fault("panic-site", i, 0), Some(TaskFault::Panic)))
            .expect("some draw panics");
        let err = std::panic::catch_unwind(|| task_point("panic-site", idx, 0)).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(is_injected_panic(&msg), "{msg}");
    }

    #[test]
    fn plan_specs_parse() {
        assert_eq!(FaultPlan::parse("7").unwrap(), FaultPlan::seeded(7));
        assert_eq!(
            FaultPlan::parse("0xC5:1000,0,0,9,12").unwrap(),
            FaultPlan {
                seed: 0xC5,
                write_per_mille: 1000,
                read_per_mille: 0,
                task_per_mille: 0,
                max_consecutive: 9,
                max_stall_ms: 12,
            }
        );
        assert!(FaultPlan::parse("nope").is_err());
        assert!(FaultPlan::parse("1:2").is_err());
        assert!(FaultPlan::parse("1:2000,0,0").is_err(), "rate > 1000");
    }
}
