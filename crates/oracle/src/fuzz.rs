//! The seeded differential fuzz harness: random instances from
//! `mcp-workloads`, event vs. online vs. naive over every strategy family
//! — the event engine ([`mcp_core::Simulator`]) against the naive
//! tick-by-tick reference with full `StepReport`-trace equality, and, for
//! every family safe to run online, the incremental
//! [`mcp_core::OnlineSimulator`] fed under a seeded arrival interleaving
//! and held to committing only prefixes of the reference run — plus
//! metamorphic invariants from the paper's lemmas and exhaustive-oracle
//! cross-checks of the offline dynamic programs — all on
//! `mcp_exec::par_try_map`, so a diverging instance panics inside the
//! pool's containment while the rest of the batch finishes.
//!
//! Everything is derived from one master seed with
//! [`mcp_exec::derive_seed`], so a run is reproducible bit-for-bit at any
//! `--jobs` level and any single instance can be re-run in isolation.

use crate::exhaustive::{
    oracle_min_faults, oracle_min_faults_with_capacity, oracle_pif_feasible,
    oracle_sched_min_faults,
};
use crate::instance::{build_family, family_applicable, Fixture, Instance, FAMILIES};
use crate::reference::reference_simulate_traced;
use mcp_core::{
    simulate, simulate_with_capacity, CacheStrategy, CapacitySchedule, OnlineSimulator, SimConfig,
    SimError, SimResult, Simulator, StepReport, Time, Workload,
};
use mcp_exec::{derive_seed, Pool};
use mcp_offline::{
    ftf_min_faults, lru_faults, pif_decide, sched_min, DpError, Objective, PifOptions,
};
use mcp_policies::{shared_lru, static_partition_lru, LruMimicPartition, Partition, OFFLINE_ONLY};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;

/// Node cap for the exhaustive offline oracles; a cross-check whose search
/// outgrows this is silently skipped (the instance was too large, not
/// wrong).
const ORACLE_NODE_CAP: usize = 2_000_000;

/// Instance-shape profile for the generator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FuzzProfile {
    /// Round-robin over every workload shape, τ mixed across dense
    /// (0–3), mid (4–16), and large (64–256) tiers.
    #[default]
    Mixed,
    /// Sparse/bursty shapes only, τ always from the large tier — pins the
    /// event engine's idle-skip path, where most timesteps serve nothing.
    LargeTau,
    /// The [`Mixed`](FuzzProfile::Mixed) shape mix, additionally diffing
    /// the pooled `mcp-batch` runner (its registry, seed and `K(t)`
    /// plumbing) against a direct event-engine run.
    Batch,
    /// The [`Mixed`](FuzzProfile::Mixed) shape mix with a seeded dynamic
    /// capacity schedule `K(t)` attached to every instance — drops,
    /// spikes, dips and staircases with change times scaled to the
    /// workload's horizon — pinning the shrink-eviction paths of the
    /// event, online and reference engines against each other.
    Capacity,
}

impl FuzzProfile {
    /// Parse a CLI spelling (`mixed` | `large-tau` | `batch` | `capacity`).
    pub fn parse(s: &str) -> Option<FuzzProfile> {
        match s {
            "mixed" => Some(FuzzProfile::Mixed),
            "large-tau" => Some(FuzzProfile::LargeTau),
            "batch" => Some(FuzzProfile::Batch),
            "capacity" => Some(FuzzProfile::Capacity),
            _ => None,
        }
    }
}

/// Configuration of one fuzz run.
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// Number of random instances to generate.
    pub instances: usize,
    /// Master seed; every instance seed derives from it.
    pub seed: u64,
    /// Where divergence fixtures are written.
    pub corpus_dir: PathBuf,
    /// Strategy families to compare (defaults to [`FAMILIES`]).
    pub families: Vec<String>,
    /// Instance-shape profile (defaults to [`FuzzProfile::Mixed`]).
    pub profile: FuzzProfile,
    /// Run under the chaos retry policy: each instance gets
    /// [`FUZZ_CHAOS_ATTEMPTS`] tries, so faults injected by an armed
    /// [`mcp_chaos::FaultPlan`] (bounded `max_consecutive`) always clear,
    /// while real divergences fail every attempt and surface as
    /// quarantined divergences. With no plan armed this is byte-identical
    /// to the plain path.
    pub chaos: bool,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            instances: 64,
            seed: 0,
            corpus_dir: PathBuf::from("tests/corpus"),
            families: FAMILIES.iter().map(|s| s.to_string()).collect(),
            profile: FuzzProfile::default(),
            chaos: false,
        }
    }
}

/// Per-instance attempt budget under `--chaos`: strictly above the
/// default fault plan's `max_consecutive`, so injected faults are always
/// retried past and only deterministic failures are quarantined.
pub const FUZZ_CHAOS_ATTEMPTS: u32 = 4;

/// One contained divergence (or crash) from a fuzz run.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Index of the diverging instance.
    pub index: usize,
    /// The panic message: names the family and the fixture file, and
    /// carries the shrunk instance inline.
    pub message: String,
}

/// Aggregated outcome of [`run_fuzz`].
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Instances that ran to completion without diverging.
    pub passed: usize,
    /// Engine comparisons performed (instances × families).
    pub comparisons: u64,
    /// Metamorphic invariants checked.
    pub metamorphic_checks: u64,
    /// Exhaustive-oracle cross-checks of the offline DPs performed
    /// (skipped checks — node cap tripped — are not counted).
    pub dp_checks: u64,
    /// Contained divergences, in instance order.
    pub divergences: Vec<Divergence>,
}

impl FuzzReport {
    /// `true` iff every instance agreed everywhere.
    pub fn clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Per-instance counters, merged into the [`FuzzReport`].
#[derive(Clone, Copy, Debug, Default)]
struct InstanceStats {
    comparisons: u64,
    metamorphic: u64,
    dp_checks: u64,
}

/// Run the differential fuzz harness. Instances are generated and checked
/// in parallel on the global pool; a divergence panics inside containment
/// (after shrinking and writing a fixture), and the report collects every
/// contained panic in deterministic instance order.
pub fn run_fuzz(options: &FuzzOptions) -> FuzzReport {
    let indices: Vec<usize> = (0..options.instances).collect();
    // Silence the default panic hook while the batch runs: divergences are
    // *expected* panics (that's the containment design), and the hook's
    // thread-id-stamped stderr chatter would differ across --jobs levels.
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let results: Vec<Result<InstanceStats, Divergence>> = if options.chaos {
        Pool::global()
            .par_try_map_retry("fuzz.instance", FUZZ_CHAOS_ATTEMPTS, &indices, |_, &i| {
                fuzz_one(i, options)
            })
            .into_iter()
            .map(|slot| {
                slot.map_err(|q| Divergence {
                    index: q.index,
                    message: q.to_string(),
                })
            })
            .collect()
    } else {
        Pool::global()
            .par_try_map(&indices, |_, &i| fuzz_one(i, options))
            .into_iter()
            .map(|slot| {
                slot.map_err(|p| Divergence {
                    index: p.index,
                    message: p.message,
                })
            })
            .collect()
    };
    panic::set_hook(hook);

    let mut report = FuzzReport::default();
    for outcome in results {
        match outcome {
            Ok(stats) => {
                report.passed += 1;
                report.comparisons += stats.comparisons;
                report.metamorphic_checks += stats.metamorphic;
                report.dp_checks += stats.dp_checks;
            }
            Err(divergence) => report.divergences.push(divergence),
        }
    }
    report.divergences.sort_by_key(|d| d.index);
    report
}

/// Generate instance `i` and run every check against it. Panics (with a
/// deterministic message naming the family and the written fixture) on any
/// divergence.
fn fuzz_one(i: usize, options: &FuzzOptions) -> InstanceStats {
    let seed = derive_seed(options.seed, i as u64);
    let instance = generate(i, seed, options.profile);
    let mut stats = InstanceStats::default();

    for (f, family) in options.families.iter().enumerate() {
        let strategy_seed = derive_seed(seed, f as u64);
        if build_family(family, &instance, strategy_seed).is_none() {
            panic!("unknown strategy family {family:?}");
        }
        if !family_applicable(family, &instance) {
            continue;
        }
        stats.comparisons += 1;
        if options.profile == FuzzProfile::Batch {
            if let Some(detail) = batch_diverges(family, &instance, strategy_seed) {
                let fixture = Fixture {
                    instance: instance.clone(),
                    family: family.clone(),
                    expect_faults: None,
                    note: Some(format!(
                        "batch-engine divergence, fuzz seed {} instance {i}",
                        options.seed
                    )),
                };
                let path = options
                    .corpus_dir
                    .join(format!("div-batch-{family}-i{i}.trace"));
                let saved = match fixture.save(&path) {
                    Ok(()) => path.display().to_string(),
                    Err(e) => format!("<unsaved: {e}>"),
                };
                panic!("batch divergence: family={family} instance={i} fixture={saved}\n{detail}");
            }
        }
        if let Some(detail) = diverges(family, &instance, strategy_seed) {
            let shrunk = shrink(family, &instance, strategy_seed);
            let fixture = Fixture {
                instance: shrunk.clone(),
                family: family.clone(),
                expect_faults: None,
                note: Some(format!(
                    "shrunk divergence, fuzz seed {} instance {i}",
                    options.seed
                )),
            };
            let path = options.corpus_dir.join(format!("div-{family}-i{i}.trace"));
            let saved = match fixture.save(&path) {
                Ok(()) => path.display().to_string(),
                Err(e) => format!("<unsaved: {e}>"),
            };
            panic!(
                "divergence: family={family} instance={i} fixture={saved}\n\
                 {detail}\nshrunk instance:{shrunk:?}"
            );
        }
    }

    stats.metamorphic += metamorphic(&instance);
    stats.dp_checks += dp_cross_check(i, options.seed);
    stats
}

/// Deterministic instance generator: six workload shapes round-robin,
/// with cache size and delay drawn from the instance seed. Shape 1 is
/// non-disjoint (a shared hot set), so shared-fetch misses are exercised;
/// shapes 4–5 (staggered thrash, bursty) plus the tiered τ distribution
/// cover the sparse large-τ regime where the event engine's idle-skipping
/// actually fires — under the old flat `τ ∈ 0..4` draw most instances
/// never skipped a timestep at all.
fn generate(i: usize, seed: u64, profile: FuzzProfile) -> Instance {
    let (shape, tau) = match profile {
        FuzzProfile::Mixed | FuzzProfile::Batch | FuzzProfile::Capacity => {
            // τ tiers: half dense small-τ, a third mid, a sixth large.
            let tau = match (seed >> 16) % 6 {
                0..=2 => (seed >> 8) % 4,
                3 | 4 => 4 + (seed >> 8) % 13,
                _ => 64 + (seed >> 8) % 193,
            };
            (i % 6, tau)
        }
        FuzzProfile::LargeTau => ([1, 4, 5][i % 3], 64 + (seed >> 8) % 193),
    };
    let workload = match shape {
        0 => mcp_workloads::random_disjoint(seed, 3, 24, 8),
        1 => mcp_workloads::shared_hotset(2 + (i / 4) % 2, 16, 5, 3, 0.4, seed),
        2 => mcp_workloads::zipf(2, 20, 12, 0.8, seed),
        3 => mcp_workloads::phased(2, 20, 6, 5, seed),
        4 => mcp_workloads::staggered_thrash(2 + (seed % 3) as usize, 18, 6, 4, seed),
        _ => mcp_workloads::bursty(2, 24, 3, 5, seed),
    };
    let p = workload.num_cores();
    let cfg = SimConfig::new(p + (seed % 5) as usize, tau);
    if profile == FuzzProfile::Capacity {
        let horizon = (0..p).map(|c| workload.len(c) as u64).max().unwrap_or(1) * (tau + 1);
        let schedule = capacity_schedule(derive_seed(seed, 0xCA9), p, cfg.cache_size, horizon);
        return Instance::with_capacity(workload, cfg, schedule);
    }
    Instance::new(workload, cfg)
}

/// Seeded `K(t)` generator: drops, dip-and-recovers, spikes and
/// staircases, with change times drawn inside the workload's rough
/// makespan so the schedule actually intersects live requests. Always
/// valid by construction: initial capacity `k`, every level at least `p`.
fn capacity_schedule(seed: u64, p: usize, k: usize, horizon: Time) -> CapacitySchedule {
    let span = horizon.max(6);
    let t1 = 2 + (seed >> 24) % (span / 2).max(1);
    let t2 = t1 + 1 + (seed >> 34) % (span / 2).max(1);
    let spike = k + 1 + (seed >> 44) as usize % 4;
    let low = if k > p {
        p + (seed >> 50) as usize % (k - p)
    } else {
        k
    };
    let steps = match (seed >> 16) % 4 {
        // Drop and stay low.
        0 if low < k => vec![(t1, low)],
        // Dip and recover.
        1 if low < k => vec![(t1, low), (t2, k)],
        // Spike and return (exercises the max_k allocation headroom).
        2 => vec![(t1, spike), (t2, k)],
        // Staircase down, then jump above the initial capacity.
        _ if low < k => {
            let mid = (low + k).div_ceil(2);
            vec![(t1, mid), (t2, low), (t2 + 2, spike)]
        }
        // K == p leaves no room to shrink: spike instead.
        _ => vec![(t1, spike)],
    };
    CapacitySchedule::new(k, steps).expect("generated schedule is valid by construction")
}

/// Outcome of one engine run: either a result or a model error. Engine
/// panics escape (they are bugs the pool should contain and report).
type Run = Result<SimResult, SimError>;
/// A traced run: the aggregate result plus the full step trace.
type Traced = Result<(SimResult, Vec<StepReport>), SimError>;

/// Every engine's run of one (instance, family) pair.
struct Runs {
    event: Traced,
    /// `None` for the offline-only families; `Some(Err(detail))` when a
    /// mid-stream commit was not a prefix of the reference run.
    online: Option<Result<Run, String>>,
    reference: Traced,
}

fn run_engines(family: &str, instance: &Instance, seed: u64) -> Runs {
    let strategy = || build_family(family, instance, seed).expect("family known");
    // Always through the capacity-aware constructors: `Fixed(K)` is
    // bit-identical to the plain paths by construction, and capacity
    // instances exercise the shrink machinery of every engine.
    let cap = || instance.capacity.clone();
    let event = Simulator::with_capacity(&instance.workload, instance.cfg, cap(), strategy())
        .and_then(|s| s.run_with_trace());
    let reference = reference_simulate_traced(&instance.workload, instance.cfg, cap(), strategy());
    let online = (!OFFLINE_ONLY.contains(&family)).then(|| {
        let engine = OnlineSimulator::with_capacity(
            instance.workload.num_cores(),
            instance.cfg,
            cap(),
            strategy(),
        );
        engine.map_or_else(
            |e| Ok(Err(e)),
            |engine| {
                let expect = reference.as_ref().ok().map(|(result, _)| result);
                stream_online(engine, &instance.workload, seed, expect)
            },
        )
    });
    Runs {
        event,
        online,
        reference,
    }
}

/// Stream `workload` into `engine` under a seeded arrival interleaving
/// derived from `seed` with [`derive_seed`]: which core pushes next, the
/// burst sizes, where `advance` runs, and the order the cores close in
/// (a core closes only once its whole sequence is admitted). After every
/// `advance` each core's committed fault times must be a prefix of
/// `expect`'s — the reference run on the whole log — or the stream stops
/// with `Err(detail)`; otherwise the drained result is returned for the
/// bit-identity check.
fn stream_online<S: CacheStrategy>(
    mut engine: OnlineSimulator<S>,
    workload: &Workload,
    seed: u64,
    expect: Option<&SimResult>,
) -> Result<Run, String> {
    let stream = derive_seed(seed, 0x0711E);
    let mut draws = 0u64;
    let mut draw = |bound: usize| {
        draws += 1;
        (derive_seed(stream, draws) % bound as u64) as usize
    };
    let p = workload.num_cores();
    let mut cursor = vec![0usize; p];
    let mut open: Vec<usize> = (0..p).collect();
    let mut advances = 0;
    while !open.is_empty() {
        let pending: Vec<usize> = (0..p).filter(|&c| cursor[c] < workload.len(c)).collect();
        match draw(4) {
            0 | 1 if !pending.is_empty() => {
                let core = pending[draw(pending.len())];
                let burst = 1 + if draw(4) == 0 { draw(16) } else { draw(3) };
                for &page in workload.sequence(core)[cursor[core]..].iter().take(burst) {
                    engine.push(core, page).expect("only open cores are pushed");
                    cursor[core] += 1;
                }
            }
            2 => {
                if let Err(e) = engine.advance() {
                    return Ok(Err(e));
                }
                advances += 1;
                if let Some(expect) = expect {
                    for (core, committed) in engine.fault_times().iter().enumerate() {
                        if !expect.fault_times[core].starts_with(committed) {
                            return Err(format!(
                                "online commit {advances} is not a prefix of the reference: \
                                 core {core} fault times {committed:?} vs {:?}",
                                expect.fault_times[core]
                            ));
                        }
                    }
                }
            }
            _ => {
                let admitted: Vec<usize> = open
                    .iter()
                    .copied()
                    .filter(|&c| cursor[c] == workload.len(c))
                    .collect();
                if !admitted.is_empty() {
                    let core = admitted[draw(admitted.len())];
                    engine.close(core).expect("core index in range");
                    open.retain(|&c| c != core);
                }
            }
        }
    }
    if let Err(e) = engine.advance() {
        return Ok(Err(e));
    }
    if !engine.finished() {
        return Err("online engine not finished after closing every core".into());
    }
    let (result, log) = engine.finish();
    if &log != workload {
        return Err(format!(
            "online admitted log differs from the input:{log:?}"
        ));
    }
    Ok(Ok(result))
}

/// `Some(description)` iff the pooled `mcp-batch` runner disagrees with
/// a direct event-engine run on this instance under this family. The
/// runner builds strategies through the same registry and runs the same
/// engine, so any difference is a plumbing bug in the runner (registry,
/// seed or capacity schedule), not a construction mismatch. Model errors
/// must agree too (`BatchError::Sim` wrapping the event engine's
/// `SimError`).
fn batch_diverges(family: &str, instance: &Instance, seed: u64) -> Option<String> {
    let cell = mcp_batch::CellSpec {
        workload: 0,
        family: family.to_string(),
        cache_size: instance.cfg.cache_size,
        tau: instance.cfg.tau,
        seed,
        capacity: Some(instance.capacity.clone()),
    };
    let workloads = [instance.workload.clone()];
    let batch = mcp_batch::run_cells(&workloads, &[cell])
        .pop()
        .expect("one cell in, one result out");
    let strategy = build_family(family, instance, seed).expect("family known");
    let event = simulate_with_capacity(
        &instance.workload,
        instance.cfg,
        instance.capacity.clone(),
        strategy,
    );
    let agree = match (&batch, &event) {
        (Ok(b), Ok(e)) => b == e,
        (Err(mcp_batch::BatchError::Sim(b)), Err(e)) => b == e,
        _ => false,
    };
    if agree {
        None
    } else {
        Some(format!("  batch: {batch:?}\n  event: {event:?}"))
    }
}

/// `Some(description)` iff any pair of the engines disagrees on this
/// instance under this family: the event engine must agree with the
/// reference on the aggregate result *and* the full step trace, and for
/// the families safe to run online the streamed online run must commit
/// only reference prefixes and drain to the reference result. A panic
/// *inside* an engine (e.g. the reference engine's shadow cross-check) is
/// also a divergence.
fn diverges(family: &str, instance: &Instance, seed: u64) -> Option<String> {
    match panic::catch_unwind(AssertUnwindSafe(|| run_engines(family, instance, seed))) {
        Ok(runs) => {
            let offline = runs.event == runs.reference;
            let online = match (&runs.online, &runs.reference) {
                (None, _) => true,
                (Some(Ok(Ok(o))), Ok((r, _))) => o == r,
                (Some(Ok(Err(a))), Err(b)) => a == b,
                _ => false,
            };
            if offline && online {
                None
            } else {
                Some(describe(&runs))
            }
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".to_string());
            Some(format!("engine panicked: {msg}"))
        }
    }
}

fn describe(runs: &Runs) -> String {
    fn result(r: &SimResult) -> String {
        format!(
            "faults={:?} hits={:?} makespan={} fault_times={:?}",
            r.faults, r.hits, r.makespan, r.fault_times
        )
    }
    fn run(r: &Run) -> String {
        match r {
            Ok(res) => result(res),
            Err(e) => format!("error: {e:?}"),
        }
    }
    fn traced(r: &Traced) -> String {
        match r {
            Ok((res, trace)) => format!("{} steps={}", result(res), trace.len()),
            Err(e) => format!("error: {e:?}"),
        }
    }
    let (event, reference) = (&runs.event, &runs.reference);
    let mut out = format!(
        "  event:     {}\n  reference: {}",
        traced(event),
        traced(reference)
    );
    match &runs.online {
        None => {}
        Some(Ok(r)) => out.push_str(&format!("\n  online:    {}", run(r))),
        Some(Err(detail)) => out.push_str(&format!("\n  online:    {detail}")),
    }
    if let (Ok((_, et)), Ok((_, rt))) = (event, reference) {
        if let Some(i) = (0..et.len().max(rt.len())).find(|&i| et.get(i) != rt.get(i)) {
            out.push_str(&format!(
                "\n  first trace mismatch at step {i}:\n    event:     {:?}\n    reference: {:?}",
                et.get(i),
                rt.get(i)
            ));
        }
    }
    out
}

/// Greedy fixpoint shrinker: repeatedly apply the first size-reducing
/// transformation that still diverges, until none does. Every accepted
/// candidate strictly shrinks `total_len + p + K + τ`, so this terminates.
fn shrink(family: &str, instance: &Instance, seed: u64) -> Instance {
    let still_bad = |cand: &Instance| {
        cand.cfg.validate(&cand.workload).is_ok() && diverges(family, cand, seed).is_some()
    };
    let mut current = instance.clone();
    // Generous safety cap; each accepted round shrinks the size metric.
    for _ in 0..512 {
        match candidates(&current).into_iter().find(|c| still_bad(c)) {
            Some(smaller) => current = smaller,
            None => break,
        }
    }
    current
}

/// Rebuild `instance` with a smaller workload/config, carrying its
/// capacity schedule when the schedule stays valid (initial capacity
/// still matches `K`, every level still covers `p`). `None` when the
/// schedule and the new shape are incompatible — the schedule-simplifying
/// candidates below will discharge the schedule first in that case.
fn rebuilt(instance: &Instance, w: Workload, cfg: SimConfig) -> Option<Instance> {
    let c = &instance.capacity;
    if c.is_fixed() {
        return Some(Instance::new(w, cfg));
    }
    (c.initial_k() == cfg.cache_size && c.min_k() >= w.num_cores())
        .then(|| Instance::with_capacity(w, cfg, c.clone()))
}

/// Strictly smaller variants of `instance`, biggest reductions first.
/// "Smaller" means the metric `total_len + p + K + τ + capacity steps`
/// strictly decreases, so the shrink loop terminates.
fn candidates(instance: &Instance) -> Vec<Instance> {
    let w = &instance.workload;
    let cfg = instance.cfg;
    let p = w.num_cores();
    let mut out = Vec::new();

    // Drop a whole core.
    if p > 1 {
        for drop in 0..p {
            let keep: Vec<usize> = (0..p).filter(|&c| c != drop).collect();
            if let Ok(smaller) = w.select_cores(&keep) {
                out.extend(rebuilt(instance, smaller, cfg));
            }
        }
    }
    // Halve one core's sequence (keep either half).
    for core in 0..p {
        let n = w.len(core);
        if n < 2 {
            continue;
        }
        for keep_front in [true, false] {
            let mut seqs: Vec<Vec<_>> = w.sequences().to_vec();
            seqs[core] = if keep_front {
                seqs[core][..n / 2].to_vec()
            } else {
                seqs[core][n - n / 2..].to_vec()
            };
            if let Ok(smaller) = Workload::new(seqs) {
                out.extend(rebuilt(instance, smaller, cfg));
            }
        }
    }
    // Once small, try removing individual requests.
    if w.total_len() <= 12 {
        for core in 0..p {
            for drop in 0..w.len(core) {
                let mut seqs: Vec<Vec<_>> = w.sequences().to_vec();
                seqs[core].remove(drop);
                if let Ok(smaller) = Workload::new(seqs) {
                    out.extend(rebuilt(instance, smaller, cfg));
                }
            }
        }
    }
    // Simplify the capacity schedule: drop one change (biggest first:
    // collapse all the way to fixed), keeping the workload untouched.
    if !instance.capacity.is_fixed() {
        out.push(Instance::new(w.clone(), cfg));
        let changes = instance.capacity.changes();
        for skip in 0..changes.len() {
            let kept: Vec<(Time, usize)> = changes
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != skip)
                .map(|(_, &c)| c)
                .collect();
            if let Ok(thinner) = CapacitySchedule::new(cfg.cache_size, kept) {
                if thinner.min_k() >= p && thinner.changes().len() < changes.len() {
                    out.push(Instance::with_capacity(w.clone(), cfg, thinner));
                }
            }
        }
    }
    // Shrink the delay.
    if cfg.tau > 1 {
        out.extend(rebuilt(
            instance,
            w.clone(),
            SimConfig::new(cfg.cache_size, cfg.tau / 2),
        ));
    }
    if cfg.tau > 0 {
        out.extend(rebuilt(
            instance,
            w.clone(),
            SimConfig::new(cfg.cache_size, 0),
        ));
    }
    // Shrink the cache (validate() rejects K < p later). A dynamic
    // schedule pins K, so this only applies once the schedule is gone.
    if cfg.cache_size > 1 && instance.capacity.is_fixed() {
        out.push(Instance::new(
            w.clone(),
            SimConfig::new(cfg.cache_size - 1, cfg.tau),
        ));
    }
    out
}

/// Metamorphic invariants from the paper, checked on the optimized engine
/// alone (so the `MCP_ORACLE_SKEW` hook does not touch them). Panics on
/// violation; returns the number of invariants that applied.
fn metamorphic(instance: &Instance) -> u64 {
    let w = &instance.workload;
    let cfg = instance.cfg;
    let p = w.num_cores();
    let mut checked = 0;
    if !w.is_disjoint() {
        return checked;
    }

    // Lemma 3: on disjoint sequences, shared LRU behaves exactly like the
    // LRU-mimicking dynamic partition.
    let lru = simulate(w, cfg, shared_lru()).expect("valid instance");
    let mimic = simulate(w, cfg, LruMimicPartition::new()).expect("valid instance");
    assert_eq!(
        lru, mimic,
        "metamorphic: dP_LRU != S_LRU on disjoint workload (Lemma 3){instance:?}"
    );
    checked += 1;

    // τ = 0 and a static equal partition collapse to p independent
    // sequential LRUs of the partition sizes.
    let part = Partition::equal(cfg.cache_size, p);
    let sizes = part.sizes().to_vec();
    let zero_tau = SimConfig::new(cfg.cache_size, 0);
    let r = simulate(w, zero_tau, static_partition_lru(part)).expect("valid instance");
    for (core, &size) in sizes.iter().enumerate() {
        assert_eq!(
            r.faults[core],
            lru_faults(w.sequence(core), size),
            "metamorphic: partitioned tau=0 core {core} != sequential LRU{instance:?}"
        );
    }
    checked += 1;

    // Conservative policies behind a static partition are stack
    // algorithms: per-core faults are monotone non-increasing in K
    // (Partition::equal grows every core's share weakly in K).
    let bigger = SimConfig::new(cfg.cache_size + 1, cfg.tau);
    let small = simulate(
        w,
        cfg,
        static_partition_lru(Partition::equal(cfg.cache_size, p)),
    )
    .expect("valid instance");
    let large = simulate(
        w,
        bigger,
        static_partition_lru(Partition::equal(cfg.cache_size + 1, p)),
    )
    .expect("valid instance");
    for core in 0..p {
        assert!(
            large.faults[core] <= small.faults[core],
            "metamorphic: faults increased with K on core {core} \
             ({} -> {}){instance:?}",
            small.faults[core],
            large.faults[core],
        );
    }
    checked += 1;
    checked
}

/// Cross-check the offline dynamic programs against the naive exhaustive
/// oracles on a tiny instance derived from the run seed. Panics with the
/// algorithm's name on any mismatch; returns the number of checks that
/// actually ran (a tripped node cap skips, it does not fail).
fn dp_cross_check(i: usize, master: u64) -> u64 {
    let seed = derive_seed(master, 1_000_000 + i as u64);
    let w = mcp_workloads::random_disjoint(seed, 2, 4, 3);
    let p = w.num_cores();
    let cfg = SimConfig::new(p + (seed % 2) as usize, (seed >> 8) % 2);
    let mut checked = 0;

    // FINAL-TOTAL-FAULTS: Algorithm 1's DP vs. brute force.
    if let Some(brute) = oracle_min_faults(&w, cfg, ORACLE_NODE_CAP) {
        let dp = ftf_min_faults(&w, cfg).expect("tiny instance");
        assert_eq!(
            dp,
            brute,
            "dp-cross-check: ftf_dp disagrees with exhaustive oracle on\n{}",
            Instance::new(w.clone(), cfg)
        );
        checked += 1;
    }

    // PARTIAL-INDIVIDUAL-FAULTS: Algorithm 2's DP vs. brute force, at the
    // bound S_LRU achieves (feasible) and one fault tighter (either way).
    let lru = simulate(&w, cfg, shared_lru()).expect("tiny instance");
    let checkpoint = (lru.makespan / 2).max(1);
    let bounds = lru.fault_vector_at(checkpoint);
    for bounds in pif_bound_variants(&bounds) {
        if let Some(brute) = oracle_pif_feasible(&w, cfg, checkpoint, &bounds, ORACLE_NODE_CAP) {
            let dp = pif_decide(&w, cfg, checkpoint, &bounds, PifOptions::default())
                .expect("tiny instance");
            assert_eq!(
                dp,
                brute,
                "dp-cross-check: pif_dp disagrees with exhaustive oracle at \
                 checkpoint {checkpoint} bounds {bounds:?} on\n{}",
                Instance::new(w.clone(), cfg)
            );
            checked += 1;
        }
    }

    // K(t)-aware exhaustive oracle: its minimum lower-bounds every
    // online strategy run under the same schedule.
    let horizon = (w.total_len() as u64 + 2) * (cfg.tau + 1);
    let schedule = capacity_schedule(derive_seed(seed, 0xD0), p, cfg.cache_size, horizon);
    if let Some(brute) = oracle_min_faults_with_capacity(&w, cfg, &schedule, ORACLE_NODE_CAP) {
        let lru =
            simulate_with_capacity(&w, cfg, schedule.clone(), shared_lru()).expect("tiny instance");
        assert!(
            brute <= lru.total_faults(),
            "dp-cross-check: K(t)-aware oracle {brute} exceeds S_LRU {} under {schedule} on\n{}",
            lru.total_faults(),
            Instance::new(w.clone(), cfg)
        );
        checked += 1;
    }

    // The scheduling-capable model: branch-and-bound vs. brute force.
    if w.total_len() <= 6 {
        let horizon = (w.total_len() as u64 + 4) * (cfg.tau + 1) + 4;
        if let Some(brute) = oracle_sched_min_faults(&w, cfg, horizon, ORACLE_NODE_CAP) {
            match sched_min(&w, cfg, Objective::Faults, horizon, None, ORACLE_NODE_CAP) {
                Ok(dp) => {
                    assert_eq!(
                        dp,
                        brute,
                        "dp-cross-check: sched_min disagrees with exhaustive oracle on\n{}",
                        Instance::new(w.clone(), cfg)
                    );
                    checked += 1;
                }
                Err(DpError::TooLarge { .. }) => {}
                Err(e) => panic!("dp-cross-check: sched_min failed: {e:?}"),
            }
        }
    }
    checked
}

/// The S_LRU-achieved bound vector plus a one-tighter variant (largest
/// nonzero coordinate decremented), when one exists.
fn pif_bound_variants(bounds: &[u64]) -> Vec<Vec<u64>> {
    let mut variants = vec![bounds.to_vec()];
    if let Some(core) = (0..bounds.len()).max_by_key(|&c| bounds[c]) {
        if bounds[core] > 0 {
            let mut tighter = bounds.to_vec();
            tighter[core] -= 1;
            variants.push(tighter);
        }
    }
    variants
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(instances: usize, seed: u64) -> FuzzOptions {
        FuzzOptions {
            instances,
            seed,
            corpus_dir: std::env::temp_dir().join("mcp-oracle-fuzz-test"),
            ..FuzzOptions::default()
        }
    }

    #[test]
    fn a_small_batch_is_clean() {
        let report = run_fuzz(&opts(8, 0xfeed));
        assert!(report.clean(), "divergences: {:#?}", report.divergences);
        assert_eq!(report.passed, 8);
        // Every instance compares every applicable family; only the
        // disjoint-only sacrifice construction may sit out.
        assert!(report.comparisons >= 8 * (FAMILIES.len() as u64 - 1));
        assert!(report.metamorphic_checks > 0);
        assert!(report.dp_checks > 0);
    }

    #[test]
    fn large_tau_profile_exercises_the_skip_path() {
        // Every large-τ instance must actually skip: the number of served
        // steps is far below the makespan (the old flat τ ∈ 0..4 draw made
        // most instances step every few ticks, leaving the fast-forward
        // path untested).
        for i in 0..6 {
            let seed = derive_seed(0xA5, i as u64);
            let instance = generate(i, seed, FuzzProfile::LargeTau);
            assert!(
                instance.cfg.tau >= 64,
                "instance {i}: tau {}",
                instance.cfg.tau
            );
            let (res, trace) =
                Simulator::new(&instance.workload, instance.cfg, mcp_policies::shared_lru())
                    .unwrap()
                    .run_with_trace()
                    .unwrap();
            assert!(
                (trace.len() as u64) * 4 < res.makespan,
                "instance {i}: {} steps vs makespan {} — not sparse",
                trace.len(),
                res.makespan
            );
        }
        // And the profile runs clean through the full harness.
        let report = run_fuzz(&FuzzOptions {
            instances: 3,
            seed: 5,
            profile: FuzzProfile::LargeTau,
            corpus_dir: std::env::temp_dir().join("mcp-oracle-fuzz-ltau-test"),
            ..FuzzOptions::default()
        });
        assert!(report.clean(), "divergences: {:#?}", report.divergences);
    }

    #[test]
    fn batch_profile_diffs_the_batch_engine_clean() {
        let report = run_fuzz(&FuzzOptions {
            instances: 8,
            seed: 0xBA7C,
            profile: FuzzProfile::Batch,
            corpus_dir: std::env::temp_dir().join("mcp-oracle-fuzz-batch-test"),
            ..FuzzOptions::default()
        });
        assert!(report.clean(), "divergences: {:#?}", report.divergences);
        assert_eq!(report.passed, 8);
    }

    #[test]
    fn capacity_profile_generates_valid_dynamic_schedules() {
        let mut dynamic = 0;
        for i in 0..24 {
            let seed = derive_seed(0xCAFE, i as u64);
            let instance = generate(i, seed, FuzzProfile::Capacity);
            let c = &instance.capacity;
            assert_eq!(c.initial_k(), instance.cfg.cache_size, "instance {i}");
            assert!(
                c.min_k() >= instance.workload.num_cores(),
                "instance {i}: min K(t) {} < p {}",
                c.min_k(),
                instance.workload.num_cores()
            );
            if !c.is_fixed() {
                dynamic += 1;
            }
        }
        // The generator may occasionally collapse to fixed (no-op steps),
        // but the profile must be overwhelmingly dynamic to earn its name.
        assert!(dynamic >= 20, "only {dynamic}/24 dynamic schedules");
    }

    #[test]
    fn capacity_profile_runs_clean_across_every_family() {
        let report = run_fuzz(&FuzzOptions {
            instances: 8,
            seed: 0xCAB,
            profile: FuzzProfile::Capacity,
            corpus_dir: std::env::temp_dir().join("mcp-oracle-fuzz-capacity-test"),
            ..FuzzOptions::default()
        });
        assert!(report.clean(), "divergences: {:#?}", report.divergences);
        assert_eq!(report.passed, 8);
        assert!(report.comparisons >= 8 * (FAMILIES.len() as u64 - 1));
    }

    #[test]
    fn capacity_candidates_simplify_the_schedule() {
        let inst = Instance::with_capacity(
            Workload::from_u32([vec![1, 2, 3, 1, 2, 3], vec![7, 8, 7, 8]]).unwrap(),
            SimConfig::new(4, 1),
            "4,3@3,2@5,5@8".parse().unwrap(),
        );
        let cands = candidates(&inst);
        // The full-collapse candidate is present…
        assert!(cands.iter().any(|c| c.capacity.is_fixed()));
        // …alongside single-step removals, and every candidate stays valid.
        assert!(cands
            .iter()
            .any(|c| !c.capacity.is_fixed() && c.capacity.changes().len() == 2));
        let size = |i: &Instance| {
            i.workload.total_len()
                + i.workload.num_cores()
                + i.cfg.cache_size
                + i.cfg.tau as usize
                + i.capacity.changes().len()
        };
        for cand in &cands {
            assert!(size(cand) < size(&inst), "did not shrink: {cand:?}");
            assert_eq!(cand.capacity.initial_k(), cand.cfg.cache_size);
            assert!(cand.capacity.min_k() >= cand.workload.num_cores());
        }
    }

    #[test]
    fn chaos_retries_injected_faults_to_a_clean_report() {
        let plain = run_fuzz(&opts(6, 0xC7A0));
        assert!(plain.clean(), "divergences: {:#?}", plain.divergences);
        // Same instances under an armed bounded plan: every injected
        // panic/stall clears within the retry budget, so the report is
        // clean and counts exactly match the unarmed run.
        let plan = mcp_chaos::FaultPlan {
            write_per_mille: 0,
            read_per_mille: 0,
            task_per_mille: 400,
            max_consecutive: 2,
            max_stall_ms: 2,
            ..mcp_chaos::FaultPlan::seeded(0xC7A0)
        };
        let _guard = mcp_chaos::arm_scoped(plan);
        let report = run_fuzz(&FuzzOptions {
            chaos: true,
            ..opts(6, 0xC7A0)
        });
        assert!(report.clean(), "divergences: {:#?}", report.divergences);
        assert_eq!(report.passed, plain.passed);
        assert_eq!(report.comparisons, plain.comparisons);
        assert_eq!(report.dp_checks, plain.dp_checks);
    }

    #[test]
    fn reports_are_seed_deterministic() {
        let a = run_fuzz(&opts(4, 7));
        let b = run_fuzz(&opts(4, 7));
        assert_eq!(a.passed, b.passed);
        assert_eq!(a.comparisons, b.comparisons);
        assert_eq!(a.metamorphic_checks, b.metamorphic_checks);
        assert_eq!(a.dp_checks, b.dp_checks);
    }

    #[test]
    fn shrinker_reaches_a_fixpoint_on_a_forced_divergence() {
        // Pretend "every instance diverges" by shrinking against a family
        // whose comparison we sabotage: instead of poking the env hook
        // (racy across test threads), shrink with a predicate stub by
        // shrinking a *valid* instance against an impossible family name
        // is not possible — so exercise the candidate generator directly.
        let inst = Instance::new(
            Workload::from_u32([vec![1, 2, 3, 1, 2, 3], vec![7, 8, 7, 8]]).unwrap(),
            SimConfig::new(4, 3),
        );
        let cands = candidates(&inst);
        assert!(!cands.is_empty());
        let size = |i: &Instance| {
            i.workload.total_len() + i.workload.num_cores() + i.cfg.cache_size + i.cfg.tau as usize
        };
        for cand in &cands {
            assert!(
                size(cand) < size(&inst),
                "candidate did not shrink: {cand:?}"
            );
        }
    }

    #[test]
    fn pif_bound_variants_tighten_the_largest_coordinate() {
        assert_eq!(pif_bound_variants(&[2, 5]), vec![vec![2, 5], vec![2, 4]]);
        assert_eq!(pif_bound_variants(&[0, 0]), vec![vec![0, 0]]);
    }
}
