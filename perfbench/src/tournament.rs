//! The tournament workload: every strategy family races on a grid of
//! Kamali & Xu-style benchmark traffic, the way `mcp tournament` runs it
//! — `run_cells_quarantined`, the sampled `run_cell_reference`
//! cross-check, then `tournament_report`. No serve code runs.

use crate::harness::{median, quantile, Bench, Fingerprint, Fnv, Metrics};
use crate::trace::Tracer;
use mcp_analysis::{grid2, grid3, tournament_report, TournamentOutcome};
use mcp_batch::{
    run_cell_reference, run_cells, run_cells_quarantined, BatchError, CellSpec, DensePolicy,
    WorkloadKind, WorkloadSpec,
};
use mcp_core::{SimResult, Workload};
use mcp_exec::{derive_seed, Quarantined};
use mcp_policies::FAMILIES;
use std::time::Instant;

/// Per-cell attempt budget, as in `mcp tournament`.
const CELL_ATTEMPTS: u32 = 4;
/// Cross-check sample size, as in `mcp tournament`.
const CROSSCHECK_SAMPLES: usize = 16;

/// The grid: all families × four traffic kinds × two K × two τ × two
/// seeds, at `cores` cores.
#[derive(Clone, Debug)]
pub struct TournamentBench {
    cores: usize,
    len: usize,
    universe: u32,
    ks: Vec<u64>,
    taus: Vec<u64>,
    seeds: u64,
}

impl TournamentBench {
    /// The benchmark grid at p = 8 with 300 requests per core.
    pub fn grid() -> Self {
        TournamentBench {
            cores: 8,
            len: 300,
            universe: 64,
            ks: vec![16, 32],
            taus: vec![0, 4],
            seeds: 2,
        }
    }
}

/// The materialized grid.
pub struct TournamentInput {
    master: u64,
    workloads: Vec<Workload>,
    /// Every cell, group-major with the family axis fastest.
    cells: Vec<CellSpec>,
    /// Group labels, one per `(workload, K, τ)`.
    groups: Vec<String>,
    /// Per workload instance: its cells, re-indexed to workload 0.
    blocks: Vec<Vec<CellSpec>>,
}

type CellResult = Result<Result<SimResult, BatchError>, Quarantined>;

/// One pass over the grid.
pub struct TournamentOutput {
    results: Vec<CellResult>,
    /// Wall time of each workload block, microseconds.
    block_us: Vec<f64>,
    crosschecked: usize,
    mismatches: Vec<String>,
    report_hash: u64,
}

impl Bench for TournamentBench {
    type Input = TournamentInput;
    type Ready = ();
    type Output = TournamentOutput;

    fn items(&self, input: &TournamentInput) -> u64 {
        input.cells.len() as u64
    }

    fn setup(&self, seed: u64, tr: &mut Tracer) -> TournamentInput {
        let kinds = [
            WorkloadKind::ZipfShared,
            WorkloadKind::Drift,
            WorkloadKind::Staggered,
            WorkloadKind::Bursty,
        ];
        let specs: Vec<WorkloadSpec> = grid2(&kinds, &(0..self.seeds).collect::<Vec<_>>())
            .into_iter()
            .map(|(kind, s)| WorkloadSpec {
                kind,
                cores: self.cores,
                len: self.len,
                universe: self.universe,
                seed: seed.wrapping_add(s),
            })
            .collect();
        let workloads: Vec<Workload> = tr.span("workloads.gen", |_| {
            specs.iter().map(WorkloadSpec::materialize).collect()
        });
        let widx: Vec<usize> = (0..specs.len()).collect();
        let group_keys = grid3(&widx, &self.ks, &self.taus);
        let cells: Vec<CellSpec> = group_keys
            .iter()
            .flat_map(|&(wi, k, tau)| {
                FAMILIES.iter().map(move |family| CellSpec {
                    workload: wi,
                    family: family.to_string(),
                    cache_size: k as usize,
                    tau,
                    seed: 0,
                    capacity: None,
                })
            })
            .enumerate()
            .map(|(i, cell)| CellSpec {
                seed: derive_seed(seed, i as u64),
                ..cell
            })
            .collect();
        let groups = group_keys
            .iter()
            .map(|&(wi, k, tau)| format!("{} K={k} tau={tau}", specs[wi].label()))
            .collect();
        let blocks = (0..workloads.len())
            .map(|wi| {
                cells
                    .iter()
                    .filter(|c| c.workload == wi)
                    .map(|c| CellSpec {
                        workload: 0,
                        ..c.clone()
                    })
                    .collect()
            })
            .collect();
        TournamentInput {
            master: seed,
            workloads,
            cells,
            groups,
            blocks,
        }
    }

    fn ready(&self, _input: &TournamentInput) {}

    fn pass(&self, input: &TournamentInput, _ready: (), tr: &mut Tracer) -> TournamentOutput {
        // One run_cells_quarantined call per workload instance: the same
        // cells in the same order as one call over the whole grid, with
        // each instance's wall time as an item latency.
        let mut results = Vec::with_capacity(input.cells.len());
        let mut block_us = Vec::with_capacity(input.blocks.len());
        for (wi, block) in input.blocks.iter().enumerate() {
            let t0 = Instant::now();
            results.extend(tr.span("batch.run_cells", |_| {
                run_cells_quarantined(&input.workloads[wi..=wi], block, CELL_ATTEMPTS)
            }));
            block_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }

        let (crosschecked, mismatches) = tr.span("batch.crosscheck", |_| {
            let mut checked = 0;
            let mut mismatches = Vec::new();
            let n = input.cells.len() as u64;
            for i in 0..CROSSCHECK_SAMPLES.min(input.cells.len()) {
                let idx = (derive_seed(input.master, 0xC5EC + i as u64) % n) as usize;
                let Ok(batch) = &results[idx] else { continue };
                if &run_cell_reference(&input.workloads, &input.cells[idx]) != batch {
                    mismatches.push(format!(
                        "batch/per-run divergence at cell {idx} ({})",
                        input.cells[idx].family
                    ));
                }
                checked += 1;
            }
            (checked, mismatches)
        });

        let report_hash = tr.span("analysis.report", |_| {
            let faults = input
                .groups
                .iter()
                .enumerate()
                .map(|(gi, _)| {
                    (0..FAMILIES.len())
                        .map(|fi| match &results[gi * FAMILIES.len() + fi] {
                            Ok(Ok(r)) => Some(r.total_faults()),
                            _ => None,
                        })
                        .collect()
                })
                .collect();
            let outcome = TournamentOutcome {
                strategies: FAMILIES.iter().map(|f| f.to_string()).collect(),
                groups: input.groups.clone(),
                faults,
            };
            let text = tournament_report(&outcome).to_markdown();
            let mut h = Fnv::default();
            text.bytes().for_each(|b| h.word(u64::from(b)));
            h.0
        });

        TournamentOutput {
            results,
            block_us,
            crosschecked,
            mismatches,
            report_hash,
        }
    }

    fn latency_us(&self, out: &TournamentOutput) -> (f64, f64) {
        (median(&out.block_us), quantile(&out.block_us, 0.99))
    }

    fn check(
        &self,
        input: &TournamentInput,
        out: &TournamentOutput,
        failures: &mut Vec<String>,
    ) -> u64 {
        let mut failed = 0;
        for (i, r) in out.results.iter().enumerate() {
            match r {
                Ok(Ok(_)) | Ok(Err(BatchError::Inapplicable(_))) => {}
                Ok(Err(e)) => {
                    failed += 1;
                    failures.push(format!("cell {i} ({}): {e}", input.cells[i].family));
                }
                Err(q) => {
                    failed += 1;
                    failures.push(format!("cell {i} quarantined: {q}"));
                }
            }
        }
        if out.results.len() != input.cells.len() {
            failed += 1;
            failures.push(format!(
                "{} results for {} cells",
                out.results.len(),
                input.cells.len()
            ));
        }
        if out.crosschecked == 0 {
            failed += 1;
            failures.push("cross-check compared no cells".into());
        }
        failures.extend(out.mismatches.iter().cloned());
        failed + out.mismatches.len() as u64
    }

    fn fingerprint(&self, _input: &TournamentInput, out: &TournamentOutput) -> Fingerprint {
        let (mut faults, mut makespan, mut inapplicable, mut quarantined) = (0, 0, 0, 0);
        let mut matrix = Fnv::default();
        for r in &out.results {
            match r {
                Ok(Ok(r)) => {
                    faults += r.total_faults();
                    makespan += r.makespan;
                    matrix.word(r.total_faults());
                    matrix.word(r.makespan);
                }
                Ok(Err(_)) => {
                    inapplicable += 1;
                    matrix.word(u64::MAX);
                }
                Err(_) => quarantined += 1,
            }
        }
        vec![
            ("core.faults", faults),
            ("core.makespan", makespan),
            ("batch.cells", out.results.len() as u64),
            ("batch.inapplicable", inapplicable),
            ("batch.quarantined", quarantined),
            ("batch.result_hash", matrix.0),
            ("analysis.report_hash", out.report_hash),
        ]
    }

    fn layers(
        &self,
        input: &TournamentInput,
        _out: &TournamentOutput,
        tr: &mut Tracer,
        m: &mut Metrics,
    ) {
        let passes = tr.durations_ns("batch.crosscheck").len().max(1) as f64;
        let per_pass_ms = |name: &str| tr.durations_ns(name).iter().sum::<f64>() / passes / 1e6;
        m.set("batch.run_cells_ms", per_pass_ms("batch.run_cells"), "ms");
        m.set("batch.crosscheck_ms", per_pass_ms("batch.crosscheck"), "ms");
        m.set("analysis.report_ms", per_pass_ms("analysis.report"), "ms");

        // Probes from outside the pass: the dense SoA path and the
        // per-cell event engine on their own cells, and the per-run
        // reference on the dense-family cells (what the grid would cost
        // without the dense path).
        let (dense, fallback): (Vec<CellSpec>, Vec<CellSpec>) = input
            .cells
            .iter()
            .cloned()
            .partition(|c| DensePolicy::parse(&c.family).is_some());
        let rate = |tr: &mut Tracer, name: &'static str, cells: &[CellSpec], reference: bool| {
            let t0 = Instant::now();
            tr.span(name, |_| {
                if reference {
                    for cell in cells {
                        std::hint::black_box(run_cell_reference(&input.workloads, cell).ok());
                    }
                } else {
                    std::hint::black_box(run_cells(&input.workloads, cells));
                }
            });
            cells.len() as f64 / t0.elapsed().as_secs_f64()
        };
        let dense_rate = rate(tr, "batch.dense", &dense, false);
        let fallback_rate = rate(tr, "batch.fallback", &fallback, false);
        let reference_rate = rate(tr, "batch.reference", &dense, true);
        m.set("batch.dense_cells_per_s", dense_rate, "1/s");
        m.set("batch.fallback_cells_per_s", fallback_rate, "1/s");
        m.set("batch.reference_cells_per_s", reference_rate, "1/s");
    }
}
