//! Expected replies, computed in this process through the same library
//! entry points the server calls (`Bench::run`, `engine::run_batched`), so
//! every served frame can be compared byte for byte.

use revel_bench::grid::Cell;
use revel_core::compiler::BuildCfg;
use revel_core::{engine, Bench};
use revel_serve::protocol::{Request, Response};
use revel_serve::server::response_for_run;

/// A `simulate` request for one grid cell, with no overrides.
pub fn simulate(cell: &Cell) -> Request {
    Request::Simulate {
        bench: cell.bench.name().to_string(),
        params: cell.bench.params(),
        arch: cell.arch.to_string(),
        deadline_ms: None,
        max_cycles: None,
        reference_stepper: false,
        fault_seed: None,
        fault_count: None,
        fault_window: None,
    }
}

/// A `simulate_batch` request for one cell over `seeds`.
pub fn simulate_batch(cell: &Cell, seeds: &[u64]) -> Request {
    Request::SimulateBatch {
        bench: cell.bench.name().to_string(),
        params: cell.bench.params(),
        arch: cell.arch.to_string(),
        seeds: seeds.to_vec(),
    }
}

/// The answer a server owes a `simulate` of `cell`, fanned over the
/// engine's job pool (results in `cells` order).
pub fn expected_simulate(cells: &[Cell]) -> Vec<Response> {
    engine::par_map(cells, |c| match c.bench.run(&c.cfg) {
        Ok(run) => response_for_run(&run),
        Err(e) => Response::error("sim_error", e.to_string()),
    })
}

/// The answer a server owes a `simulate_batch` of `bench` under `cfg`.
pub fn expected_batch(bench: Bench, cfg: &BuildCfg, seeds: &[u64]) -> Response {
    match engine::run_batched(bench, cfg, seeds) {
        Ok(batch) => {
            if let Some(run) = batch.runs.iter().find(|r| r.report.timed_out) {
                return Response::TimedOut {
                    cycles: run.report.cycles,
                    deadline_expired: run.report.deadline_expired,
                    deadlock: run.report.deadlock.as_ref().map(|d| d.to_string()),
                };
            }
            let first = &batch.runs[0];
            Response::BatchResult {
                cycles: first.cycles,
                commands_issued: first.report.commands_issued,
                batch: batch.runs.len() as u64,
                verified: batch.runs.iter().all(|r| r.verified.is_ok()),
                replayed: batch.replayed,
            }
        }
        Err(e) => Response::error("sim_error", e.to_string()),
    }
}
