//! Fault-tolerant fleet grid search.
//!
//! The Appendix I grid-search protocol — one training run per
//! `(value, seed)` cell, multi-seed averaging, pick the best smoothed
//! curve — reframed as a durable multi-process job queue:
//!
//! - [`journal`]: every cell is a job in an append-only fsynced
//!   journal of checked JSON records (`pending → leased → done/failed`)
//!   on a [`log`]; replay cuts a torn final record and resumes a sweep
//!   after any crash without re-running finished cells;
//! - [`worker`] + the `yf-fleet-worker` binary: N worker processes take
//!   cells over line-delimited JSON on stdio ([`proto`]), checkpoint
//!   every K steps, and persist sealed results;
//! - [`coordinator`]: leases with heartbeat-extended deadlines, SIGKILL
//!   for stragglers, capped retries with exponential backoff, and a
//!   first-durable-result-wins merge through the same
//!   [`crate::grid::score_results`] scorer the in-process sweep uses —
//!   so the final [`crate::grid::GridOutcome`] is bitwise identical to
//!   an uninterrupted [`crate::grid::grid_search`];
//! - [`fsio`]: atomic (tmp + fsync + rename) writes and checksum-sealed
//!   loads that reject torn files with typed errors;
//! - [`fault`]: a deterministic fault-injection layer (`YF_FAULT`) that
//!   can panic, hang, SIGKILL, or tear a checkpoint write at an exact
//!   `(cell, step, attempt)` — the substrate of the recovery test
//!   matrix.

pub mod codec;
pub mod coordinator;
pub mod fault;
pub mod journal;
pub mod proto;
pub mod registry;
pub mod worker;

// The wire dialect (line JSON, sealed atomic files, the durable log) is
// shared with `yf-serve`; it lives in `yf-wire` so fleet and serve cannot
// drift, and floats inside it are `yf_tensor::hex` bit patterns.
// Re-exported under the original fleet paths.
pub use yf_wire::{fsio, json, log};

pub use coordinator::{
    run_fleet, FleetConfig, FleetError, FleetReport, FleetSpec, WorkerTransport,
};
pub use fault::{FaultKind, FaultPlan};

use std::path::{Path, PathBuf};

/// The sealed checkpoint file for a cell.
pub fn checkpoint_path(dir: &Path, cell: usize) -> PathBuf {
    dir.join(format!("ckpt-{cell}.txt"))
}

/// The sealed result file for a cell.
pub fn result_path(dir: &Path, cell: usize) -> PathBuf {
    dir.join(format!("result-{cell}.txt"))
}
