//! The coordinator ↔ worker wire protocol: line-delimited JSON on the
//! worker's stdin/stdout.
//!
//! The coordinator sends one [`Request`] line at a time; an idle worker
//! answers `run` with `step` heartbeats while training and exactly one
//! terminal `done`/`error` line. Floats travel as hex bit patterns
//! inside JSON strings so nothing is lost to decimal formatting.

use super::json::{self, Json, JsonError};
use yf_tensor::hex::{f32_hex, f32_unhex};

/// A grid cell dispatch: everything a worker needs to run one
/// `(value, seed)` training cell and persist its artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Cell index in canonical grid order.
    pub cell: usize,
    /// Registry name of the workload.
    pub task: String,
    /// Registry name of the optimizer.
    pub opt: String,
    /// Grid value (learning rate / lr factor).
    pub value: f32,
    /// Training seed.
    pub seed: u64,
    /// Training iterations.
    pub iters: usize,
    /// Validate every this many iterations (0 disables).
    pub eval_every: usize,
    /// Checkpoint every this many steps (0 disables).
    pub checkpoint_every: usize,
    /// 0-based dispatch attempt (faults key on it).
    pub attempt: u32,
    /// Directory holding the journal, checkpoints, and results.
    pub dir: String,
}

/// Coordinator → worker.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run one cell.
    Run(CellSpec),
    /// Exit cleanly.
    Shutdown,
}

/// Worker → coordinator.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Progress heartbeat: the worker finished `step` of `cell`.
    Step {
        /// Cell being trained.
        cell: usize,
        /// 0-based step just completed.
        step: u64,
    },
    /// The cell's result is durably on disk.
    Done {
        /// Completed cell.
        cell: usize,
    },
    /// The attempt failed (the worker itself survives).
    Error {
        /// Failed cell.
        cell: usize,
        /// Why.
        message: String,
    },
}

impl Request {
    /// Serializes to one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Request::Run(spec) => Json::obj(vec![
                ("type", Json::str("run")),
                ("cell", Json::u64(spec.cell as u64)),
                ("task", Json::str(spec.task.clone())),
                ("opt", Json::str(spec.opt.clone())),
                ("value", Json::str(f32_hex(spec.value))),
                ("seed", Json::u64(spec.seed)),
                ("iters", Json::u64(spec.iters as u64)),
                ("eval_every", Json::u64(spec.eval_every as u64)),
                ("checkpoint_every", Json::u64(spec.checkpoint_every as u64)),
                ("attempt", Json::u64(u64::from(spec.attempt))),
                ("dir", Json::str(spec.dir.clone())),
            ])
            .to_string(),
            Request::Shutdown => Json::obj(vec![("type", Json::str("shutdown"))]).to_string(),
        }
    }

    /// Parses one JSON line.
    ///
    /// # Errors
    ///
    /// [`JsonError`] on malformed JSON or missing fields.
    pub fn from_line(line: &str) -> Result<Request, JsonError> {
        let v = json::parse(line)?;
        match v.str_field("type")? {
            "run" => Ok(Request::Run(CellSpec {
                cell: v.u64_field("cell")? as usize,
                task: v.str_field("task")?.to_string(),
                opt: v.str_field("opt")?.to_string(),
                value: f32_unhex(v.str_field("value")?).map_err(|e| JsonError {
                    at: 0,
                    message: e.to_string(),
                })?,
                seed: v.u64_field("seed")?,
                iters: v.u64_field("iters")? as usize,
                eval_every: v.u64_field("eval_every")? as usize,
                checkpoint_every: v.u64_field("checkpoint_every")? as usize,
                attempt: v.u64_field("attempt")? as u32,
                dir: v.str_field("dir")?.to_string(),
            })),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(JsonError {
                at: 0,
                message: format!("unknown request type {other:?}"),
            }),
        }
    }
}

impl Response {
    /// Serializes to one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Response::Step { cell, step } => Json::obj(vec![
                ("type", Json::str("step")),
                ("cell", Json::u64(*cell as u64)),
                ("step", Json::u64(*step)),
            ])
            .to_string(),
            Response::Done { cell } => Json::obj(vec![
                ("type", Json::str("done")),
                ("cell", Json::u64(*cell as u64)),
            ])
            .to_string(),
            Response::Error { cell, message } => Json::obj(vec![
                ("type", Json::str("error")),
                ("cell", Json::u64(*cell as u64)),
                ("message", Json::str(message.clone())),
            ])
            .to_string(),
        }
    }

    /// Parses one JSON line.
    ///
    /// # Errors
    ///
    /// [`JsonError`] on malformed JSON or missing fields.
    pub fn from_line(line: &str) -> Result<Response, JsonError> {
        let v = json::parse(line)?;
        let cell = v.u64_field("cell")? as usize;
        match v.str_field("type")? {
            "step" => Ok(Response::Step {
                cell,
                step: v.u64_field("step")?,
            }),
            "done" => Ok(Response::Done { cell }),
            "error" => Ok(Response::Error {
                cell,
                message: v.str_field("message")?.to_string(),
            }),
            other => Err(JsonError {
                at: 0,
                message: format!("unknown response type {other:?}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let spec = CellSpec {
            cell: 5,
            task: "toy-mlp".to_string(),
            opt: "momentum".to_string(),
            value: 0.1,
            seed: 42,
            iters: 100,
            eval_every: 25,
            checkpoint_every: 10,
            attempt: 1,
            dir: "/tmp/fleet run".to_string(),
        };
        let req = Request::Run(spec);
        assert_eq!(Request::from_line(&req.to_line()).unwrap(), req);
        assert_eq!(
            Request::from_line(&Request::Shutdown.to_line()).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Step { cell: 1, step: 99 },
            Response::Done { cell: 2 },
            Response::Error {
                cell: 3,
                message: "bad \"task\"\nname".to_string(),
            },
        ] {
            assert_eq!(Response::from_line(&resp.to_line()).unwrap(), resp);
        }
    }
}
