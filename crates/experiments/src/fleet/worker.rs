//! The fleet worker: runs grid cells dispatched over its transport
//! (stdio by default, TCP with `--transport tcp`), checkpoints them
//! durably, and reports progress back over the same transport.
//!
//! One worker process serves many cells (the coordinator keeps it warm
//! across dispatches). Per cell it:
//!
//! 1. resolves the workload/optimizer from the [`registry`] module;
//! 2. resumes from the cell's sealed checkpoint when a valid one exists
//!    (torn or stale checkpoints are discarded with a warning — the cell
//!    restarts from scratch, which is equally deterministic);
//! 3. trains with [`train_resumable`], emitting a heartbeat and a sealed
//!    checkpoint every `checkpoint_every` steps;
//! 4. writes the sealed result file, then reports `done` — the result is
//!    durable *before* the coordinator ever hears about it.
//!
//! The armed [`FaultPlan`] (from `YF_FAULT`) is threaded through the
//! step/checkpoint callbacks, so every injected failure lands at a
//! deterministic point in the training stream.

use super::codec::{decode_checkpoint, encode_checkpoint, encode_result};
use super::fault::{die_hard, FaultKind, FaultPlan};
use super::fsio::{read_sealed, write_sealed, SealedFileError};
use super::proto::{CellSpec, Request, Response};
use super::{checkpoint_path, result_path};
use crate::fleet::registry;
use crate::trainer::{train_resumable, RunConfig, TrainCheckpoint, TrainEvent};
use std::cell::RefCell;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::rc::Rc;
use yf_wire::line;

/// The worker's reply channel, shared between the request loop and the
/// heartbeat callback inside a running cell. Single-threaded (the worker
/// trains on its one request thread), hence `Rc<RefCell<..>>`.
type Out<W> = Rc<RefCell<W>>;

/// Entry point for the `yf-fleet-worker` binary's default stdio
/// transport: serves requests from stdin until EOF or an explicit
/// shutdown. Returns the process exit code.
pub fn worker_main() -> i32 {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve(stdin.lock(), stdout.lock())
}

/// Entry point for `yf-fleet-worker --transport tcp --connect <addr>`:
/// dials the coordinator and serves the same request loop over the
/// socket. Returns the process exit code.
pub fn worker_tcp(addr: &str) -> i32 {
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("yf-fleet-worker: connecting to {addr}: {e}");
            return 1;
        }
    };
    let _ = stream.set_nodelay(true);
    let reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(e) => {
            eprintln!("yf-fleet-worker: cloning socket: {e}");
            return 1;
        }
    };
    serve(reader, stream)
}

/// The transport-agnostic request loop: one [`Request`] line in, `step`
/// heartbeats and one terminal `done`/`error` line out.
///
/// Requests are read through the capped [`line::read_line`]; a line
/// past the cap, or one that is not UTF-8, ends the worker with exit
/// code 1, as any bad request does.
fn serve<R: BufRead, W: Write>(mut reader: R, writer: W) -> i32 {
    let fault = match FaultPlan::from_env() {
        Ok(f) => f,
        Err(e) => {
            eprintln!("yf-fleet-worker: {e}");
            return 2;
        }
    };
    let out: Out<W> = Rc::new(RefCell::new(writer));
    loop {
        let line = match line::read_line(&mut reader) {
            Ok(None) => break,
            Ok(Some(l)) => l,
            Err(e) => {
                // The error names its kind: "transport: ..." or "framing: ...".
                eprintln!("yf-fleet-worker: {e}");
                return 1;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match Request::from_line(&line) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("yf-fleet-worker: bad request: {e}");
                return 1;
            }
        };
        match request {
            Request::Shutdown => return 0,
            Request::Run(spec) => {
                let response = match run_cell(&spec, fault, &out) {
                    Ok(()) => Response::Done { cell: spec.cell },
                    Err(message) => Response::Error {
                        cell: spec.cell,
                        message,
                    },
                };
                if emit(&out, &response).is_err() {
                    // Coordinator is gone; nothing left to serve.
                    return 1;
                }
            }
        }
    }
    0
}

fn emit<W: Write>(out: &Out<W>, response: &Response) -> std::io::Result<()> {
    let mut w = out.borrow_mut();
    writeln!(w, "{}", response.to_line())?;
    w.flush()
}

/// Loads the cell's checkpoint if a valid sealed one exists. Torn or
/// undecodable files are discarded (the fault recovery path), never
/// trusted.
fn load_checkpoint(path: &Path, cell: usize) -> Option<TrainCheckpoint> {
    let text = match read_sealed(path) {
        Ok(t) => t,
        Err(SealedFileError::Missing(_)) => return None,
        Err(e) => {
            eprintln!("yf-fleet-worker: cell {cell}: discarding checkpoint: {e}");
            return None;
        }
    };
    match decode_checkpoint(&text) {
        Ok(ckpt) => Some(ckpt),
        Err(e) => {
            eprintln!("yf-fleet-worker: cell {cell}: discarding checkpoint: {e}");
            None
        }
    }
}

/// Runs one cell to a durable result file. `Err` carries a message the
/// coordinator records in the journal before retrying.
fn run_cell<W: Write>(
    spec: &CellSpec,
    fault: Option<FaultPlan>,
    out: &Out<W>,
) -> Result<(), String> {
    let build_task = registry::task_builder(&spec.task)
        .ok_or_else(|| format!("unknown task {:?}", spec.task))?;
    let build_opt = registry::opt_builder(&spec.opt)
        .ok_or_else(|| format!("unknown optimizer {:?}", spec.opt))?;
    let dir = Path::new(&spec.dir);
    let ckpt_path = checkpoint_path(dir, spec.cell);
    let resume = load_checkpoint(&ckpt_path, spec.cell);
    let result = match execute(spec, build_task, build_opt, fault, resume, out) {
        Ok(r) => r,
        Err(e) => {
            // A checkpoint the trainer rejected (e.g. from an older spec)
            // is discarded and the cell restarts from scratch; a fresh
            // run cannot fail to resume.
            eprintln!(
                "yf-fleet-worker: cell {}: checkpoint rejected ({e}); restarting cell",
                spec.cell
            );
            execute(spec, build_task, build_opt, fault, None, out).map_err(|e| e.to_string())?
        }
    };
    let encoded = encode_result(&result);
    write_sealed(&result_path(dir, spec.cell), &encoded)
        .map_err(|e| format!("writing result: {e}"))?;
    // The checkpoint has served its purpose; leaving it is harmless (a
    // done cell is never re-dispatched) but cleaning up keeps dirs tidy.
    let _ = std::fs::remove_file(&ckpt_path);
    Ok(())
}

fn execute<W: Write>(
    spec: &CellSpec,
    build_task: registry::TaskBuilder,
    build_opt: registry::OptBuilder,
    fault: Option<FaultPlan>,
    resume: Option<TrainCheckpoint>,
    out: &Out<W>,
) -> Result<crate::trainer::RunResult, crate::trainer::ResumeError> {
    let mut task = build_task(spec.seed);
    let mut opt = build_opt(spec.value);
    let cfg = RunConfig::plain(spec.iters).with_eval(spec.eval_every);
    let dir = Path::new(&spec.dir).to_path_buf();
    let ckpt_path = checkpoint_path(&dir, spec.cell);
    let heartbeat = spec.checkpoint_every.max(1) as u64;
    let (cell, attempt) = (spec.cell, spec.attempt);
    let out = Rc::clone(out);
    train_resumable(
        task.as_mut(),
        opt.as_mut(),
        &cfg,
        resume,
        spec.checkpoint_every,
        move |event| match event {
            TrainEvent::Step(step) => {
                if let Some(f) = fault {
                    if f.fires(FaultKind::Panic, cell, step, attempt) {
                        panic!("injected fault: panic at cell {cell} step {step}");
                    }
                    if f.fires(FaultKind::Hang, cell, step, attempt) {
                        loop {
                            std::thread::sleep(std::time::Duration::from_millis(250));
                        }
                    }
                    if f.fires(FaultKind::Kill, cell, step, attempt) {
                        die_hard();
                    }
                }
                if (step + 1) % heartbeat == 0 {
                    let _ = emit(&out, &Response::Step { cell, step });
                }
            }
            TrainEvent::Checkpoint(ckpt) => {
                let encoded = encode_checkpoint(ckpt);
                if let Some(f) = fault {
                    if f.fires(FaultKind::Torn, cell, ckpt.step, attempt) {
                        // Simulate a crash mid-write with no atomic
                        // rename: a truncated, unsealed file lands at
                        // the real path, then the process dies cold.
                        let _ = std::fs::write(&ckpt_path, &encoded[..encoded.len() / 2]);
                        die_hard();
                    }
                }
                if let Err(e) = write_sealed(&ckpt_path, &encoded) {
                    // A failed checkpoint write only costs resume
                    // granularity, never correctness.
                    eprintln!("yf-fleet-worker: cell {cell}: checkpoint write failed: {e}");
                }
            }
        },
    )
}
