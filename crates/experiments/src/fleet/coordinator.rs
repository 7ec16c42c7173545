//! The fleet coordinator: drives a grid sweep through a pool of worker
//! processes, survives their deaths, and merges durable per-cell results
//! into a [`GridOutcome`] bitwise identical to an uninterrupted
//! in-process [`crate::grid::grid_search`].
//!
//! Fault-tolerance model:
//!
//! - every state transition goes through the fsynced [`Journal`], so a
//!   coordinator restart replays it and re-runs only unfinished cells;
//! - each dispatch is a *lease* with a deadline, extended by worker
//!   heartbeats; a silent worker (hung, wedged, or partitioned) is
//!   SIGKILLed and its cell re-dispatched — per-cell checkpoints mean
//!   the retry resumes rather than restarts;
//! - attempts are capped with exponential backoff between them; the
//!   attempt counter survives restarts because it is replayed from
//!   `lease` events;
//! - a result only counts once its sealed file is durable (workers
//!   report `done` strictly after the atomic rename), so the merge reads
//!   exactly the set of first durable results.

use super::fsio::read_sealed;
use super::journal::{CellState, Event, Journal, JournalError};
use super::proto::{CellSpec, Request, Response};
use super::{codec, result_path};
use crate::fleet::registry;
use crate::grid::{score_results, GridError, GridOutcome};
use crate::trainer::RunResult;
use std::fmt;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};
use yf_wire::line::{self, ReadError};

/// What to sweep: the grid axes plus per-cell run settings, with the
/// workload and optimizer as registry names so worker processes can
/// rebuild them.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Registry name of the workload (see [`registry::task_builder`]).
    pub task: String,
    /// Registry name of the optimizer (see [`registry::opt_builder`]).
    pub opt: String,
    /// Grid values (learning rates / lr factors).
    pub values: Vec<f32>,
    /// Seeds averaged per value.
    pub seeds: Vec<u64>,
    /// Training iterations per cell.
    pub iters: usize,
    /// Validate every this many iterations (0 disables).
    pub eval_every: usize,
    /// Smoothing window for scoring (Section 5.1).
    pub window: usize,
}

/// How worker processes talk to the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorkerTransport {
    /// Line JSON on the worker's stdin/stdout pipes.
    #[default]
    Stdio,
    /// The same line JSON over a TCP socket: the coordinator listens on
    /// an ephemeral loopback port and each worker is spawned with
    /// `--transport tcp --connect <addr>`. The protocol, scheduling, and
    /// merged outcome are identical to stdio — only the byte channel
    /// differs.
    Tcp,
}

/// How to run the sweep: pool size, lease policy, and retry policy.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker processes to keep alive.
    pub workers: usize,
    /// The coordinator ↔ worker byte channel.
    pub transport: WorkerTransport,
    /// Dispatch attempts per cell before the sweep fails.
    pub max_attempts: u32,
    /// A leased cell whose worker stays silent this long is presumed
    /// wedged: the worker is killed and the cell re-dispatched.
    pub lease_timeout: Duration,
    /// Base delay before retrying a failed cell (doubles per attempt).
    pub backoff_base: Duration,
    /// Steps between durable checkpoints inside each cell (0 disables
    /// checkpointing; crashes then restart cells from scratch).
    pub checkpoint_every: usize,
    /// `YF_FAULT` spec injected into spawned workers (fault-injection
    /// tests only; `None` runs clean).
    pub fault_spec: Option<String>,
    /// `YF_CHAOS` spec for a [`yf_serve::ChaosProxy`] interposed between
    /// TCP workers and the coordinator (chaos tests only; `None` runs
    /// clean, and the knob is ignored under stdio transport). Chaos
    /// frame counters are per direction and global across connections,
    /// so deterministic schedules need `workers: 1`.
    pub chaos_spec: Option<String>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 2,
            transport: WorkerTransport::default(),
            max_attempts: 3,
            lease_timeout: Duration::from_secs(30),
            backoff_base: Duration::from_millis(20),
            checkpoint_every: 20,
            fault_spec: None,
            chaos_spec: None,
        }
    }
}

/// A finished sweep plus its recovery accounting.
#[derive(Debug)]
pub struct FleetReport {
    /// The merged outcome — bitwise identical to the in-process sweep.
    pub outcome: GridOutcome,
    /// Cells whose durable results predated this coordinator run.
    pub recovered_results: usize,
    /// Cells executed (dispatched at least once) by this run.
    pub executed_cells: usize,
    /// Re-dispatches beyond each cell's first attempt, this run.
    pub retries: u32,
}

/// Why a sweep could not complete.
#[derive(Debug)]
pub enum FleetError {
    /// Filesystem failure.
    Io(io::Error),
    /// Journal failure (I/O or corruption).
    Journal(JournalError),
    /// The grid inputs or merged results were inconsistent.
    Grid(GridError),
    /// Unknown workload/optimizer name.
    Registry(String),
    /// The journal on disk describes a different sweep than `spec`.
    SpecMismatch(String),
    /// A cell exhausted its attempts.
    JobFailed {
        /// The cell that kept failing.
        cell: usize,
        /// Attempts consumed.
        attempts: u32,
        /// The last recorded failure.
        error: String,
    },
    /// A worker process could not be spawned or driven.
    Worker(String),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Io(e) => write!(f, "fleet i/o: {e}"),
            FleetError::Journal(e) => write!(f, "{e}"),
            FleetError::Grid(e) => write!(f, "{e}"),
            FleetError::Registry(m) => write!(f, "{m}"),
            FleetError::SpecMismatch(m) => write!(f, "journal/spec mismatch: {m}"),
            FleetError::JobFailed {
                cell,
                attempts,
                error,
            } => write!(f, "cell {cell} failed after {attempts} attempts: {error}"),
            FleetError::Worker(m) => write!(f, "worker: {m}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<io::Error> for FleetError {
    fn from(e: io::Error) -> Self {
        FleetError::Io(e)
    }
}

impl From<JournalError> for FleetError {
    fn from(e: JournalError) -> Self {
        FleetError::Journal(e)
    }
}

impl From<GridError> for FleetError {
    fn from(e: GridError) -> Self {
        FleetError::Grid(e)
    }
}

/// Runs (or resumes) the sweep described by `spec` under `cfg`, with all
/// durable state in `dir` and workers launched from `worker_bin`.
///
/// Calling this again with the same `dir` after any interruption —
/// coordinator crash, SIGKILLed workers, torn files — resumes from the
/// journal: done cells are never re-run, in-flight cells resume from
/// their last sealed checkpoint, and the merged [`GridOutcome`] is
/// bitwise identical to what the uninterrupted in-process sweep returns.
///
/// # Errors
///
/// See [`FleetError`]; on [`FleetError::JobFailed`] the journal and all
/// durable results remain for a later resume.
pub fn run_fleet(
    spec: &FleetSpec,
    cfg: &FleetConfig,
    dir: &Path,
    worker_bin: &Path,
) -> Result<FleetReport, FleetError> {
    if spec.values.is_empty() {
        return Err(GridError::EmptyGrid.into());
    }
    if spec.seeds.is_empty() {
        return Err(GridError::NoSeeds.into());
    }
    if registry::task_builder(&spec.task).is_none() {
        return Err(FleetError::Registry(format!(
            "unknown task {:?}",
            spec.task
        )));
    }
    if registry::opt_builder(&spec.opt).is_none() {
        return Err(FleetError::Registry(format!(
            "unknown optimizer {:?}",
            spec.opt
        )));
    }
    std::fs::create_dir_all(dir)?;
    let journal = Journal::open(dir);
    let mut cells = recover_cells(spec, &journal)?;
    let recovered_results = verify_durable_results(dir, &mut cells);

    let mut executed_cells = 0;
    let mut retries = 0;
    if cells.iter().any(|c| !c.done) {
        let mut pool = Pool::spawn(cfg, worker_bin)?;
        let run = drive(spec, cfg, dir, &journal, &mut cells, &mut pool);
        pool.shutdown();
        let (executed, redispatched) = run?;
        executed_cells = executed;
        retries = redispatched;
    }

    let results = collect_results(dir, cells.len())?;
    let outcome = score_results(&spec.values, &spec.seeds, spec.window, &results)?;
    Ok(FleetReport {
        outcome,
        recovered_results,
        executed_cells,
        retries,
    })
}

/// Replays the journal against `spec`: an empty journal enqueues every
/// cell; an existing one must describe the same grid.
fn recover_cells(spec: &FleetSpec, journal: &Journal) -> Result<Vec<CellState>, FleetError> {
    let grid: Vec<(f32, u64)> = crate::grid::grid_cells(&spec.values, &spec.seeds);
    let replay = journal.replay()?;
    if replay.cells.is_empty() {
        for (cell, &(value, seed)) in grid.iter().enumerate() {
            journal.append(&Event::Job {
                cell,
                value_bits: value.to_bits(),
                seed,
            })?;
        }
        return Ok(grid
            .iter()
            .map(|&(value, seed)| CellState {
                value_bits: value.to_bits(),
                seed,
                attempts: 0,
                done: false,
                last_error: None,
            })
            .collect());
    }
    if replay.cells.len() != grid.len() {
        return Err(FleetError::SpecMismatch(format!(
            "journal has {} cells, spec describes {}",
            replay.cells.len(),
            grid.len()
        )));
    }
    for (cell, (state, &(value, seed))) in replay.cells.iter().zip(&grid).enumerate() {
        if state.value_bits != value.to_bits() || state.seed != seed {
            return Err(FleetError::SpecMismatch(format!(
                "cell {cell} was enqueued as (value bits {:08x}, seed {}), spec says ({:08x}, {seed})",
                state.value_bits,
                state.seed,
                value.to_bits(),
            )));
        }
    }
    Ok(replay.cells)
}

/// Demotes `done` cells whose result file is missing or torn — the
/// journal is the intent log, but the sealed result is the truth.
/// Returns how many durable results were recovered.
fn verify_durable_results(dir: &Path, cells: &mut [CellState]) -> usize {
    let mut recovered = 0;
    for (cell, state) in cells.iter_mut().enumerate() {
        if !state.done {
            continue;
        }
        let ok = read_sealed(&result_path(dir, cell))
            .ok()
            .and_then(|text| codec::decode_result(&text).ok())
            .is_some();
        if ok {
            recovered += 1;
        } else {
            eprintln!(
                "fleet: cell {cell} journaled done but its result is missing or torn; re-running"
            );
            state.done = false;
        }
    }
    recovered
}

fn collect_results(dir: &Path, cells: usize) -> Result<Vec<RunResult>, FleetError> {
    (0..cells)
        .map(|cell| {
            let path = result_path(dir, cell);
            let text = read_sealed(&path)
                .map_err(|e| FleetError::Worker(format!("cell {cell} result: {e}")))?;
            codec::decode_result(&text)
                .map_err(|e| FleetError::Worker(format!("cell {cell} result: {e}")))
        })
        .collect()
}

/// A message from a worker's reader thread, tagged with the worker slot
/// and its spawn generation (so messages from a killed worker's drained
/// pipe can't be attributed to its replacement).
type PoolMsg = (usize, u64, WorkerMsg);

enum WorkerMsg {
    Resp(Response),
    Gone,
}

struct WorkerProc {
    child: Child,
    /// The request channel into the worker: its stdin pipe, or the
    /// write half of its TCP connection.
    input: Box<dyn Write + Send>,
    generation: u64,
    /// The leased cell and its deadline, when busy.
    lease: Option<(usize, Instant)>,
}

struct Pool {
    workers: Vec<WorkerProc>,
    tx: Sender<PoolMsg>,
    rx: Receiver<PoolMsg>,
    worker_bin: PathBuf,
    fault_spec: Option<String>,
    /// Present in TCP mode: the loopback listener workers dial back to.
    listener: Option<TcpListener>,
    /// The address workers actually dial: the chaos proxy when one is
    /// interposed, otherwise the listener itself.
    worker_addr: Option<SocketAddr>,
    /// Keeps the interposed chaos proxy's pump threads alive for the
    /// pool's lifetime.
    _chaos: Option<yf_serve::ChaosProxy>,
    next_generation: u64,
}

impl Pool {
    fn spawn(cfg: &FleetConfig, worker_bin: &Path) -> Result<Pool, FleetError> {
        let (tx, rx) = channel();
        let listener = match cfg.transport {
            WorkerTransport::Stdio => None,
            WorkerTransport::Tcp => {
                let listener = TcpListener::bind("127.0.0.1:0")
                    .map_err(|e| FleetError::Worker(format!("binding fleet listener: {e}")))?;
                listener
                    .set_nonblocking(true)
                    .map_err(|e| FleetError::Worker(format!("fleet listener: {e}")))?;
                Some(listener)
            }
        };
        let (worker_addr, chaos) = match &listener {
            None => (None, None),
            Some(listener) => {
                let upstream = listener
                    .local_addr()
                    .map_err(|e| FleetError::Worker(format!("fleet listener: {e}")))?;
                match &cfg.chaos_spec {
                    None => (Some(upstream), None),
                    Some(text) => {
                        let spec = yf_serve::ChaosSpec::parse(text)
                            .map_err(|e| FleetError::Worker(format!("YF_CHAOS: {e}")))?;
                        let proxy = yf_serve::ChaosProxy::start(upstream, spec).map_err(|e| {
                            FleetError::Worker(format!("starting chaos proxy: {e}"))
                        })?;
                        (Some(proxy.local_addr()), Some(proxy))
                    }
                }
            }
        };
        let mut pool = Pool {
            workers: Vec::new(),
            tx,
            rx,
            worker_bin: worker_bin.to_path_buf(),
            fault_spec: cfg.fault_spec.clone(),
            listener,
            worker_addr,
            _chaos: chaos,
            next_generation: 0,
        };
        for slot in 0..cfg.workers.max(1) {
            let worker = pool.launch(slot)?;
            pool.workers.push(worker);
        }
        Ok(pool)
    }

    fn launch(&mut self, slot: usize) -> Result<WorkerProc, FleetError> {
        let generation = self.next_generation;
        self.next_generation += 1;
        let mut command = Command::new(&self.worker_bin);
        match &self.listener {
            None => {
                command.stdin(Stdio::piped()).stdout(Stdio::piped());
            }
            Some(_) => {
                let addr = self
                    .worker_addr
                    .expect("tcp pools always record a dial-back address");
                command
                    .args(["--transport", "tcp", "--connect", &addr.to_string()])
                    .stdin(Stdio::null())
                    .stdout(Stdio::inherit());
            }
        }
        command.stderr(Stdio::inherit());
        match &self.fault_spec {
            Some(spec) => command.env("YF_FAULT", spec),
            None => command.env_remove("YF_FAULT"),
        };
        let mut child = command.spawn().map_err(|e| {
            FleetError::Worker(format!("spawning {}: {e}", self.worker_bin.display()))
        })?;
        let (input, output): (Box<dyn Write + Send>, Box<dyn Read + Send>) =
            match &self.listener {
                None => (
                    Box::new(child.stdin.take().expect("piped stdin")),
                    Box::new(child.stdout.take().expect("piped stdout")),
                ),
                Some(listener) => {
                    let stream = accept_worker(listener, &mut child)?;
                    (
                        Box::new(stream.try_clone().map_err(|e| {
                            FleetError::Worker(format!("cloning worker socket: {e}"))
                        })?),
                        Box::new(stream),
                    )
                }
            };
        let tx = self.tx.clone();
        std::thread::spawn(move || {
            let mut reader = BufReader::new(output);
            loop {
                // A line that is not UTF-8 is consumed whole, so it is
                // dropped like an unparseable one and the link stays in
                // sync.
                let line = match line::read_line(&mut reader) {
                    Ok(Some(l)) => l,
                    Err(e @ ReadError::NotUtf8(_)) => {
                        eprintln!("fleet: worker {slot}: unparseable line ({e}); dropping");
                        continue;
                    }
                    Ok(None) | Err(_) => break,
                };
                if line.trim().is_empty() {
                    continue;
                }
                match Response::from_line(&line) {
                    Ok(resp) => {
                        if tx.send((slot, generation, WorkerMsg::Resp(resp))).is_err() {
                            return;
                        }
                    }
                    Err(e) => {
                        eprintln!("fleet: worker {slot}: unparseable line ({e}); dropping");
                    }
                }
            }
            let _ = tx.send((slot, generation, WorkerMsg::Gone));
        });
        Ok(WorkerProc {
            child,
            input,
            generation,
            lease: None,
        })
    }

    /// Kills and replaces the worker in `slot`; its old generation's
    /// messages will be ignored from here on.
    fn replace(&mut self, slot: usize) -> Result<(), FleetError> {
        let _ = self.workers[slot].child.kill();
        let _ = self.workers[slot].child.wait();
        self.workers[slot] = self.launch(slot)?;
        Ok(())
    }

    fn shutdown(&mut self) {
        for worker in &mut self.workers {
            let _ = writeln!(worker.input, "{}", Request::Shutdown.to_line());
            let _ = worker.input.flush();
        }
        for worker in &mut self.workers {
            let deadline = Instant::now() + Duration::from_secs(2);
            loop {
                match worker.child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    _ => {
                        let _ = worker.child.kill();
                        let _ = worker.child.wait();
                        break;
                    }
                }
            }
        }
    }
}

/// Waits for the worker just spawned to dial the coordinator back. Only
/// processes this coordinator spawned know the ephemeral port, and
/// launches are strictly sequential (a replaced worker is killed before
/// its successor spawns), so the next connection is the new worker's. A
/// worker that dies before connecting — or never connects within the
/// deadline — is a spawn failure.
fn accept_worker(listener: &TcpListener, child: &mut Child) -> Result<TcpStream, FleetError> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                return Ok(stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(FleetError::Worker(format!(
                        "worker exited before connecting ({status})"
                    )));
                }
                if Instant::now() >= deadline {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(FleetError::Worker(
                        "worker never connected back over tcp".to_string(),
                    ));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(FleetError::Worker(format!("accepting worker: {e}"))),
        }
    }
}

/// Per-cell scheduler view layered over the journal's [`CellState`].
struct Sched {
    not_before: Instant,
    leased: bool,
}

#[allow(clippy::too_many_lines)]
fn drive(
    spec: &FleetSpec,
    cfg: &FleetConfig,
    dir: &Path,
    journal: &Journal,
    cells: &mut [CellState],
    pool: &mut Pool,
) -> Result<(usize, u32), FleetError> {
    let now = Instant::now();
    let mut sched: Vec<Sched> = cells
        .iter()
        .map(|_| Sched {
            not_before: now,
            leased: false,
        })
        .collect();
    let mut remaining = cells.iter().filter(|c| !c.done).count();
    let mut executed = vec![false; cells.len()];
    let mut retries = 0u32;

    // Records a failed attempt: journals it, applies capped exponential
    // backoff, or reports the cell permanently failed.
    let fail_attempt = |cells: &mut [CellState],
                        sched: &mut [Sched],
                        journal: &Journal,
                        cell: usize,
                        error: String|
     -> Result<(), FleetError> {
        let attempt = cells[cell].attempts.saturating_sub(1);
        journal.append(&Event::Fail {
            cell,
            attempt,
            error: error.clone(),
        })?;
        cells[cell].last_error = Some(error.clone());
        sched[cell].leased = false;
        if cells[cell].attempts >= cfg.max_attempts {
            return Err(FleetError::JobFailed {
                cell,
                attempts: cells[cell].attempts,
                error,
            });
        }
        let exp = cells[cell].attempts.saturating_sub(1).min(16);
        sched[cell].not_before = Instant::now() + cfg.backoff_base * 2u32.pow(exp);
        Ok(())
    };

    while remaining > 0 {
        // Dispatch every idle worker onto the lowest ready cell.
        for slot in 0..pool.workers.len() {
            if pool.workers[slot].lease.is_some() {
                continue;
            }
            let now = Instant::now();
            let Some(cell) = cells
                .iter()
                .zip(&sched)
                .position(|(c, s)| !c.done && !s.leased && s.not_before <= now)
            else {
                continue;
            };
            if cells[cell].attempts >= cfg.max_attempts {
                // Exhausted cells fail the sweep as soon as they surface.
                return Err(FleetError::JobFailed {
                    cell,
                    attempts: cells[cell].attempts,
                    error: cells[cell]
                        .last_error
                        .clone()
                        .unwrap_or_else(|| "attempts exhausted".to_string()),
                });
            }
            let attempt = cells[cell].attempts;
            journal.append(&Event::Lease {
                cell,
                worker: slot,
                attempt,
            })?;
            cells[cell].attempts += 1;
            if executed[cell] {
                retries += 1;
            }
            executed[cell] = true;
            sched[cell].leased = true;
            let request = Request::Run(CellSpec {
                cell,
                task: spec.task.clone(),
                opt: spec.opt.clone(),
                value: f32::from_bits(cells[cell].value_bits),
                seed: cells[cell].seed,
                iters: spec.iters,
                eval_every: spec.eval_every,
                checkpoint_every: cfg.checkpoint_every,
                attempt,
                dir: dir.to_string_lossy().into_owned(),
            });
            let worker = &mut pool.workers[slot];
            worker.lease = Some((cell, Instant::now() + cfg.lease_timeout));
            if writeln!(worker.input, "{}", request.to_line())
                .and_then(|()| worker.input.flush())
                .is_err()
            {
                // The worker died between dispatches; its reader thread
                // will deliver `Gone` and the lease machinery below will
                // retry the cell on the replacement.
                continue;
            }
        }

        // Reap expired leases: kill the silent worker, fail the attempt.
        let now = Instant::now();
        for slot in 0..pool.workers.len() {
            let Some((cell, deadline)) = pool.workers[slot].lease else {
                continue;
            };
            if now < deadline {
                continue;
            }
            eprintln!("fleet: worker {slot} exceeded its lease on cell {cell}; killing it");
            pool.workers[slot].lease = None;
            pool.replace(slot)?;
            fail_attempt(
                cells,
                &mut sched,
                journal,
                cell,
                "lease expired".to_string(),
            )?;
        }

        // Drain one message (or sleep briefly).
        let msg = match pool.rx.recv_timeout(Duration::from_millis(20)) {
            Ok(m) => m,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => {
                return Err(FleetError::Worker("all reader threads gone".to_string()))
            }
        };
        let (slot, generation, body) = msg;
        if pool.workers[slot].generation != generation {
            continue; // Stale message from a replaced worker.
        }
        match body {
            WorkerMsg::Resp(Response::Step { cell, .. }) => {
                if let Some((leased, _)) = pool.workers[slot].lease {
                    if leased == cell {
                        pool.workers[slot].lease = Some((cell, Instant::now() + cfg.lease_timeout));
                    }
                }
            }
            WorkerMsg::Resp(Response::Done { cell }) => {
                if pool.workers[slot].lease.map(|(c, _)| c) == Some(cell) {
                    pool.workers[slot].lease = None;
                }
                sched[cell].leased = false;
                if !cells[cell].done {
                    // First durable result wins; the journal records it
                    // only after the worker made the file durable.
                    journal.append(&Event::Done { cell })?;
                    cells[cell].done = true;
                    remaining -= 1;
                }
            }
            WorkerMsg::Resp(Response::Error { cell, message }) => {
                if pool.workers[slot].lease.map(|(c, _)| c) == Some(cell) {
                    pool.workers[slot].lease = None;
                }
                if !cells[cell].done {
                    fail_attempt(cells, &mut sched, journal, cell, message)?;
                }
            }
            WorkerMsg::Gone => {
                let lease = pool.workers[slot].lease.take();
                pool.replace(slot)?;
                if let Some((cell, _)) = lease {
                    if !cells[cell].done {
                        fail_attempt(
                            cells,
                            &mut sched,
                            journal,
                            cell,
                            "worker process died".to_string(),
                        )?;
                    }
                }
            }
        }
    }
    Ok((executed.iter().filter(|&&e| e).count(), retries))
}
