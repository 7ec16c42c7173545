//! The multi-session tuner server.
//!
//! One listener, one lightweight reader thread per connection, and a
//! bounded set of compute permits shared by every connection: a frame
//! is parsed on its connection's thread, but the measure → tune → clamp
//! pipeline only runs while holding one of `permits` slots, so a burst
//! of sessions cannot oversubscribe the machine the kernel pool is
//! sized for. Replies travel through a bounded per-connection outbound
//! queue drained by a writer thread; a client that stops reading fills
//! its queue and is shed (disconnected) rather than allowed to wedge a
//! compute thread — its sessions detach and resume on reconnect.
//!
//! Sessions outlive connections: a dropped or shed connection detaches
//! its sessions, a reconnecting client re-opens a session by name —
//! taking it over (epoch fencing) even when the server has not yet
//! noticed the old connection die, as in a silent partition — and
//! replays its last unacknowledged measurement, which the session
//! answers idempotently from its cached verdict instead of
//! double-advancing. An idle detached session is eventually unloaded by
//! the background sweeper, and a `drain` frame — or [`Server::drain`] —
//! unloads everything and shuts the server down.
//!
//! With a snapshot directory, every measurement that advances a session
//! is made durable before its reply is queued, so the disk always holds
//! the last acknowledged state. A session keeps two files there: a
//! sealed snapshot `<name>.session`, and a [`Log`] `<name>.log` of the
//! measurement frames accepted since. The first advancing measurement
//! seals the snapshot; each later one appends its frame, as a canonical
//! JSON line, for one `fdatasync`; and
//! once the log reaches `COMPACT_RATIO` (4) times the snapshot's size,
//! the measurement seals a new snapshot and empties the log instead. An
//! `open` restores the snapshot and replays the log through the same
//! [`Session`] calls, which is bitwise the state it acknowledged, so
//! even SIGKILL loses nothing. Detach, close, reaping and drain write
//! nothing. A failed append or seal is answered with an `error` frame,
//! never an acknowledgment, and the session is unloaded, so the next
//! `open` reloads the disk state and the client replays.

use crate::proto::{ClientFrame, OpenSpec, ServerFrame};
use crate::session::{Outcome, Session};
use crate::snapshot;
use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use yf_tensor::{env, parallel};
use yf_wire::fsio::{self, SealedFileError};
use yf_wire::line::{self, ReadError};
use yf_wire::log::{Log, LogError};

/// A session log this many times the size of its last sealed snapshot is
/// compacted into a new snapshot. That bounds the log an `open` replays,
/// and spreads each compaction's sealed write over the appends before it.
const COMPACT_RATIO: u64 = 4;

/// Server tuning knobs. [`ServeConfig::from_env`] layers the
/// `YF_SERVE_*` environment variables over these defaults with the
/// workspace's warn-and-default parsing.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Where session snapshots and logs live; `None` disables
    /// durability (sessions die with the process). With a directory,
    /// every measurement that advances a session is durable before its
    /// reply.
    pub snapshot_dir: Option<PathBuf>,
    /// Max concurrently hosted sessions.
    pub max_sessions: usize,
    /// Compute permits: measurements processed at once, across all
    /// connections.
    pub permits: usize,
    /// Outbound frames buffered per connection before the client is
    /// shed as too slow.
    pub outbound_queue: usize,
    /// Detached sessions idle longer than this are reaped.
    pub idle_timeout: Duration,
    /// Cadence of the idle-reaper sweep.
    pub reap_tick: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            snapshot_dir: None,
            max_sessions: 64,
            permits: parallel::num_threads().max(1),
            outbound_queue: 256,
            idle_timeout: Duration::from_secs(300),
            reap_tick: Duration::from_millis(500),
        }
    }
}

impl ServeConfig {
    /// The defaults with every `YF_SERVE_*` override applied (hardened
    /// parsing: malformed values warn on stderr and fall back).
    pub fn from_env() -> ServeConfig {
        let mut cfg = ServeConfig::default();
        if let Some(addr) = env::parse_with("YF_SERVE_ADDR", |raw| {
            let t = raw.trim();
            (!t.is_empty()).then(|| t.to_string())
        }) {
            cfg.addr = addr;
        }
        if let Some(dir) = env::parse_with("YF_SERVE_SNAPSHOT_DIR", |raw| {
            let t = raw.trim();
            (!t.is_empty()).then(|| PathBuf::from(t))
        }) {
            cfg.snapshot_dir = Some(dir);
        }
        if let Some(n) = env::positive_usize("YF_SERVE_MAX_SESSIONS") {
            cfg.max_sessions = n;
        }
        if let Some(n) = env::positive_usize("YF_SERVE_PERMITS") {
            cfg.permits = n;
        }
        if let Some(n) = env::positive_usize("YF_SERVE_QUEUE") {
            cfg.outbound_queue = n;
        }
        if let Some(secs) = env::parse_with("YF_SERVE_IDLE_SECS", |raw| {
            raw.trim().parse::<u64>().ok().filter(|&n| n > 0)
        }) {
            cfg.idle_timeout = Duration::from_secs(secs);
        }
        if let Some(ms) = env::parse_with("YF_SERVE_REAP_MILLIS", |raw| {
            raw.trim().parse::<u64>().ok().filter(|&n| n > 0)
        }) {
            cfg.reap_tick = Duration::from_millis(ms);
        }
        cfg
    }
}

/// A counting semaphore bounding concurrent measurement processing.
struct Semaphore {
    count: Mutex<usize>,
    cv: Condvar,
}

struct Permit<'a>(&'a Semaphore);

impl Semaphore {
    fn new(count: usize) -> Semaphore {
        Semaphore {
            count: Mutex::new(count),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self) -> Permit<'_> {
        let mut n = self.count.lock().expect("semaphore lock");
        while *n == 0 {
            n = self.cv.wait(n).expect("semaphore lock");
        }
        *n -= 1;
        Permit(self)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        *self.0.count.lock().expect("semaphore lock") += 1;
        self.0.cv.notify_one();
    }
}

/// One hosted session plus its server-side bookkeeping.
struct Entry {
    session: Session,
    /// The session's files; `None` without a snapshot directory.
    disk: Option<Disk>,
    /// Attached to a live connection (a session is driven by at most
    /// one connection at a time).
    attached: bool,
    /// Attachment epoch, bumped every time a new connection takes the
    /// session over. A connection may only drive the session while its
    /// recorded epoch matches — frames from a superseded connection
    /// (one a client abandoned after a partition, which the server may
    /// not have noticed yet) are fenced off with an error instead of
    /// corrupting the trajectory.
    epoch: u64,
    last_active: Instant,
}

struct Shared {
    cfg: ServeConfig,
    /// The bound address; drain wakes the blocking accept loop by
    /// dialling it.
    addr: SocketAddr,
    /// Lock order: `sessions` before any `Entry` lock. Threads holding
    /// only an `Entry` lock must never take `sessions`.
    sessions: Mutex<HashMap<String, Arc<Mutex<Entry>>>>,
    compute: Semaphore,
    draining: AtomicBool,
}

/// A durable session's files: where its snapshot is sealed, the size of
/// the last sealed snapshot (0 before the first seal), and its log — open
/// from load when the session resumed, and from the first append when
/// it is fresh, so a session that never appends creates no log file.
struct Disk {
    snapshot: PathBuf,
    sealed: u64,
    log: Option<Log>,
}

impl Disk {
    /// Makes a measurement that advanced `session` durable: appends
    /// `frame` to the log, or seals the session's snapshot instead when
    /// there is none yet or the log has grown to [`COMPACT_RATIO`] times
    /// its size, and then empties the log.
    fn persist(&mut self, session: &Session, frame: &ClientFrame) -> Result<(), String> {
        let logged = self.log.as_ref().map_or(0, Log::bytes);
        if self.sealed > 0 && logged < COMPACT_RATIO * self.sealed {
            return self
                .append(&frame.to_line())
                .map_err(|e| format!("log append failed: {e}"));
        }
        let body = snapshot::encode(&session.snapshot());
        fsio::write_sealed(&self.snapshot, &body)
            .map_err(|e| format!("snapshot seal failed: {e}"))?;
        self.sealed = body.len() as u64;
        match &mut self.log {
            Some(log) => log
                .truncate()
                .map_err(|e| format!("log truncate failed: {e}")),
            None => Ok(()),
        }
    }

    /// Appends one record, opening the log first on a fresh session's
    /// first append.
    fn append(&mut self, record: &str) -> Result<(), LogError> {
        let log = match &mut self.log {
            Some(log) => log,
            None => {
                // Any records are left by a session of the same name
                // whose snapshot is gone, and the snapshot sealed since
                // supersedes them.
                let (mut log, _) = Log::open(&self.snapshot.with_extension("log"))?;
                log.truncate()?;
                self.log.insert(log)
            }
        };
        Ok(log.append(record)?)
    }
}

impl Shared {
    /// Drops `entry` from the session map, unless the name now maps to
    /// another entry.
    fn unload(&self, name: &str, entry: &Arc<Mutex<Entry>>) {
        let mut map = self.sessions.lock().expect("serve sessions lock");
        if map.get(name).is_some_and(|e| Arc::ptr_eq(e, entry)) {
            map.remove(name);
        }
    }

    /// The session `spec` names as the disk holds it — its sealed
    /// snapshot with its log replayed on top, or a fresh session when
    /// no snapshot exists — with its log open.
    fn load(&self, spec: OpenSpec) -> Result<(Session, Option<Disk>), String> {
        let Some(dir) = &self.cfg.snapshot_dir else {
            return Ok((Session::new(spec)?, None));
        };
        let snapshot = dir.join(format!("{}.session", spec.session));
        let text = match fsio::read_sealed(&snapshot) {
            Ok(text) => text,
            Err(SealedFileError::Missing(_)) => {
                let disk = Disk {
                    snapshot,
                    sealed: 0,
                    log: None,
                };
                return Ok((Session::new(spec)?, Some(disk)));
            }
            Err(e) => return Err(format!("unreadable snapshot: {e}")),
        };
        let snap = snapshot::decode(&text).map_err(|e| format!("unreadable snapshot: {e}"))?;
        if !snap.spec.matches(&spec) {
            return Err("spec does not match the session snapshot".to_string());
        }
        let mut session =
            Session::restore(snap).map_err(|e| format!("snapshot restore failed: {e}"))?;
        let (log, records) = Log::open(&snapshot.with_extension("log"))
            .map_err(|e| format!("unreadable log: {e}"))?;
        let base = session.step();
        for (i, record) in records.iter().enumerate() {
            replay(&mut session, base, record)
                .map_err(|e| format!("unreadable log: record {}: {e}", i + 1))?;
        }
        let disk = Disk {
            snapshot,
            sealed: text.len() as u64,
            log: Some(log),
        };
        Ok((session, Some(disk)))
    }
}

/// Runs a measurement frame through `session`.
fn measure(session: &mut Session, frame: &ClientFrame) -> Result<Outcome, String> {
    match frame {
        ClientFrame::Measure {
            step, loss, grads, ..
        } => session.measure(*step, *loss, grads),
        ClientFrame::MeasureStats {
            step,
            loss,
            sumsq,
            var_sum,
            ..
        } => session.measure_stats(*step, *loss, *sumsq, *var_sum),
        _ => Err("not a measurement frame".to_string()),
    }
}

/// Re-applies one logged frame. Frames below `base`, the snapshot's
/// step, are sealed in it already: a compaction sealed it and then
/// crashed before emptying the log.
fn replay(session: &mut Session, base: u64, record: &str) -> Result<(), String> {
    match ClientFrame::from_line(record).map_err(|e| e.to_string())? {
        ClientFrame::Measure { step, .. } | ClientFrame::MeasureStats { step, .. }
            if step < base =>
        {
            Ok(())
        }
        frame => measure(session, &frame).map(drop),
    }
}

/// The running server. Dropping it does *not* stop the threads; call
/// [`Server::drain`] (or send a `drain` frame) and then
/// [`Server::wait`].
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    reaper: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and spawns the accept loop and the idle
    /// reaper.
    ///
    /// # Errors
    ///
    /// Propagates bind/FS errors (bad address, uncreatable snapshot
    /// directory).
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        if let Some(dir) = &cfg.snapshot_dir {
            std::fs::create_dir_all(dir)?;
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            compute: Semaphore::new(cfg.permits.max(1)),
            cfg,
            addr,
            sessions: Mutex::new(HashMap::new()),
            draining: AtomicBool::new(false),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("yf-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("serve: spawning accept thread")
        };
        let reaper = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("yf-serve-reaper".to_string())
                .spawn(move || reaper_loop(&shared))
                .expect("serve: spawning reaper thread")
        };
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
            reaper: Some(reaper),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful drain: stop accepting, wait out in-flight measurements
    /// and unload every session. Returns the number of sessions
    /// unloaded.
    pub fn drain(&self) -> u64 {
        drain_all(&self.shared)
    }

    /// Blocks until the server has drained and its background threads
    /// exited. Connection reader threads are not joined — they die with
    /// their sockets or the process.
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.reaper.take() {
            let _ = h.join();
        }
    }
}

/// Blocking accept: connections are handed off the instant the kernel
/// delivers them (no poll interval — the 20ms nonblocking poll this
/// replaces cost every fresh connection ~10ms before its `open` was
/// even read). Drain wakes the block by dialling the listener itself;
/// the wake connection is recognized by the draining flag and dropped.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                let _ = stream.set_nodelay(true);
                let shared = Arc::clone(shared);
                let _ = std::thread::Builder::new()
                    .name("yf-serve-conn".to_string())
                    .spawn(move || handle_connection(&shared, stream));
            }
            Err(e) => {
                eprintln!("yf-serve: accept failed: {e}");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

fn reaper_loop(shared: &Arc<Shared>) {
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        std::thread::sleep(shared.cfg.reap_tick);
        reap_idle(shared);
    }
}

/// Unloads detached sessions idle past the timeout; their state is on
/// disk already. Runs entirely under the map lock, with `try_lock` per
/// entry (a contended entry is mid-measurement, hence not idle).
fn reap_idle(shared: &Shared) {
    let mut map = shared.sessions.lock().expect("serve sessions lock");
    let now = Instant::now();
    map.retain(|_, entry| match entry.try_lock() {
        Ok(e) => e.attached || now.duration_since(e.last_active) <= shared.cfg.idle_timeout,
        Err(_) => true,
    });
}

/// Unloads every session once its in-flight measurement (if any) has
/// finished, and stops the accept loop.
fn drain_all(shared: &Shared) -> u64 {
    shared.draining.store(true, Ordering::SeqCst);
    // Wake the blocking accept loop so it observes the flag; the
    // connection itself is never served.
    let _ = TcpStream::connect(shared.addr);
    let entries: Vec<Arc<Mutex<Entry>>> = {
        let mut map = shared.sessions.lock().expect("serve sessions lock");
        map.drain().map(|(_, v)| v).collect()
    };
    for entry in &entries {
        drop(entry.lock().expect("serve entry lock"));
    }
    entries.len() as u64
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let Ok(mut write_half) = stream.try_clone() else {
        return;
    };
    // Replies are pre-encoded JSON lines, newline included.
    let (tx, rx) = sync_channel::<Vec<u8>>(shared.cfg.outbound_queue.max(1));
    let writer = std::thread::Builder::new()
        .name("yf-serve-writer".to_string())
        .spawn(move || {
            while let Ok(bytes) = rx.recv() {
                // A failed write (EPIPE/ECONNRESET from a vanished
                // client) sheds only this connection; the process keeps
                // serving. The binary ignores SIGPIPE explicitly so the
                // error path here is the only path.
                if write_half.write_all(&bytes).is_err() {
                    break;
                }
            }
            let _ = write_half.shutdown(Shutdown::Both);
        })
        .expect("serve: spawning writer thread");

    // Session name → attachment epoch, for every session this
    // connection currently drives. The epoch fences this connection's
    // frames off once another connection takes a session over.
    let mut owned: HashMap<String, u64> = HashMap::new();
    let mut reader = BufReader::new(read_half);
    // A line past the length cap cannot be re-synchronized, so it ends
    // the connection like any transport failure. A line that is not
    // UTF-8 was consumed whole and is answered like any malformed frame.
    loop {
        let reply = match line::read_line(&mut reader) {
            Ok(Some(line)) if line.trim().is_empty() => continue,
            Ok(Some(line)) => match ClientFrame::from_line(&line) {
                Ok(frame) => process_frame(shared, &mut owned, frame),
                Err(e) => error(None, e.to_string()),
            },
            Err(e @ ReadError::NotUtf8(_)) => error(None, e.to_string()),
            Ok(None) | Err(_) => break,
        };
        let mut bytes = reply.to_line().into_bytes();
        bytes.push(b'\n');
        match tx.try_send(bytes) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                // Slow client: its outbound queue is full, so it is not
                // reading. Shed it rather than block a reader thread;
                // its sessions snapshot below and resume on reconnect.
                eprintln!(
                    "yf-serve: shedding slow client ({} queued frames)",
                    shared.cfg.outbound_queue
                );
                break;
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
    drop(tx);
    detach_owned(shared, &owned);
    let _ = stream.shutdown(Shutdown::Both);
    let _ = writer.join();
}

/// Detaches every session a closing connection still drives. Sessions
/// another connection has taken over (epoch advanced) are left alone —
/// they belong to that connection now.
fn detach_owned(shared: &Shared, owned: &HashMap<String, u64>) {
    for (name, &epoch) in owned {
        let entry = {
            let map = shared.sessions.lock().expect("serve sessions lock");
            map.get(name).cloned()
        };
        if let Some(entry) = entry {
            let mut e = entry.lock().expect("serve entry lock");
            if e.epoch != epoch {
                continue;
            }
            e.attached = false;
            e.last_active = Instant::now();
        }
    }
}

fn error(session: Option<&str>, message: impl Into<String>) -> ServerFrame {
    ServerFrame::Error {
        session: session.map(String::from),
        message: message.into(),
    }
}

/// Handles one client frame.
fn process_frame(
    shared: &Shared,
    owned: &mut HashMap<String, u64>,
    frame: ClientFrame,
) -> ServerFrame {
    match frame {
        ClientFrame::Open { spec } => process_open(shared, owned, spec),
        ClientFrame::Measure {
            ref session, step, ..
        }
        | ClientFrame::MeasureStats {
            ref session, step, ..
        } => process_measure(shared, owned, session, step, &frame),
        ClientFrame::Close { session } => process_close(shared, owned, &session),
        ClientFrame::Ping { token } => {
            // The heartbeat: keep this connection's sessions warm.
            let map = shared.sessions.lock().expect("serve sessions lock");
            for (name, &epoch) in owned.iter() {
                if let Some(entry) = map.get(name) {
                    let mut e = entry.lock().expect("serve entry lock");
                    if e.epoch == epoch {
                        e.last_active = Instant::now();
                    }
                }
            }
            ServerFrame::Pong { token }
        }
        ClientFrame::Drain => ServerFrame::Draining {
            sessions: drain_all(shared),
        },
    }
}

fn process_open(shared: &Shared, owned: &mut HashMap<String, u64>, spec: OpenSpec) -> ServerFrame {
    let name = spec.session.clone();
    if shared.draining.load(Ordering::SeqCst) {
        return error(Some(&name), "server is draining");
    }
    if let Err(e) = spec.validate() {
        return error(Some(&name), e);
    }
    let mut map = shared.sessions.lock().expect("serve sessions lock");
    if let Some(entry) = map.get(&name) {
        // Live session: re-attach (reconnect). If another connection
        // still looks attached — typically a partitioned predecessor
        // the server has not seen EOF from yet — the newest open wins:
        // the epoch advances and the old connection's frames are fenced
        // off at their next measure.
        let mut e = entry.lock().expect("serve entry lock");
        if !e.session.spec().matches(&spec) {
            return error(Some(&name), "spec does not match the live session");
        }
        if e.attached {
            e.epoch += 1;
        }
        e.attached = true;
        e.last_active = Instant::now();
        let step = e.session.step();
        let epoch = e.epoch;
        drop(e);
        owned.insert(name.clone(), epoch);
        return ServerFrame::Opened {
            session: name,
            step,
        };
    }
    if map.len() >= shared.cfg.max_sessions {
        return error(
            Some(&name),
            format!("session limit reached ({})", shared.cfg.max_sessions),
        );
    }
    let (session, disk) = match shared.load(spec) {
        Ok(loaded) => loaded,
        Err(e) => return error(Some(&name), e),
    };
    let step = session.step();
    map.insert(
        name.clone(),
        Arc::new(Mutex::new(Entry {
            session,
            disk,
            attached: true,
            epoch: 0,
            last_active: Instant::now(),
        })),
    );
    owned.insert(name.clone(), 0);
    ServerFrame::Opened {
        session: name,
        step,
    }
}

/// Runs one measurement frame for `session` under a compute permit, and
/// persists it before replying.
fn process_measure(
    shared: &Shared,
    owned: &HashMap<String, u64>,
    session: &str,
    step: u64,
    frame: &ClientFrame,
) -> ServerFrame {
    let Some(&epoch) = owned.get(session) else {
        return error(Some(session), "session not open on this connection");
    };
    let entry = {
        let map = shared.sessions.lock().expect("serve sessions lock");
        map.get(session).cloned()
    };
    let Some(entry) = entry else {
        return error(Some(session), "session no longer hosted");
    };
    // The compute permit bounds how many measurements the whole server
    // processes at once, independent of connection count.
    let _permit = shared.compute.acquire();
    let mut e = entry.lock().expect("serve entry lock");
    if e.epoch != epoch {
        return error(
            Some(session),
            "session was taken over by another connection",
        );
    }
    if shared.draining.load(Ordering::SeqCst) {
        return error(Some(session), "server is draining");
    }
    let before = e.session.step();
    let outcome = match measure(&mut e.session, frame) {
        Err(msg) => return error(Some(session), msg),
        Ok(outcome) => outcome,
    };
    e.last_active = Instant::now();
    // Persisted before the reply is queued, so an acknowledged
    // measurement survives SIGKILL. An idempotent replay did not advance
    // the session, and its state is on disk already.
    if e.session.step() != before {
        let state = &mut *e;
        let persisted = match &mut state.disk {
            Some(disk) => disk.persist(&state.session, frame),
            None => Ok(()),
        };
        if let Err(err) = persisted {
            // Memory may now be ahead of the disk: unload the session so
            // the next open reloads the disk state and the client
            // replays this step.
            eprintln!("yf-serve: persisting session {session:?} failed: {err}; unloading it");
            drop(e);
            shared.unload(session, &entry);
            return error(Some(session), format!("{err}; session unloaded"));
        }
    }
    match outcome {
        Outcome::Tuned { hyper, clamped } => ServerFrame::Tuned {
            session: session.to_string(),
            step,
            hyper,
            clamped,
        },
        Outcome::Rejected { reason } => ServerFrame::Rejected {
            session: session.to_string(),
            step,
            reason,
        },
    }
}

fn process_close(shared: &Shared, owned: &mut HashMap<String, u64>, session: &str) -> ServerFrame {
    let Some(epoch) = owned.remove(session) else {
        return error(Some(session), "session not open on this connection");
    };
    let mut map = shared.sessions.lock().expect("serve sessions lock");
    if let Some(entry) = map.get(session).cloned() {
        let e = entry.lock().expect("serve entry lock");
        if e.epoch != epoch {
            // Taken over: the session now belongs to its new driver and
            // this close only drops our claim on it.
            return ServerFrame::Closed {
                session: session.to_string(),
            };
        }
        // Its last measurement is on disk already: a closed session can
        // be re-opened later and resumes from there.
        drop(e);
        map.remove(session);
    }
    ServerFrame::Closed {
        session: session.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn semaphore_bounds_concurrency() {
        let sem = Arc::new(Semaphore::new(2));
        let active = Arc::new(Mutex::new((0usize, 0usize))); // (now, peak)
        let mut handles = Vec::new();
        for _ in 0..8 {
            let sem = Arc::clone(&sem);
            let active = Arc::clone(&active);
            handles.push(std::thread::spawn(move || {
                let _p = sem.acquire();
                {
                    let mut a = active.lock().unwrap();
                    a.0 += 1;
                    a.1 = a.1.max(a.0);
                }
                std::thread::sleep(Duration::from_millis(5));
                active.lock().unwrap().0 -= 1;
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let (now, peak) = *active.lock().unwrap();
        assert_eq!(now, 0);
        assert!(peak <= 2, "peak concurrency {peak} exceeded the permits");
    }

    #[test]
    fn env_overrides_use_hardened_parsing() {
        // Unique variable names: the test harness runs in one process.
        std::env::set_var("YF_SERVE_MAX_SESSIONS", "3");
        std::env::set_var("YF_SERVE_PERMITS", "not-a-number");
        std::env::set_var("YF_SERVE_IDLE_SECS", "7");
        let cfg = ServeConfig::from_env();
        assert_eq!(cfg.max_sessions, 3);
        assert_eq!(
            cfg.permits,
            ServeConfig::default().permits,
            "malformed falls back"
        );
        assert_eq!(cfg.idle_timeout, Duration::from_secs(7));
        std::env::remove_var("YF_SERVE_MAX_SESSIONS");
        std::env::remove_var("YF_SERVE_PERMITS");
        std::env::remove_var("YF_SERVE_IDLE_SECS");
    }
}
