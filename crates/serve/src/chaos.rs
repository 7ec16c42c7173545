//! Deterministic network-fault injection: a chaos TCP proxy.
//!
//! [`ChaosProxy`] sits between a line-protocol client and its upstream
//! server (the serve protocol or the fleet TCP transport — anything
//! newline-framed) and injects faults from a [`ChaosSpec`] at exact
//! frame indices, the same philosophy as the fleet's `YF_FAULT` process
//! faults: every failure lands at a reproducible point in the stream,
//! so a test that survives it once survives it every run.
//!
//! The spec grammar mirrors `YF_FAULT`:
//!
//! ```text
//! YF_CHAOS=kind:frame[:dir[:conn]][,kind:frame[:dir[:conn]]...]
//! ```
//!
//! where `kind` is one of `delay` (hold the frame `delay_ms`, then
//! forward), `drop` (sever both sides of the connection), `blackhole`
//! (swallow this and every later frame in that direction while holding
//! the connection open — the partition case, no EOF to help the peer),
//! `corrupt` (forward the frame with deterministic damage), or
//! `duplicate` (forward the frame twice); `frame` is the zero-based
//! index in that direction's frame stream; `dir` is `c2s` (default) or
//! `s2c`. Every fault fires exactly once.
//!
//! A "frame" is one line, read through the same capped
//! [`yf_wire::line::read_line`] as every endpoint; a line that is not
//! UTF-8 is still a frame and is forwarded as it came.
//!
//! Without `conn`, frame indices count per direction across *all*
//! proxied connections (a client that reconnects keeps advancing the
//! same counters), which keeps schedules deterministic for
//! single-client traffic. With `conn` — a zero-based index in
//! accept order — the fault targets frame `frame` *of that specific
//! connection*, counted from its own first frame, which makes
//! multi-connection fleet/serve schedules precisely targetable.

use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use yf_tensor::env;
use yf_wire::line::{self, ReadError};

/// What to do to the selected frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosKind {
    /// Hold the frame for the spec's delay, then forward it intact.
    Delay,
    /// Sever the connection (both directions) at this frame.
    Drop,
    /// Swallow this frame and every later one in this direction, while
    /// keeping the connection open: a silent partition, no EOF.
    Blackhole,
    /// Forward the frame with deterministic damage (truncated and
    /// garbage-terminated), exercising the peer's decoder error path.
    Corrupt,
    /// Forward the frame twice.
    Duplicate,
}

/// Which direction of the proxied stream a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosDir {
    /// Client → server frames.
    C2s,
    /// Server → client frames.
    S2c,
}

/// One scheduled fault: a kind, a frame index, a direction, and
/// optionally a specific connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosFault {
    /// What happens.
    pub kind: ChaosKind,
    /// Zero-based frame index in `dir`'s stream at which it happens —
    /// counted globally across connections when `conn` is `None`, or
    /// from the targeted connection's own first frame otherwise.
    pub frame: u64,
    /// The stream it happens to.
    pub dir: ChaosDir,
    /// Targeted connection, as a zero-based index in the proxy's accept
    /// order; `None` keeps the original global counting.
    pub conn: Option<u64>,
}

/// A full chaos schedule: the faults plus the delay used by
/// [`ChaosKind::Delay`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosSpec {
    /// The scheduled faults; each fires exactly once.
    pub faults: Vec<ChaosFault>,
    /// How long a `delay` fault holds its frame.
    pub delay: Duration,
}

impl ChaosSpec {
    /// Parses the `kind:frame[:dir[:conn]]` comma list.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed entry.
    pub fn parse(text: &str) -> Result<ChaosSpec, String> {
        let mut faults = Vec::new();
        for part in text.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let mut fields = part.split(':');
            let kind = match fields.next().unwrap_or("") {
                "delay" => ChaosKind::Delay,
                "drop" => ChaosKind::Drop,
                "blackhole" => ChaosKind::Blackhole,
                "corrupt" => ChaosKind::Corrupt,
                "duplicate" => ChaosKind::Duplicate,
                other => return Err(format!("unknown chaos kind {other:?} in {part:?}")),
            };
            let frame = fields
                .next()
                .ok_or_else(|| format!("chaos fault {part:?} is missing its frame index"))?
                .parse::<u64>()
                .map_err(|_| format!("bad frame index in chaos fault {part:?}"))?;
            let dir = match fields.next() {
                None => ChaosDir::C2s,
                Some("c2s") => ChaosDir::C2s,
                Some("s2c") => ChaosDir::S2c,
                Some(other) => return Err(format!("bad chaos direction {other:?} in {part:?}")),
            };
            let conn = match fields.next() {
                None => None,
                Some(raw) => Some(
                    raw.parse::<u64>()
                        .map_err(|_| format!("bad connection index in chaos fault {part:?}"))?,
                ),
            };
            if fields.next().is_some() {
                return Err(format!("trailing fields in chaos fault {part:?}"));
            }
            faults.push(ChaosFault {
                kind,
                frame,
                dir,
                conn,
            });
        }
        if faults.is_empty() {
            return Err("empty chaos spec".to_string());
        }
        Ok(ChaosSpec {
            faults,
            delay: Duration::from_millis(50),
        })
    }

    /// Reads `YF_CHAOS` (and `YF_CHAOS_DELAY_MS` for the delay-fault
    /// hold time) with the workspace's hardened warn-and-default
    /// parsing: unset means no chaos, malformed warns and means no
    /// chaos.
    pub fn from_env() -> Option<ChaosSpec> {
        let mut spec = env::parse_with("YF_CHAOS", |raw| ChaosSpec::parse(raw).ok())?;
        if let Some(ms) = env::parse_with("YF_CHAOS_DELAY_MS", |raw| raw.trim().parse::<u64>().ok())
        {
            spec.delay = Duration::from_millis(ms);
        }
        Some(spec)
    }
}

/// Counters and one-shot flags shared by every pump thread.
struct ProxyState {
    spec: ChaosSpec,
    /// One "already fired" flag per fault.
    fired: Vec<AtomicBool>,
    /// Frames seen so far, per direction, across all connections.
    c2s_frames: AtomicU64,
    s2c_frames: AtomicU64,
    /// Accept-order connection ids, handed to each pump pair.
    next_conn: AtomicU64,
}

impl ProxyState {
    /// Claims the fault (if any) scheduled at this frame of `dir`:
    /// `global` is the direction's cross-connection frame index,
    /// `local` the index within connection `conn`. One-shot: the first
    /// pump to claim a fault owns it.
    fn claim(&self, dir: ChaosDir, global: u64, conn: u64, local: u64) -> Option<ChaosKind> {
        for (i, f) in self.spec.faults.iter().enumerate() {
            if f.dir != dir {
                continue;
            }
            let hit = match f.conn {
                None => f.frame == global,
                Some(c) => c == conn && f.frame == local,
            };
            if hit && !self.fired[i].swap(true, Ordering::SeqCst) {
                return Some(f.kind);
            }
        }
        None
    }
}

/// The running man-in-the-middle. Listens on an ephemeral loopback
/// port; every accepted connection is paired with a fresh upstream
/// connection and pumped line-by-line in both directions through the
/// fault schedule. Dropping the proxy stops the accept loop; live
/// pumped connections die with their sockets.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Starts the proxy in front of `upstream`.
    ///
    /// # Errors
    ///
    /// Propagates listener bind failures.
    pub fn start(upstream: SocketAddr, spec: ChaosSpec) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let fired = spec.faults.iter().map(|_| AtomicBool::new(false)).collect();
        let state = Arc::new(ProxyState {
            spec,
            fired,
            c2s_frames: AtomicU64::new(0),
            s2c_frames: AtomicU64::new(0),
            next_conn: AtomicU64::new(0),
        });
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("yf-chaos-accept".to_string())
                .spawn(move || accept_loop(&listener, upstream, &state, &stop))
                .expect("chaos: spawning accept thread")
        };
        Ok(ChaosProxy {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The address clients should dial instead of the upstream's.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept so it observes the stop flag; the
        // wake connection is dropped unproxied.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    upstream: SocketAddr,
    state: &Arc<ProxyState>,
    stop: &Arc<AtomicBool>,
) {
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // Blocking accept (no poll latency); the proxy's Drop wakes it
        // with a throwaway connection, caught by the flag re-check.
        match listener.accept() {
            Ok((client, _)) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let _ = client.set_nodelay(true);
                // A fresh upstream connection per proxied client, so
                // drop faults sever exactly one logical connection.
                let Ok(server) = TcpStream::connect(upstream) else {
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                };
                let _ = server.set_nodelay(true);
                let (Ok(client2), Ok(server2)) = (client.try_clone(), server.try_clone()) else {
                    continue;
                };
                let conn = state.next_conn.fetch_add(1, Ordering::SeqCst);
                let st = Arc::clone(state);
                let _ = std::thread::Builder::new()
                    .name("yf-chaos-c2s".to_string())
                    .spawn(move || pump(client, server, ChaosDir::C2s, conn, &st));
                let st = Arc::clone(state);
                let _ = std::thread::Builder::new()
                    .name("yf-chaos-s2c".to_string())
                    .spawn(move || pump(server2, client2, ChaosDir::S2c, conn, &st));
            }
            Err(_) => return,
        }
    }
}

/// Deterministic frame damage for [`ChaosKind::Corrupt`]: the line is
/// cut in half and terminated with bytes no frame codec accepts, and
/// its newline is kept, so the peer's reader stays in sync.
fn corrupt(frame: &[u8]) -> Vec<u8> {
    let body = String::from_utf8_lossy(frame);
    let body = body.trim_end_matches(['\n', '\r']);
    let keep = body
        .char_indices()
        .nth(body.chars().count() / 2)
        .map_or(0, |(i, _)| i);
    format!("{}#chaos-corrupt#\n", &body[..keep]).into_bytes()
}

/// Pumps lines from `from` to `to`, applying the fault schedule for
/// `dir`. Exits (shutting both sockets down) on EOF, a line past the
/// length cap, or an error from either side.
fn pump(from: TcpStream, mut to: TcpStream, dir: ChaosDir, conn: u64, state: &Arc<ProxyState>) {
    let counter = match dir {
        ChaosDir::C2s => &state.c2s_frames,
        ChaosDir::S2c => &state.s2c_frames,
    };
    let mut reader = BufReader::new(match from.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut stalled = false;
    let mut local = 0u64;
    loop {
        let mut bytes = match line::read_line(&mut reader) {
            Ok(Some(line)) => line.into_bytes(),
            Err(ReadError::NotUtf8(e)) => e.into_bytes(),
            Ok(None) | Err(_) => break,
        };
        bytes.push(b'\n');
        let n = counter.fetch_add(1, Ordering::SeqCst);
        let ln = local;
        local += 1;
        if stalled {
            // Blackholed: swallow silently, keep the socket open.
            continue;
        }
        let forwarded = match state.claim(dir, n, conn, ln) {
            None => to.write_all(&bytes),
            Some(ChaosKind::Delay) => {
                std::thread::sleep(state.spec.delay);
                to.write_all(&bytes)
            }
            Some(ChaosKind::Drop) => {
                let _ = from.shutdown(Shutdown::Both);
                let _ = to.shutdown(Shutdown::Both);
                return;
            }
            Some(ChaosKind::Blackhole) => {
                stalled = true;
                continue;
            }
            Some(ChaosKind::Corrupt) => to.write_all(&corrupt(&bytes)),
            Some(ChaosKind::Duplicate) => to.write_all(&bytes).and_then(|()| to.write_all(&bytes)),
        };
        if forwarded.is_err() {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};

    fn spec(text: &str) -> ChaosSpec {
        ChaosSpec::parse(text).unwrap()
    }

    /// A trivial upstream echo server: one line in, the same line out.
    fn echo_server() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = stream;
                    let mut line = String::new();
                    loop {
                        line.clear();
                        match reader.read_line(&mut line) {
                            Ok(0) | Err(_) => return,
                            Ok(_) => {
                                if writer.write_all(line.as_bytes()).is_err() {
                                    return;
                                }
                            }
                        }
                    }
                });
            }
        });
        (addr, handle)
    }

    #[test]
    fn spec_grammar_round_trips() {
        let s = spec("delay:4,drop:7:s2c, duplicate:9:c2s");
        assert_eq!(s.faults.len(), 3);
        assert_eq!(
            s.faults[0],
            ChaosFault {
                kind: ChaosKind::Delay,
                frame: 4,
                dir: ChaosDir::C2s,
                conn: None,
            }
        );
        assert_eq!(s.faults[1].dir, ChaosDir::S2c);
        assert!(ChaosSpec::parse("").is_err());
        assert!(ChaosSpec::parse("detonate:3").is_err());
        assert!(ChaosSpec::parse("drop").is_err());
        assert!(ChaosSpec::parse("drop:x").is_err());
        assert!(ChaosSpec::parse("drop:1:sideways").is_err());
        assert!(ChaosSpec::parse("drop:1:c2s:extra").is_err());
    }

    #[test]
    fn spec_grammar_accepts_per_connection_targets() {
        let s = spec("drop:2:s2c:1,corrupt:0:c2s:3");
        assert_eq!(
            s.faults[0],
            ChaosFault {
                kind: ChaosKind::Drop,
                frame: 2,
                dir: ChaosDir::S2c,
                conn: Some(1),
            }
        );
        assert_eq!(s.faults[1].conn, Some(3));
        assert!(ChaosSpec::parse("drop:1:c2s:first").is_err());
        assert!(ChaosSpec::parse("drop:1:c2s:0:extra").is_err());
    }

    #[test]
    fn from_env_warns_and_defaults_on_garbage() {
        std::env::set_var("YF_CHAOS_TEST_SENTINEL", "1");
        std::env::remove_var("YF_CHAOS");
        assert_eq!(ChaosSpec::from_env(), None, "unset means no chaos");
        std::env::set_var("YF_CHAOS", "explode:now");
        assert_eq!(ChaosSpec::from_env(), None, "malformed warns and defaults");
        std::env::set_var("YF_CHAOS", "drop:3:s2c");
        std::env::set_var("YF_CHAOS_DELAY_MS", "5");
        let s = ChaosSpec::from_env().unwrap();
        assert_eq!(s.faults[0].frame, 3);
        assert_eq!(s.delay, Duration::from_millis(5));
        std::env::remove_var("YF_CHAOS");
        std::env::remove_var("YF_CHAOS_DELAY_MS");
        std::env::remove_var("YF_CHAOS_TEST_SENTINEL");
    }

    #[test]
    fn duplicate_and_corrupt_and_drop_fire_once_at_their_frames() {
        let (upstream, _server) = echo_server();
        let proxy = ChaosProxy::start(upstream, spec("duplicate:1,corrupt:3,drop:5")).unwrap();
        let stream = TcpStream::connect(proxy.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut got = Vec::new();
        // Frames 0..=4; frame 1 duplicates, frame 3 corrupts, frame 5
        // (the 6th send) hits drop.
        for i in 0..5 {
            writeln!(writer, "frame-{i}").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            got.push(line.trim().to_string());
        }
        // The duplicate of frame-1 is still queued; read it.
        let mut dup = String::new();
        reader.read_line(&mut dup).unwrap();
        assert_eq!(got[0], "frame-0");
        assert_eq!(got[1], "frame-1");
        assert!(
            got.contains(&"frame-1".to_string()),
            "duplicate forwarded twice"
        );
        assert!(
            got.iter()
                .chain(std::iter::once(&dup.trim().to_string()))
                .any(|l| l.contains("#chaos-corrupt#")),
            "corrupt frame surfaced: {got:?} + {dup:?}"
        );
        writeln!(writer, "frame-5").unwrap();
        let mut line = String::new();
        // Dropped: the connection dies instead of echoing.
        assert!(matches!(reader.read_line(&mut line), Ok(0) | Err(_)));
    }

    #[test]
    fn per_connection_faults_hit_the_targeted_connection_only() {
        let (upstream, _server) = echo_server();
        // Corrupt frame 1 of connection 1 (accept order). Connection 0
        // sends the same frame indices and must sail through.
        let proxy = ChaosProxy::start(upstream, spec("corrupt:1:c2s:1")).unwrap();

        let first = TcpStream::connect(proxy.local_addr()).unwrap();
        let mut first_reader = BufReader::new(first.try_clone().unwrap());
        let mut first_writer = first;
        // Drive connection 0 past frame 1 before opening connection 1,
        // so accept order (and global counters) are deterministic.
        for i in 0..3 {
            writeln!(first_writer, "a-{i}").unwrap();
            let mut line = String::new();
            first_reader.read_line(&mut line).unwrap();
            assert_eq!(
                line.trim(),
                format!("a-{i}"),
                "untargeted connection intact"
            );
        }

        let second = TcpStream::connect(proxy.local_addr()).unwrap();
        let mut second_reader = BufReader::new(second.try_clone().unwrap());
        let mut second_writer = second;
        writeln!(second_writer, "b-0").unwrap();
        let mut line = String::new();
        second_reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "b-0", "frame 0 of conn 1 unharmed");
        writeln!(second_writer, "b-1").unwrap();
        line.clear();
        second_reader.read_line(&mut line).unwrap();
        assert!(
            line.contains("#chaos-corrupt#"),
            "frame 1 of conn 1 corrupted, got {line:?}"
        );
    }

    #[test]
    fn blackhole_swallows_from_its_frame_but_keeps_the_connection() {
        let (upstream, _server) = echo_server();
        let proxy = ChaosProxy::start(upstream, spec("blackhole:1")).unwrap();
        let stream = TcpStream::connect(proxy.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writeln!(writer, "before").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "before");
        writeln!(writer, "vanishes").unwrap();
        line.clear();
        // The frame is swallowed: the read must time out, not see EOF.
        let err = reader.read_line(&mut line).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "expected a silent stall, got {err:?}"
        );
    }
}
