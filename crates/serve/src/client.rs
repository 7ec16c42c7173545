//! A small blocking client for the serve protocol, hardened for real
//! networks.
//!
//! One TCP connection, synchronous request/reply per call. This is the
//! low-level building block: the `yf-experiments` crate wraps it in a
//! remote `Optimizer` so a trainer loop can consume served
//! hyperparameters without knowing the protocol exists.
//!
//! Hardening contract:
//!
//! - every connect, read, and write carries a deadline
//!   ([`ClientConfig`], `YF_SERVE_CLIENT_*` knobs) — a dead or
//!   partitioned server surfaces as [`ClientError::Timeout`], never a
//!   hang;
//! - reply matching is by `(session, step)`, and stale frames (the
//!   duplicate replies a retried or chaos-duplicated request produces)
//!   are skipped, not misattributed;
//! - after any [`ClientError::Io`] / [`ClientError::Timeout`] the
//!   connection must be considered poisoned — a timed-out read may have
//!   consumed a partial frame — and replaced via a fresh
//!   [`Client::connect_with`]; [`Backoff`] provides the deterministic
//!   capped-exponential schedule for those retries.
//!
//! ## Lock-step measurements
//!
//! Every measurement is one JSON line, and [`Client::measure`] waits for
//! its verdict before the next is sent (lock-step): its callers need
//! the verdict to produce the next gradient. [`Client::measure_stats`]
//! sends YellowFin's four scalars instead of the gradient and shares
//! the same verdict loop.

use crate::proto::{ClientFrame, OpenSpec, ProtoError, ServerFrame};
use std::fmt;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;
use yf_optim::Hyper;
use yf_tensor::env;
use yf_wire::line::{self, ReadError};

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, or server hang-up).
    Io(io::Error),
    /// A deadline expired (connect, read, or write). The connection may
    /// have lost a partial frame; reconnect before reusing the session.
    Timeout(io::Error),
    /// The server sent a frame this client cannot parse, or one that
    /// makes no sense for the pending request.
    Protocol(String),
    /// The server answered with an `error` frame.
    Server(String),
    /// The request names something this client does not drive (a
    /// remote tuner opened on an optimizer other than `yellowfin`); no
    /// connection was made.
    Unsupported(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "serve client i/o: {e}"),
            ClientError::Timeout(e) => write!(f, "serve client deadline: {e}"),
            ClientError::Protocol(m) => write!(f, "serve client protocol: {m}"),
            ClientError::Server(m) => write!(f, "serve server error: {m}"),
            ClientError::Unsupported(m) => write!(f, "serve client unsupported: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        // Deadline expiry is WouldBlock or TimedOut depending on the
        // platform's socket-timeout reporting; fold both into the typed
        // Timeout variant so callers can branch on it.
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ClientError::Timeout(e),
            _ => ClientError::Io(e),
        }
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> ClientError {
        ClientError::Protocol(e.to_string())
    }
}

/// Deadlines for one client connection. [`ClientConfig::from_env`]
/// layers the `YF_SERVE_CLIENT_*` knobs over these defaults with the
/// workspace's warn-and-default parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Deadline for establishing the TCP connection.
    pub connect_timeout: Duration,
    /// Deadline for each blocking read (one reply frame).
    pub read_timeout: Duration,
    /// Deadline for each blocking write (one request frame).
    pub write_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(5),
        }
    }
}

impl ClientConfig {
    /// The defaults with `YF_SERVE_CLIENT_CONNECT_MS`, `_READ_MS`, and
    /// `_WRITE_MS` applied (hardened parsing: malformed values warn on
    /// stderr and fall back).
    pub fn from_env() -> ClientConfig {
        let mut cfg = ClientConfig::default();
        let ms = |raw: &str| raw.trim().parse::<u64>().ok().filter(|&n| n > 0);
        if let Some(n) = env::parse_with("YF_SERVE_CLIENT_CONNECT_MS", ms) {
            cfg.connect_timeout = Duration::from_millis(n);
        }
        if let Some(n) = env::parse_with("YF_SERVE_CLIENT_READ_MS", ms) {
            cfg.read_timeout = Duration::from_millis(n);
        }
        if let Some(n) = env::parse_with("YF_SERVE_CLIENT_WRITE_MS", ms) {
            cfg.write_timeout = Duration::from_millis(n);
        }
        cfg
    }
}

/// A deterministic capped-exponential retry schedule: attempt `i`
/// (zero-based) waits `min(base * 2^i, cap)`. No jitter — reconnect
/// timing is part of the reproducible-failure story, the same way
/// `YF_FAULT`/`YF_CHAOS` schedules are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// First retry delay.
    pub base: Duration,
    /// Ceiling for every later delay.
    pub cap: Duration,
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff {
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
        }
    }
}

impl Backoff {
    /// The delay before retry `attempt` (zero-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        let factor = 2u32.saturating_pow(attempt.min(20));
        self.base.saturating_mul(factor).min(self.cap)
    }
}

/// The server's verdict on one measurement, client side.
#[derive(Debug, Clone, PartialEq)]
pub enum MeasureReply {
    /// Accepted: apply these hyperparameters this step.
    Tuned { hyper: Hyper, clamped: bool },
    /// Rejected by the quality filter: skip the tuned update this step
    /// (the step still counted server-side).
    Rejected { reason: String },
}

/// A blocking serve-protocol client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running server with the environment-configured
    /// deadlines ([`ClientConfig::from_env`]).
    ///
    /// # Errors
    ///
    /// Transport errors from the connect.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Client::connect_with(addr, &ClientConfig::from_env())
    }

    /// Connects with explicit deadlines. Every resolved address is
    /// tried in order, each under `cfg.connect_timeout`; the last
    /// failure is returned if none accepts.
    ///
    /// # Errors
    ///
    /// Transport errors from the connect; [`ClientError::Timeout`] when
    /// the deadline expired.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        cfg: &ClientConfig,
    ) -> Result<Client, ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let mut last: io::Error =
            io::Error::new(io::ErrorKind::AddrNotAvailable, "no addresses resolved");
        for a in &addrs {
            match TcpStream::connect_timeout(a, cfg.connect_timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(cfg.read_timeout))?;
                    stream.set_write_timeout(Some(cfg.write_timeout))?;
                    let reader = BufReader::new(stream.try_clone()?);
                    return Ok(Client {
                        reader,
                        writer: stream,
                    });
                }
                Err(e) => last = e,
            }
        }
        Err(last.into())
    }

    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// Transport errors from the write; [`ClientError::Timeout`] when
    /// the write deadline expired.
    pub fn send(&mut self, frame: &ClientFrame) -> Result<(), ClientError> {
        let mut line = frame.to_line();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        Ok(())
    }

    /// Blocks (up to the read deadline) for the next server frame.
    ///
    /// # Errors
    ///
    /// Transport errors, EOF (server hang-up), unparseable frames, or
    /// [`ClientError::Timeout`]. After a timeout the connection is
    /// poisoned (a partial frame may have been consumed): reconnect.
    pub fn recv(&mut self) -> Result<ServerFrame, ClientError> {
        match line::read_line(&mut self.reader) {
            Ok(None) => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
            Ok(Some(line)) => Ok(ServerFrame::from_line(&line)?),
            Err(ReadError::Io(e)) => Err(e.into()),
            Err(e) => Err(ClientError::Protocol(e.to_string())),
        }
    }

    /// Opens (or resumes) a session; returns the step index the server
    /// expects next — 0 for a fresh session, the replay point after a
    /// resume. Stale replies to earlier requests (duplicates left over
    /// from a chaotic network) are skipped, not misread.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] relays the server's rejection reason.
    pub fn open(&mut self, spec: OpenSpec) -> Result<u64, ClientError> {
        let name = spec.session.clone();
        self.send(&ClientFrame::Open { spec })?;
        loop {
            match self.recv()? {
                ServerFrame::Opened { session, step } if session == name => return Ok(step),
                // Leftover replies to requests sent before this open
                // (duplicated or late frames): skip.
                ServerFrame::Opened { .. }
                | ServerFrame::Tuned { .. }
                | ServerFrame::Rejected { .. }
                | ServerFrame::Pong { .. }
                | ServerFrame::Closed { .. } => {}
                ServerFrame::Error { message, .. } => return Err(ClientError::Server(message)),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "expected opened, got {other:?}"
                    )))
                }
            }
        }
    }

    /// Streams one measurement as a full frame and blocks for the
    /// verdict for exactly `(session, step)`.
    /// Replies to earlier steps — duplicates from retries or a chaotic
    /// network — are skipped; a reply for this or a later step that is
    /// not ours is a protocol error.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] relays per-frame errors (step mismatch,
    /// unknown session); transport errors surface as
    /// [`ClientError::Io`] / [`ClientError::Timeout`].
    pub fn measure(
        &mut self,
        session: &str,
        step: u64,
        loss: f32,
        grads: &[f32],
    ) -> Result<MeasureReply, ClientError> {
        self.send(&ClientFrame::Measure {
            session: session.to_string(),
            step,
            loss,
            grads: grads.to_vec(),
        })?;
        self.verdict(session, step)
    }

    /// Streams one `measure_stats` frame — the raw gradient's `sumsq`
    /// and the variance total `var_sum` of the caller's own moments —
    /// and blocks for its verdict exactly as [`Client::measure`] does.
    ///
    /// # Errors
    ///
    /// As for [`Client::measure`]; the server also refuses stats frames
    /// for baseline optimizers and for sessions fed gradients.
    pub fn measure_stats(
        &mut self,
        session: &str,
        step: u64,
        loss: f32,
        sumsq: f64,
        var_sum: f64,
    ) -> Result<MeasureReply, ClientError> {
        self.send(&ClientFrame::MeasureStats {
            session: session.to_string(),
            step,
            loss,
            sumsq,
            var_sum,
        })?;
        self.verdict(session, step)
    }

    /// Blocks for the verdict on `(session, step)`, skipping stale
    /// replies to earlier steps.
    fn verdict(&mut self, session: &str, step: u64) -> Result<MeasureReply, ClientError> {
        loop {
            let (s, t, reply) = match self.recv()? {
                ServerFrame::Tuned {
                    session: s,
                    step: t,
                    hyper,
                    clamped,
                } => (s, t, MeasureReply::Tuned { hyper, clamped }),
                ServerFrame::Rejected {
                    session: s,
                    step: t,
                    reason,
                } => (s, t, MeasureReply::Rejected { reason }),
                // A late opened/pong from before this request: skip.
                ServerFrame::Opened { .. } | ServerFrame::Pong { .. } => continue,
                ServerFrame::Error { message, .. } => return Err(ClientError::Server(message)),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "expected hyper/rejected, got {other:?}"
                    )))
                }
            };
            if s == session && t == step {
                return Ok(reply);
            }
            if t >= step {
                return Err(ClientError::Protocol(format!(
                    "verdict for {s:?} step {t}, expected {session:?} step {step}"
                )));
            }
            // t < step: stale duplicate; skip.
        }
    }

    /// Detaches a session (it persists server-side and can be
    /// re-opened).
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when the session is not open here.
    pub fn close_session(&mut self, session: &str) -> Result<(), ClientError> {
        self.send(&ClientFrame::Close {
            session: session.to_string(),
        })?;
        loop {
            match self.recv()? {
                ServerFrame::Closed { .. } => return Ok(()),
                // Stale measurement replies still in flight: skip.
                ServerFrame::Tuned { .. } | ServerFrame::Rejected { .. } => {}
                ServerFrame::Error { message, .. } => return Err(ClientError::Server(message)),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "expected closed, got {other:?}"
                    )))
                }
            }
        }
    }

    /// Heartbeat round-trip. Pongs for earlier tokens are stale
    /// duplicates and are skipped.
    ///
    /// # Errors
    ///
    /// Transport or protocol errors.
    pub fn ping(&mut self, token: u64) -> Result<(), ClientError> {
        self.send(&ClientFrame::Ping { token })?;
        loop {
            match self.recv()? {
                ServerFrame::Pong { token: t } if t == token => return Ok(()),
                // Stale replies (including pongs to earlier tokens).
                ServerFrame::Tuned { .. }
                | ServerFrame::Rejected { .. }
                | ServerFrame::Pong { .. } => {}
                other => {
                    return Err(ClientError::Protocol(format!(
                        "expected pong, got {other:?}"
                    )))
                }
            }
        }
    }

    /// Asks the server to drain (unload everything and shut down).
    /// Returns the number of sessions unloaded.
    ///
    /// # Errors
    ///
    /// Transport or protocol errors.
    pub fn drain(&mut self) -> Result<u64, ClientError> {
        self.send(&ClientFrame::Drain)?;
        loop {
            match self.recv()? {
                ServerFrame::Draining { sessions } => return Ok(sessions),
                ServerFrame::Tuned { .. } | ServerFrame::Rejected { .. } => {}
                other => {
                    return Err(ClientError::Protocol(format!(
                        "expected draining, got {other:?}"
                    )))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_deterministic_and_capped() {
        let b = Backoff {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(100),
        };
        assert_eq!(b.delay(0), Duration::from_millis(10));
        assert_eq!(b.delay(1), Duration::from_millis(20));
        assert_eq!(b.delay(2), Duration::from_millis(40));
        assert_eq!(b.delay(3), Duration::from_millis(80));
        assert_eq!(b.delay(4), Duration::from_millis(100), "capped");
        assert_eq!(b.delay(60), Duration::from_millis(100), "no overflow");
    }

    #[test]
    fn timeouts_are_typed_not_generic_io() {
        let wb: ClientError = io::Error::new(io::ErrorKind::WouldBlock, "t").into();
        assert!(matches!(wb, ClientError::Timeout(_)));
        let to: ClientError = io::Error::new(io::ErrorKind::TimedOut, "t").into();
        assert!(matches!(to, ClientError::Timeout(_)));
        let other: ClientError = io::Error::new(io::ErrorKind::BrokenPipe, "t").into();
        assert!(matches!(other, ClientError::Io(_)));
    }

    #[test]
    fn client_config_env_knobs_use_hardened_parsing() {
        std::env::set_var("YF_SERVE_CLIENT_CONNECT_MS", "250");
        std::env::set_var("YF_SERVE_CLIENT_READ_MS", "soon");
        let cfg = ClientConfig::from_env();
        assert_eq!(cfg.connect_timeout, Duration::from_millis(250));
        assert_eq!(
            cfg.read_timeout,
            ClientConfig::default().read_timeout,
            "malformed falls back"
        );
        std::env::remove_var("YF_SERVE_CLIENT_CONNECT_MS");
        std::env::remove_var("YF_SERVE_CLIENT_READ_MS");
    }

    #[test]
    fn connecting_to_a_dead_port_fails_fast() {
        // Bind-then-drop picks a port that refuses connections.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let cfg = ClientConfig {
            connect_timeout: Duration::from_millis(500),
            ..ClientConfig::default()
        };
        let start = std::time::Instant::now();
        let err = match Client::connect_with(("127.0.0.1", port), &cfg) {
            Err(e) => e,
            Ok(_) => panic!("a dropped listener's port must refuse the connect"),
        };
        assert!(matches!(err, ClientError::Io(_) | ClientError::Timeout(_)));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "a refused/dead port must not hang the connect"
        );
    }
}
