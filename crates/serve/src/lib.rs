//! # yf-serve: tuning-as-a-service over TCP
//!
//! A long-running server hosting many concurrent YellowFin tuning
//! sessions. Clients speak the shared [`yf_wire`] dialect — one JSON
//! frame per line, floats as hex bit patterns, read through the capped
//! [`yf_wire::line`] reader: open a session naming an optimizer and a
//! safety envelope, stream `(step, loss, gradient)` measurements — or,
//! for YellowFin, the four scalars `(step, loss, Σg², C)` its tuning
//! decision reads — and receive the tuned, authority-clamped `(lr,
//! momentum, grad_scale)` for every accepted step. The trainer keeps
//! the apply phase (its velocity state never leaves the process); the
//! server runs the same measure pipeline an in-process tuner would, so
//! the served stream is bitwise identical to local tuning.
//!
//! The pieces, bottom up:
//!
//! - [`proto`]: the wire frames ([`proto::ClientFrame`],
//!   [`proto::ServerFrame`]).
//! - [`registry`]: optimizer names the server can host.
//! - [`authority`]: per-update excursion limits and absolute bounds —
//!   the server never serves a hyperparameter outside the envelope the
//!   client declared at open.
//! - [`filter`]: the data-quality gate (adaptive outlier rejection
//!   seeded from the paper's Eq. 35 clipping threshold) screening every
//!   measurement before it can touch the tuner's statistics.
//! - [`session`]: one hosted session; deterministic, so replaying a
//!   measurement stream reproduces the served stream bit-for-bit. A
//!   yellowfin session fed stats frames holds O(window) state.
//! - [`snapshot`]: sealed, atomically-replaced per-session state files.
//! - [`server`]: the TCP front end — bounded compute permits, bounded
//!   per-connection outbound queues with slow-client shedding, idle
//!   reaping, graceful drain, and SIGKILL-safe durability: a session's
//!   snapshot plus a [`yf_wire::log`] of the frames accepted since.
//! - [`client`]: a small blocking client with connect/read/write
//!   deadlines and a deterministic reconnect backoff schedule; it sends
//!   each measurement as one full frame and waits for its verdict
//!   (lock-step).
//! - [`chaos`]: a deterministic fault-injecting TCP proxy (`YF_CHAOS`)
//!   for testing every layer above against reproducible network
//!   failures.

pub mod authority;
pub mod chaos;
pub mod client;
pub mod filter;
pub mod proto;
pub mod registry;
pub mod server;
pub mod session;
pub mod snapshot;

pub use authority::Authority;
pub use chaos::{ChaosDir, ChaosFault, ChaosKind, ChaosProxy, ChaosSpec};
pub use client::{Backoff, Client, ClientConfig, ClientError, MeasureReply};
pub use filter::{FilterSpec, QualityFilter};
pub use proto::{ClientFrame, OpenSpec, ProtoError, ServerFrame};
pub use server::{ServeConfig, Server};
pub use session::{Outcome, Session};
pub use snapshot::SessionSnapshot;
