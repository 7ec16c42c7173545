//! The wire dialect shared by every yf process boundary.
//!
//! The fleet coordinator/worker protocol (PR 7) and the `yf-serve` tuning
//! service speak the same dialect, factored here so the two
//! cannot drift:
//!
//! - [`json`]: a minimal self-contained line-JSON reader/writer (the
//!   build environment is offline, so no serde). Numbers keep their raw
//!   literal text; floats never travel as decimals. Every `f32`/`f64`
//!   crosses a process or machine boundary as its hex bit pattern inside
//!   a JSON string, written by `yf_tensor::hex`, so NaN payloads, signed
//!   zeros, and ±inf round-trip bit-for-bit and results merged across
//!   processes are bitwise identical to in-process ones.
//! - [`line`](mod@line): the size-capped line reader every yf stream
//!   is read through; a line that is not UTF-8 is a typed error that
//!   leaves the stream in sync.
//! - [`fsio`]: crash-safe file primitives — atomic (tmp + fsync +
//!   rename) writes and checksum-sealed loads that reject torn files
//!   with typed errors. Fleet checkpoints/results and serve session
//!   snapshots both live behind these.
//! - [`log`]: the durable append-only log — one self-checking line per
//!   record, one `fdatasync` per append, and a torn tail cut on open.
//!   Serve session logs and the fleet journal both live behind it.
//! - [`sigpipe`]: explicit SIGPIPE suppression so a broken pipe is an
//!   `EPIPE` error to shed, never a process death.

pub mod fsio;
pub mod json;
pub mod line;
pub mod log;
pub mod sigpipe;

pub use json::{Json, JsonError};
