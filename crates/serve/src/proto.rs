//! The serve wire protocol: line-delimited JSON frames in the shared
//! [`yf_wire`] dialect (floats as [`yf_tensor::hex`] bit patterns, one
//! frame per line), plus a binary fast path for the data plane.
//!
//! A client opens named sessions over one TCP connection and streams
//! per-step measurements; the server answers each accepted measurement
//! with the tuned, authority-clamped [`Hyper`] for that step. Frames are
//! self-describing (`"type"` field, or the binary magic byte), so one
//! connection freely interleaves traffic for many sessions.
//!
//! Client → server: `open`, `measure`, `measure_stats`, `close`, `ping`,
//! `drain`. Server → client: `opened`, `hyper`, `rejected`, `closed`,
//! `pong`, `draining`, `error`.
//!
//! ## Two measurement frames
//!
//! - `measure` carries the full flat gradient; any hosted optimizer
//!   takes it.
//! - `measure_stats` carries the four scalars YellowFin's tuning
//!   decision reads — `(step, loss, sumsq, var_sum)`, that is `Σg²` and
//!   the variance total `C` of the client's own gradient moments — as
//!   one JSON line of about 130 bytes whatever the model dimension. Only
//!   yellowfin sessions take it, and a session takes one kind of
//!   measurement frame for its whole life. It is a JSON line on either
//!   dialect, answered by the same `hyper`/`rejected` frames.
//!
//! ## Dialects
//!
//! Control frames (everything except `measure`/`hyper`/`rejected`)
//! always travel as JSON lines — they are rare, small, and worth
//! keeping greppable. The gradient *data plane* has two encodings,
//! negotiated per connection at `open`:
//!
//! - **json** (default): the PR 8 line protocol, hex-bit floats.
//! - **binary**: [`yf_wire::binary`] frames with raw little-endian f32
//!   bit patterns — `measure` ([`TAG_MEASURE`]), `hyper`
//!   ([`TAG_TUNED`]) and `rejected` ([`TAG_REJECTED`]). Every
//!   measurement carries its full gradient; tag 2 (a retired
//!   gradient-delta frame) is an unknown tag.
//!
//! A client requests the binary dialect with `"wire":"binary"` in its
//! `open` frame; the server echoes the dialect it will actually speak
//! in `opened`. Peers that never send the field get byte-identical
//! PR 8 behavior. The server answers each data frame in the dialect
//! the frame arrived in, so negotiation is a client-side capability
//! probe, not a mode switch.

use crate::authority::Authority;
use crate::filter::FilterSpec;
use std::fmt;
use yf_optim::Hyper;
use yf_tensor::env;
use yf_tensor::hex::{f32_hex, f32_row, f32_unhex, f32_unrow, f64_hex, f64_unhex, HexError};
use yf_wire::binary::{self, BinError, Builder, Cursor};
use yf_wire::json::{self, Json, JsonError};

/// Error decoding a protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtoError(String);

impl ProtoError {
    fn new(msg: impl Into<String>) -> ProtoError {
        ProtoError(msg.into())
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid serve frame: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

impl From<JsonError> for ProtoError {
    fn from(e: JsonError) -> ProtoError {
        ProtoError(e.to_string())
    }
}

impl From<HexError> for ProtoError {
    fn from(e: HexError) -> ProtoError {
        ProtoError(e.to_string())
    }
}

impl From<BinError> for ProtoError {
    fn from(e: BinError) -> ProtoError {
        ProtoError(e.to_string())
    }
}

/// The data-plane encoding a connection speaks. Control frames are
/// JSON in either dialect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireDialect {
    /// Line JSON with hex-bit floats (the PR 8 protocol; default).
    #[default]
    Json,
    /// [`yf_wire::binary`] frames with raw LE f32 payloads.
    Binary,
}

impl WireDialect {
    /// The wire spelling, as carried in `open`/`opened` frames and
    /// recorded in perf-report headers.
    pub fn as_str(self) -> &'static str {
        match self {
            WireDialect::Json => "json",
            WireDialect::Binary => "binary",
        }
    }

    /// The dialect clients request by default, from `YF_SERVE_WIRE`
    /// (`json` or `binary`). Unset or unparseable values fall back to
    /// [`WireDialect::Json`] with a warning, never a panic.
    pub fn from_env() -> WireDialect {
        env::parse_with("YF_SERVE_WIRE", |raw| match raw.trim() {
            "json" => Some(WireDialect::Json),
            "binary" => Some(WireDialect::Binary),
            _ => None,
        })
        .unwrap_or_default()
    }
}

/// Parses the optional `"wire"` field of `open`/`opened` frames.
/// Absent means JSON (the pre-negotiation protocol); unknown values
/// also mean JSON, so a peer requesting a dialect we do not know is
/// answered in the one every peer speaks.
fn wire_field(v: &Json) -> WireDialect {
    match v.get("wire").and_then(Json::as_str) {
        Some("binary") => WireDialect::Binary,
        _ => WireDialect::Json,
    }
}

/// Everything the server needs to host a session: the optimizer choice
/// and the safety envelope it runs inside. The spec is part of the
/// session's identity — resuming from a snapshot requires a bitwise
/// match.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenSpec {
    /// Client-chosen session name (also the snapshot file stem), limited
    /// to `[A-Za-z0-9._-]`.
    pub session: String,
    /// Registry optimizer name (`"yellowfin"`, `"momentum"`, ...).
    pub optimizer: String,
    /// The optimizer's grid value: the learning rate, or the lr factor
    /// for YellowFin.
    pub value: f32,
    /// Flat gradient dimension every `measure` frame must carry.
    pub dim: usize,
    /// Authority limits clamping each tuned update.
    pub authority: Authority,
    /// Data-quality filter configuration.
    pub filter: FilterSpec,
}

impl OpenSpec {
    /// True when two specs are bit-identical (name excluded): the
    /// resume-compatibility check.
    pub fn matches(&self, other: &OpenSpec) -> bool {
        self.optimizer == other.optimizer
            && self.value.to_bits() == other.value.to_bits()
            && self.dim == other.dim
            && self.authority.bits() == other.authority.bits()
            && self.filter.bits() == other.filter.bits()
    }

    /// Validates the session name and the nested configs.
    ///
    /// # Errors
    ///
    /// A human-readable reason, relayed to the client as an `error`
    /// frame.
    pub fn validate(&self) -> Result<(), String> {
        if self.session.is_empty() || self.session.len() > 128 {
            return Err("session name must be 1..=128 characters".to_string());
        }
        if !self
            .session
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
        {
            return Err(format!(
                "session name {:?} has characters outside [A-Za-z0-9._-]",
                self.session
            ));
        }
        if self.dim == 0 {
            return Err("dim must be positive".to_string());
        }
        self.authority.validate()?;
        self.filter.validate()
    }
}

/// A frame travelling client → server.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientFrame {
    /// Create, re-attach, or resume-from-snapshot a named session.
    /// `wire` is the data-plane dialect this connection would like to
    /// speak; JSON-only clients omit the field (and the encoder omits
    /// it for them, keeping their bytes identical to PR 8).
    Open { spec: OpenSpec, wire: WireDialect },
    /// One measurement: the session's next step index, the minibatch
    /// loss, and the full flat gradient.
    Measure {
        session: String,
        step: u64,
        loss: f32,
        grads: Vec<f32>,
    },
    /// One measurement as YellowFin's scalar statistics: the raw
    /// gradient's `Σg²` and the variance total `C` after the client's
    /// own moment sweep for this step.
    MeasureStats {
        session: String,
        step: u64,
        loss: f32,
        sumsq: f64,
        var_sum: f64,
    },
    /// Detach a session (its snapshot and log survive for a later
    /// re-open).
    Close { session: String },
    /// Heartbeat; keeps this connection's sessions from idle-reaping.
    Ping { token: u64 },
    /// Stop accepting, unload every session, shut the server down.
    Drain,
}

/// A frame travelling server → client.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerFrame {
    /// Session ready; `step` is the next measurement index the server
    /// expects (0 for a fresh session, the resume point otherwise).
    /// `wire` echoes the data-plane dialect the server will speak on
    /// this connection; the field is omitted on the wire for JSON, so
    /// JSON-only peers see byte-identical PR 8 frames.
    Opened {
        session: String,
        step: u64,
        wire: WireDialect,
    },
    /// The authority-clamped hyperparameters tuned from an accepted
    /// measurement. `clamped` reports whether the authority layer
    /// altered the tuner's raw proposal.
    Tuned {
        session: String,
        step: u64,
        hyper: Hyper,
        clamped: bool,
    },
    /// The measurement was rejected by the data-quality filter; the step
    /// still counts (replay the same frame on resume).
    Rejected {
        session: String,
        step: u64,
        reason: String,
    },
    /// Clean close acknowledgment.
    Closed { session: String },
    /// Heartbeat reply.
    Pong { token: u64 },
    /// Drain acknowledged; `sessions` sessions were unloaded.
    Draining { sessions: u64 },
    /// A per-frame failure (bad spec, unknown session, step mismatch).
    /// The connection survives; the offending frame had no effect.
    Error {
        session: Option<String>,
        message: String,
    },
}

fn authority_json(a: &Authority) -> Json {
    Json::obj(vec![
        ("max_lr_step", Json::str(f32_hex(a.max_lr_step))),
        ("max_momentum_step", Json::str(f32_hex(a.max_momentum_step))),
        ("lr_min", Json::str(f32_hex(a.lr_min))),
        ("lr_max", Json::str(f32_hex(a.lr_max))),
        ("momentum_min", Json::str(f32_hex(a.momentum_min))),
        ("momentum_max", Json::str(f32_hex(a.momentum_max))),
    ])
}

fn authority_from(v: &Json) -> Result<Authority, ProtoError> {
    Ok(Authority {
        max_lr_step: f32_unhex(v.str_field("max_lr_step")?)?,
        max_momentum_step: f32_unhex(v.str_field("max_momentum_step")?)?,
        lr_min: f32_unhex(v.str_field("lr_min")?)?,
        lr_max: f32_unhex(v.str_field("lr_max")?)?,
        momentum_min: f32_unhex(v.str_field("momentum_min")?)?,
        momentum_max: f32_unhex(v.str_field("momentum_max")?)?,
    })
}

fn filter_json(f: &FilterSpec) -> Json {
    Json::obj(vec![
        ("window", Json::u64(f.window as u64)),
        ("beta", Json::str(f64_hex(f.beta))),
        ("tolerance", Json::str(f64_hex(f.tolerance))),
    ])
}

fn filter_from(v: &Json) -> Result<FilterSpec, ProtoError> {
    Ok(FilterSpec {
        window: v.u64_field("window")? as usize,
        beta: f64_unhex(v.str_field("beta")?)?,
        tolerance: f64_unhex(v.str_field("tolerance")?)?,
    })
}

fn bool_field(v: &Json, key: &str) -> Result<bool, ProtoError> {
    match v.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(ProtoError::new(format!("missing bool field {key:?}"))),
    }
}

impl ClientFrame {
    /// Serializes to one newline-free JSON line.
    pub fn to_line(&self) -> String {
        let json = match self {
            ClientFrame::Open { spec, wire } => {
                let mut pairs = vec![
                    ("type", Json::str("open")),
                    ("session", Json::str(&spec.session)),
                    ("optimizer", Json::str(&spec.optimizer)),
                    ("value", Json::str(f32_hex(spec.value))),
                    ("dim", Json::u64(spec.dim as u64)),
                    ("authority", authority_json(&spec.authority)),
                    ("filter", filter_json(&spec.filter)),
                ];
                if *wire != WireDialect::Json {
                    pairs.push(("wire", Json::str(wire.as_str())));
                }
                Json::obj(pairs)
            }
            ClientFrame::Measure {
                session,
                step,
                loss,
                grads,
            } => Json::obj(vec![
                ("type", Json::str("measure")),
                ("session", Json::str(session)),
                ("step", Json::u64(*step)),
                ("loss", Json::str(f32_hex(*loss))),
                ("grads", Json::str(f32_row(grads))),
            ]),
            ClientFrame::MeasureStats {
                session,
                step,
                loss,
                sumsq,
                var_sum,
            } => Json::obj(vec![
                ("type", Json::str("measure_stats")),
                ("session", Json::str(session)),
                ("step", Json::u64(*step)),
                ("loss", Json::str(f32_hex(*loss))),
                ("sumsq", Json::str(f64_hex(*sumsq))),
                ("var_sum", Json::str(f64_hex(*var_sum))),
            ]),
            ClientFrame::Close { session } => Json::obj(vec![
                ("type", Json::str("close")),
                ("session", Json::str(session)),
            ]),
            ClientFrame::Ping { token } => Json::obj(vec![
                ("type", Json::str("ping")),
                ("token", Json::u64(*token)),
            ]),
            ClientFrame::Drain => Json::obj(vec![("type", Json::str("drain"))]),
        };
        json.to_string()
    }

    /// Parses one line.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on malformed JSON, unknown type, or bad payloads.
    pub fn from_line(line: &str) -> Result<ClientFrame, ProtoError> {
        let v = json::parse(line)?;
        match v.str_field("type")? {
            "open" => {
                // Authority/filter omitted on the wire mean "defaults":
                // the effective values still travel in every snapshot.
                let authority = match v.get("authority") {
                    Some(a) => authority_from(a)?,
                    None => Authority::default(),
                };
                let filter = match v.get("filter") {
                    Some(f) => filter_from(f)?,
                    None => FilterSpec::default(),
                };
                Ok(ClientFrame::Open {
                    spec: OpenSpec {
                        session: v.str_field("session")?.to_string(),
                        optimizer: v.str_field("optimizer")?.to_string(),
                        value: f32_unhex(v.str_field("value")?)?,
                        dim: v.u64_field("dim")? as usize,
                        authority,
                        filter,
                    },
                    wire: wire_field(&v),
                })
            }
            "measure" => Ok(ClientFrame::Measure {
                session: v.str_field("session")?.to_string(),
                step: v.u64_field("step")?,
                loss: f32_unhex(v.str_field("loss")?)?,
                grads: f32_unrow(v.str_field("grads")?)?,
            }),
            "measure_stats" => Ok(ClientFrame::MeasureStats {
                session: v.str_field("session")?.to_string(),
                step: v.u64_field("step")?,
                loss: f32_unhex(v.str_field("loss")?)?,
                sumsq: f64_unhex(v.str_field("sumsq")?)?,
                var_sum: f64_unhex(v.str_field("var_sum")?)?,
            }),
            "close" => Ok(ClientFrame::Close {
                session: v.str_field("session")?.to_string(),
            }),
            "ping" => Ok(ClientFrame::Ping {
                token: v.u64_field("token")?,
            }),
            "drain" => Ok(ClientFrame::Drain),
            other => Err(ProtoError::new(format!("unknown client frame {other:?}"))),
        }
    }
}

impl ServerFrame {
    /// Serializes to one newline-free JSON line.
    pub fn to_line(&self) -> String {
        let json = match self {
            ServerFrame::Opened {
                session,
                step,
                wire,
            } => {
                let mut pairs = vec![
                    ("type", Json::str("opened")),
                    ("session", Json::str(session)),
                    ("step", Json::u64(*step)),
                ];
                if *wire != WireDialect::Json {
                    pairs.push(("wire", Json::str(wire.as_str())));
                }
                Json::obj(pairs)
            }
            ServerFrame::Tuned {
                session,
                step,
                hyper,
                clamped,
            } => Json::obj(vec![
                ("type", Json::str("hyper")),
                ("session", Json::str(session)),
                ("step", Json::u64(*step)),
                ("lr", Json::str(f32_hex(hyper.lr))),
                ("momentum", Json::str(f32_hex(hyper.momentum))),
                ("grad_scale", Json::str(f32_hex(hyper.grad_scale))),
                ("clamped", Json::Bool(*clamped)),
            ]),
            ServerFrame::Rejected {
                session,
                step,
                reason,
            } => Json::obj(vec![
                ("type", Json::str("rejected")),
                ("session", Json::str(session)),
                ("step", Json::u64(*step)),
                ("reason", Json::str(reason)),
            ]),
            ServerFrame::Closed { session } => Json::obj(vec![
                ("type", Json::str("closed")),
                ("session", Json::str(session)),
            ]),
            ServerFrame::Pong { token } => Json::obj(vec![
                ("type", Json::str("pong")),
                ("token", Json::u64(*token)),
            ]),
            ServerFrame::Draining { sessions } => Json::obj(vec![
                ("type", Json::str("draining")),
                ("sessions", Json::u64(*sessions)),
            ]),
            ServerFrame::Error { session, message } => {
                let mut pairs = vec![("type", Json::str("error"))];
                if let Some(s) = session {
                    pairs.push(("session", Json::str(s)));
                }
                pairs.push(("message", Json::str(message)));
                Json::obj(pairs)
            }
        };
        json.to_string()
    }

    /// Parses one line.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on malformed JSON, unknown type, or bad payloads.
    pub fn from_line(line: &str) -> Result<ServerFrame, ProtoError> {
        let v = json::parse(line)?;
        match v.str_field("type")? {
            "opened" => Ok(ServerFrame::Opened {
                session: v.str_field("session")?.to_string(),
                step: v.u64_field("step")?,
                wire: wire_field(&v),
            }),
            "hyper" => Ok(ServerFrame::Tuned {
                session: v.str_field("session")?.to_string(),
                step: v.u64_field("step")?,
                hyper: Hyper {
                    lr: f32_unhex(v.str_field("lr")?)?,
                    momentum: f32_unhex(v.str_field("momentum")?)?,
                    grad_scale: f32_unhex(v.str_field("grad_scale")?)?,
                },
                clamped: bool_field(&v, "clamped")?,
            }),
            "rejected" => Ok(ServerFrame::Rejected {
                session: v.str_field("session")?.to_string(),
                step: v.u64_field("step")?,
                reason: v.str_field("reason")?.to_string(),
            }),
            "closed" => Ok(ServerFrame::Closed {
                session: v.str_field("session")?.to_string(),
            }),
            "pong" => Ok(ServerFrame::Pong {
                token: v.u64_field("token")?,
            }),
            "draining" => Ok(ServerFrame::Draining {
                sessions: v.u64_field("sessions")?,
            }),
            "error" => Ok(ServerFrame::Error {
                session: v.get("session").and_then(Json::as_str).map(String::from),
                message: v.str_field("message")?.to_string(),
            }),
            other => Err(ProtoError::new(format!("unknown server frame {other:?}"))),
        }
    }
}

/// Binary frame tag: a full-gradient `measure`. Payload layout (all
/// LE): `str16 session | u64 step | u32 loss_bits | u32 count |
/// count x u32 grad_bits`.
pub const TAG_MEASURE: u8 = 1;

/// Binary frame tag: a `hyper` verdict. Payload: `str16 session | u64
/// step | u32 lr_bits | u32 momentum_bits | u32 grad_scale_bits |
/// u8 clamped`.
pub const TAG_TUNED: u8 = 3;

/// Binary frame tag: a `rejected` verdict. Payload: `str16 session |
/// u64 step | str16 reason`.
pub const TAG_REJECTED: u8 = 4;

/// Encodes a full-gradient measurement as one [`TAG_MEASURE`] frame.
pub fn encode_measure(session: &str, step: u64, loss: f32, grads: &[f32]) -> Vec<u8> {
    let mut b = Builder::new();
    b.str16(session)
        .u64(step)
        .u32(loss.to_bits())
        .u32(grads.len() as u32)
        .f32_words(grads);
    binary::frame(TAG_MEASURE, &b.into_payload())
}

/// Decodes a client binary data frame (already [`yf_wire::binary::decode`]d
/// into tag + payload) into the [`ClientFrame::Measure`] it carries.
///
/// # Errors
///
/// [`ProtoError`] on server-only tags, unknown tags, or malformed
/// payloads; never panics.
pub fn decode_bin_measure(tag: u8, payload: &[u8]) -> Result<ClientFrame, ProtoError> {
    let mut c = Cursor::new(payload);
    match tag {
        TAG_MEASURE => {
            let session = c.str16()?.to_string();
            let step = c.u64()?;
            let loss = f32::from_bits(c.u32()?);
            let count = c.u32()? as usize;
            let bytes =
                c.take(count.checked_mul(4).ok_or_else(|| {
                    ProtoError::new(format!("gradient count {count} overflows"))
                })?)?;
            c.finish()?;
            let grads = bytes
                .chunks_exact(4)
                .map(|w| f32::from_bits(u32::from_le_bytes(w.try_into().expect("4-byte chunk"))))
                .collect();
            Ok(ClientFrame::Measure {
                session,
                step,
                loss,
                grads,
            })
        }
        TAG_TUNED | TAG_REJECTED => Err(ProtoError::new(format!(
            "server-to-client frame tag {tag} on the client-to-server path"
        ))),
        other => Err(BinError::BadTag(other).into()),
    }
}

impl ServerFrame {
    /// The binary encoding of a data-plane verdict, or `None` for
    /// control frames, which always travel as JSON regardless of the
    /// negotiated dialect.
    pub fn to_binary(&self) -> Option<Vec<u8>> {
        match self {
            ServerFrame::Tuned {
                session,
                step,
                hyper,
                clamped,
            } => {
                let mut b = Builder::new();
                b.str16(session)
                    .u64(*step)
                    .u32(hyper.lr.to_bits())
                    .u32(hyper.momentum.to_bits())
                    .u32(hyper.grad_scale.to_bits())
                    .u8(u8::from(*clamped));
                Some(binary::frame(TAG_TUNED, &b.into_payload()))
            }
            ServerFrame::Rejected {
                session,
                step,
                reason,
            } => {
                let mut b = Builder::new();
                b.str16(session).u64(*step).str16(reason);
                Some(binary::frame(TAG_REJECTED, &b.into_payload()))
            }
            _ => None,
        }
    }

    /// Decodes a server binary data frame (already split into tag +
    /// payload by [`yf_wire::binary::decode`]).
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on client-only tags, unknown tags, or malformed
    /// payloads; never panics.
    pub fn from_binary(tag: u8, payload: &[u8]) -> Result<ServerFrame, ProtoError> {
        let mut c = Cursor::new(payload);
        match tag {
            TAG_TUNED => {
                let frame = ServerFrame::Tuned {
                    session: c.str16()?.to_string(),
                    step: c.u64()?,
                    hyper: Hyper {
                        lr: f32::from_bits(c.u32()?),
                        momentum: f32::from_bits(c.u32()?),
                        grad_scale: f32::from_bits(c.u32()?),
                    },
                    clamped: c.u8()? != 0,
                };
                c.finish()?;
                Ok(frame)
            }
            TAG_REJECTED => {
                let frame = ServerFrame::Rejected {
                    session: c.str16()?.to_string(),
                    step: c.u64()?,
                    reason: c.str16()?.to_string(),
                };
                c.finish()?;
                Ok(frame)
            }
            TAG_MEASURE => Err(ProtoError::new(format!(
                "client-to-server frame tag {tag} on the server-to-client path"
            ))),
            other => Err(BinError::BadTag(other).into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> OpenSpec {
        OpenSpec {
            session: "s-1".to_string(),
            optimizer: "yellowfin".to_string(),
            value: 1.0,
            dim: 3,
            authority: Authority::default(),
            filter: FilterSpec::default(),
        }
    }

    #[test]
    fn client_frames_round_trip() {
        let frames = vec![
            ClientFrame::Open {
                spec: spec(),
                wire: WireDialect::Json,
            },
            ClientFrame::Open {
                spec: spec(),
                wire: WireDialect::Binary,
            },
            ClientFrame::Measure {
                session: "s-1".to_string(),
                step: 7,
                loss: 0.5,
                grads: vec![1.0, f32::NAN, -0.0],
            },
            ClientFrame::MeasureStats {
                session: "s-1".to_string(),
                step: 8,
                loss: f32::NAN,
                sumsq: 1e300,
                var_sum: -0.0,
            },
            ClientFrame::Close {
                session: "s-1".to_string(),
            },
            ClientFrame::Ping { token: 99 },
            ClientFrame::Drain,
        ];
        for f in frames {
            let line = f.to_line();
            assert!(!line.contains('\n'));
            let back = ClientFrame::from_line(&line).unwrap();
            // NaN payloads break PartialEq; compare re-serialized lines,
            // which are bit-exact by construction.
            assert_eq!(back.to_line(), line);
        }
    }

    #[test]
    fn server_frames_round_trip() {
        let frames = vec![
            ServerFrame::Opened {
                session: "a".to_string(),
                step: 12,
                wire: WireDialect::Json,
            },
            ServerFrame::Opened {
                session: "a".to_string(),
                step: 3,
                wire: WireDialect::Binary,
            },
            ServerFrame::Tuned {
                session: "a".to_string(),
                step: 12,
                hyper: Hyper {
                    lr: 0.015625,
                    momentum: 0.875,
                    grad_scale: 1.0,
                },
                clamped: true,
            },
            ServerFrame::Rejected {
                session: "a".to_string(),
                step: 13,
                reason: "gradient-norm outlier".to_string(),
            },
            ServerFrame::Closed {
                session: "a".to_string(),
            },
            ServerFrame::Pong { token: 99 },
            ServerFrame::Draining { sessions: 4 },
            ServerFrame::Error {
                session: None,
                message: "nope".to_string(),
            },
            ServerFrame::Error {
                session: Some("a".to_string()),
                message: "busy".to_string(),
            },
        ];
        for f in frames {
            assert_eq!(ServerFrame::from_line(&f.to_line()).unwrap(), f);
        }
    }

    #[test]
    fn open_defaults_when_envelope_omitted() {
        let line = r#"{"type":"open","session":"s","optimizer":"sgd","value":"3dcccccd","dim":2}"#;
        let ClientFrame::Open { spec, wire } = ClientFrame::from_line(line).unwrap() else {
            panic!("expected open");
        };
        assert_eq!(spec.authority.bits(), Authority::default().bits());
        assert_eq!(spec.filter.bits(), FilterSpec::default().bits());
        assert_eq!(
            wire,
            WireDialect::Json,
            "no wire field means the PR 8 dialect"
        );
    }

    #[test]
    fn json_dialect_frames_are_byte_identical_to_the_pre_negotiation_protocol() {
        // A JSON-only peer must see exactly the bytes PR 8 shipped: no
        // "wire" key anywhere.
        let open = ClientFrame::Open {
            spec: spec(),
            wire: WireDialect::Json,
        }
        .to_line();
        assert!(!open.contains("wire"), "json open grew a field: {open}");
        let opened = ServerFrame::Opened {
            session: "s-1".to_string(),
            step: 4,
            wire: WireDialect::Json,
        }
        .to_line();
        assert_eq!(opened, r#"{"type":"opened","session":"s-1","step":4}"#);
    }

    #[test]
    fn unknown_requested_dialects_downgrade_to_json() {
        let line = r#"{"type":"open","session":"s","optimizer":"sgd","value":"3dcccccd","dim":2,"wire":"quantum"}"#;
        let ClientFrame::Open { wire, .. } = ClientFrame::from_line(line).unwrap() else {
            panic!("expected open");
        };
        assert_eq!(wire, WireDialect::Json);
    }

    #[test]
    fn json_measure_lines_for_any_binary_sized_gradient_fit_the_line_cap() {
        // A JSON measure line costs 9 bytes per float plus an envelope
        // that does not grow with the gradient; the reader's line cap
        // must admit the line of every gradient a binary frame can carry.
        // Lengths count the newline, as MAX_LINE does.
        let line_len = |n: usize| {
            ClientFrame::Measure {
                session: "s".repeat(128),
                step: u64::MAX,
                loss: f32::NAN,
                grads: vec![f32::MIN; n],
            }
            .to_line()
            .len()
                + 1
        };
        let per_float = line_len(2) - line_len(1);
        assert_eq!(per_float, 9);
        let envelope = line_len(1) - per_float;
        let max_floats = binary::MAX_PAYLOAD / 4;
        assert!(max_floats * per_float + envelope <= binary::MAX_LINE);
    }

    #[test]
    fn binary_measure_frames_round_trip_bit_exactly() {
        let grads = vec![1.0f32, f32::NAN, -0.0, f32::INFINITY, 3.5e-41];
        let frame = encode_measure("sess.a", 42, f32::NAN, &grads);
        let (tag, payload) = binary::decode(&frame).unwrap();
        let ClientFrame::Measure {
            session,
            step,
            loss,
            grads: back,
        } = decode_bin_measure(tag, payload).unwrap()
        else {
            panic!("expected a measure");
        };
        assert_eq!(session, "sess.a");
        assert_eq!(step, 42);
        assert!(loss.is_nan());
        assert_eq!(back.len(), grads.len());
        for (a, b) in back.iter().zip(grads.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn binary_verdict_frames_round_trip() {
        let frames = [
            ServerFrame::Tuned {
                session: "a".to_string(),
                step: 12,
                hyper: Hyper {
                    lr: 0.015625,
                    momentum: 0.875,
                    grad_scale: 1.0,
                },
                clamped: true,
            },
            ServerFrame::Rejected {
                session: "a".to_string(),
                step: 13,
                reason: "gradient-norm outlier".to_string(),
            },
        ];
        for f in frames {
            let bin = f.to_binary().unwrap();
            let (tag, payload) = binary::decode(&bin).unwrap();
            assert_eq!(ServerFrame::from_binary(tag, payload).unwrap(), f);
        }
    }

    #[test]
    fn control_frames_have_no_binary_encoding() {
        assert!(ServerFrame::Closed {
            session: "a".to_string()
        }
        .to_binary()
        .is_none());
        assert!(ServerFrame::Pong { token: 1 }.to_binary().is_none());
        assert!(ServerFrame::Error {
            session: None,
            message: "x".to_string()
        }
        .to_binary()
        .is_none());
    }

    #[test]
    fn binary_decoders_reject_wrong_direction_and_unknown_tags() {
        assert!(decode_bin_measure(TAG_TUNED, &[]).is_err());
        assert!(decode_bin_measure(99, &[]).is_err());
        assert!(ServerFrame::from_binary(TAG_MEASURE, &[]).is_err());
        assert!(ServerFrame::from_binary(99, &[]).is_err());
        // Tag 2 is the retired gradient-delta frame: whatever an older
        // client put in its payload (`session | step | loss | dim |
        // runs`), either direction answers with the typed BadTag.
        let mut old = Builder::new();
        old.str16("s")
            .u64(3)
            .u32(0.25f32.to_bits())
            .u32(7)
            .u32(7)
            .u32(0);
        let old = old.into_payload();
        let bad_tag: ProtoError = BinError::BadTag(2).into();
        assert_eq!(decode_bin_measure(2, &old), Err(bad_tag.clone()));
        assert_eq!(ServerFrame::from_binary(2, &old), Err(bad_tag));
        // Truncated payloads are typed errors, not panics.
        let frame = encode_measure("s", 0, 0.5, &[1.0, 2.0]);
        let (tag, payload) = binary::decode(&frame).unwrap();
        assert!(decode_bin_measure(tag, &payload[..payload.len() - 3]).is_err());
        assert!(ServerFrame::from_binary(TAG_TUNED, &[0, 0, 1]).is_err());
    }

    #[test]
    fn malformed_frames_are_rejected() {
        assert!(ClientFrame::from_line("{").is_err());
        assert!(ClientFrame::from_line(r#"{"type":"warp"}"#).is_err());
        assert!(ClientFrame::from_line(r#"{"type":"measure","session":"s"}"#).is_err());
        assert!(ClientFrame::from_line(
            r#"{"type":"measure","session":"s","step":0,"loss":"zz","grads":""}"#
        )
        .is_err());
        // f64 statistics are exactly 16 hex digits.
        assert!(ClientFrame::from_line(
            r#"{"type":"measure_stats","session":"s","step":0,"loss":"3f000000","sumsq":"3f000000","var_sum":"0000000000000000"}"#
        )
        .is_err());
        assert!(ServerFrame::from_line(r#"{"type":"hyper","session":"s","step":0}"#).is_err());
    }

    #[test]
    fn spec_matching_is_bitwise() {
        let a = spec();
        let mut b = spec();
        assert!(a.matches(&b));
        b.session = "other-name".to_string();
        assert!(a.matches(&b), "the name is not part of the identity");
        b.value = 1.0 + f32::EPSILON;
        assert!(!a.matches(&b));
    }

    #[test]
    fn spec_validation_rejects_bad_names() {
        let mut s = spec();
        s.session = "has space".to_string();
        assert!(s.validate().is_err());
        s.session = String::new();
        assert!(s.validate().is_err());
        s.session = "ok-1.a_b".to_string();
        assert!(s.validate().is_ok());
        s.dim = 0;
        assert!(s.validate().is_err());
    }
}
