//! The serve wire protocol: line-delimited JSON frames in the shared
//! [`yf_wire`] dialect (floats as [`yf_tensor::hex`] bit patterns, one
//! frame per line).
//!
//! A client opens named sessions over one TCP connection and streams
//! per-step measurements; the server answers each accepted measurement
//! with the tuned, authority-clamped [`Hyper`] for that step. Frames are
//! self-describing (`"type"` field), so one connection freely
//! interleaves traffic for many sessions.
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
//!   measurement frame for its whole life. It is answered by the same
//!   `hyper`/`rejected` frames.
//!
//! ## One dialect
//!
//! Every frame is one JSON line. The decoders ignore fields they do not
//! know, so an `open` from an older client that still asks for a binary
//! data plane with `"wire":"binary"` parses like any other and is
//! answered with a plain `opened`; such a client reads that as "JSON
//! only" and keeps speaking JSON.

use crate::authority::Authority;
use crate::filter::FilterSpec;
use std::fmt;
use yf_optim::Hyper;
use yf_tensor::hex::{f32_hex, f32_row, f32_unhex, f32_unrow, f64_hex, f64_unhex, HexError};
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
    Open { spec: OpenSpec },
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
    Opened { session: String, step: u64 },
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
            ClientFrame::Open { spec } => Json::obj(vec![
                ("type", Json::str("open")),
                ("session", Json::str(&spec.session)),
                ("optimizer", Json::str(&spec.optimizer)),
                ("value", Json::str(f32_hex(spec.value))),
                ("dim", Json::u64(spec.dim as u64)),
                ("authority", authority_json(&spec.authority)),
                ("filter", filter_json(&spec.filter)),
            ]),
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
            ServerFrame::Opened { session, step } => Json::obj(vec![
                ("type", Json::str("opened")),
                ("session", Json::str(session)),
                ("step", Json::u64(*step)),
            ]),
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
            ClientFrame::Open { spec: spec() },
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
        let ClientFrame::Open { spec } = ClientFrame::from_line(line).unwrap() else {
            panic!("expected open");
        };
        assert_eq!(spec.authority.bits(), Authority::default().bits());
        assert_eq!(spec.filter.bits(), FilterSpec::default().bits());
    }

    #[test]
    fn json_dialect_frames_are_byte_identical_to_the_pre_negotiation_protocol() {
        // A peer sees exactly the bytes PR 8 shipped: no "wire" key
        // anywhere.
        let open = ClientFrame::Open { spec: spec() }.to_line();
        assert!(!open.contains("wire"), "open grew a field: {open}");
        let opened = ServerFrame::Opened {
            session: "s-1".to_string(),
            step: 4,
        }
        .to_line();
        assert_eq!(opened, r#"{"type":"opened","session":"s-1","step":4}"#);
    }

    #[test]
    fn unknown_requested_dialects_downgrade_to_json() {
        // An open that asks for a dialect, known once or never, parses
        // to the same frame as one that does not ask.
        let plain = r#"{"type":"open","session":"s","optimizer":"sgd","value":"3dcccccd","dim":2"#;
        let want = ClientFrame::from_line(&format!("{plain}}}")).unwrap();
        for wire in ["binary", "quantum"] {
            let line = format!(r#"{plain},"wire":"{wire}"}}"#);
            assert_eq!(ClientFrame::from_line(&line).unwrap(), want, "{line}");
        }
    }

    #[test]
    fn json_measure_lines_of_a_2_pow_24_gradient_fit_the_line_cap() {
        // A JSON measure line costs 9 bytes per float plus an envelope
        // that does not grow with the gradient; the reader's line cap
        // must admit the line of a 2^24-element gradient. Lengths count
        // the newline, as MAX_LINE does.
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
        assert!((1 << 24) * per_float + envelope <= yf_wire::line::MAX_LINE);
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
