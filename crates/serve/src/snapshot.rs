//! Bit-exact session snapshots.
//!
//! Every session persists as one sealed file (written atomically via
//! [`yf_wire::fsio::write_sealed`], so a SIGKILL mid-write leaves either
//! the previous snapshot or a `Torn` seal — never a half state). The
//! payload here is the line-oriented `key value` format the fleet codec
//! uses, with floats as [`yf_tensor::hex`] bit patterns and two embedded
//! multi-line blocks: the quality-gate state and the optimizer
//! checkpoint.

use crate::authority::Authority;
use crate::filter::FilterSpec;
use crate::proto::OpenSpec;
use crate::session::Outcome;
use std::fmt;
use yf_optim::Hyper;
use yf_tensor::hex::{f32_row, f32_unrow, f64_hex, f64_unhex, HexError};

const HEADER: &str = "yf-serve-session v1";

/// Error decoding a snapshot payload.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotError(String);

impl SnapshotError {
    fn new(msg: impl Into<String>) -> SnapshotError {
        SnapshotError(msg.into())
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid session snapshot: {}", self.0)
    }
}

impl std::error::Error for SnapshotError {}

impl From<HexError> for SnapshotError {
    fn from(e: HexError) -> SnapshotError {
        SnapshotError(e.to_string())
    }
}

/// A session's complete resumable state.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// The spec the session was opened with (resume requires a bitwise
    /// match against the re-opening client's spec).
    pub spec: OpenSpec,
    /// Measurements processed so far — the resume point.
    pub step: u64,
    /// The last authority-clamped hyperparameters served (the excursion
    /// reference for the next update).
    pub last: Option<Hyper>,
    /// The verdict on the most recently processed measurement, kept so
    /// a restored session can replay the reply a reconnecting client
    /// lost (idempotent retry) instead of double-advancing.
    pub last_outcome: Option<Outcome>,
    /// Quality-gate state block.
    pub gate_state: String,
    /// Optimizer checkpoint block (`None` for stateless optimizers).
    pub opt_state: Option<String>,
}

/// Serializes a snapshot bit-exactly.
pub fn encode(snap: &SessionSnapshot) -> String {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    out.push_str(&format!("session {}\n", snap.spec.session));
    out.push_str(&format!("optimizer {}\n", snap.spec.optimizer));
    out.push_str(&format!("value {}\n", f32_row(&[snap.spec.value])));
    out.push_str(&format!("dim {}\n", snap.spec.dim));
    out.push_str(&format!("step {}\n", snap.step));
    let a = &snap.spec.authority;
    out.push_str(&format!(
        "authority {}\n",
        f32_row(&[
            a.max_lr_step,
            a.max_momentum_step,
            a.lr_min,
            a.lr_max,
            a.momentum_min,
            a.momentum_max,
        ])
    ));
    out.push_str(&format!("filter_window {}\n", snap.spec.filter.window));
    out.push_str(&format!("filter_beta {}\n", f64_hex(snap.spec.filter.beta)));
    out.push_str(&format!(
        "filter_tolerance {}\n",
        f64_hex(snap.spec.filter.tolerance)
    ));
    match snap.last {
        Some(h) => out.push_str(&format!(
            "last {}\n",
            f32_row(&[h.lr, h.momentum, h.grad_scale])
        )),
        None => out.push_str("last -\n"),
    }
    match &snap.last_outcome {
        None => out.push_str("outcome -\n"),
        Some(Outcome::Tuned { hyper, clamped }) => out.push_str(&format!(
            "outcome tuned {} {}\n",
            f32_row(&[hyper.lr, hyper.momentum, hyper.grad_scale]),
            u8::from(*clamped)
        )),
        // Filter reasons are single-line human text; the field value is
        // the rest of the line, so spaces inside it are fine.
        Some(Outcome::Rejected { reason }) => {
            out.push_str(&format!("outcome rejected {reason}\n"));
        }
    }
    out.push_str(&format!("gate_lines {}\n", snap.gate_state.lines().count()));
    out.push_str(&snap.gate_state);
    if !snap.gate_state.ends_with('\n') {
        out.push('\n');
    }
    match &snap.opt_state {
        Some(text) => {
            out.push_str("opt_state present\n");
            out.push_str(text);
            if !text.ends_with('\n') {
                out.push('\n');
            }
        }
        None => out.push_str("opt_state none\n"),
    }
    out
}

/// Line-oriented `key value` reader (the fleet codec's discipline).
struct Fields<'a> {
    lines: std::str::Lines<'a>,
}

impl<'a> Fields<'a> {
    fn new(text: &'a str) -> Result<Fields<'a>, SnapshotError> {
        let mut lines = text.lines();
        match lines.next() {
            Some(h) if h == HEADER => Ok(Fields { lines }),
            Some(h) => Err(SnapshotError::new(format!(
                "expected header {HEADER:?}, found {h:?}"
            ))),
            None => Err(SnapshotError::new("empty payload")),
        }
    }

    fn field(&mut self, key: &str) -> Result<&'a str, SnapshotError> {
        let line = self
            .lines
            .next()
            .ok_or_else(|| SnapshotError::new(format!("truncated before field {key:?}")))?;
        match line.split_once(' ') {
            Some((k, v)) if k == key => Ok(v),
            _ => Err(SnapshotError::new(format!(
                "expected field {key:?}, found line {line:?}"
            ))),
        }
    }

    fn block(&mut self, nlines: usize) -> Result<String, SnapshotError> {
        let mut out = String::new();
        for _ in 0..nlines {
            let line = self
                .lines
                .next()
                .ok_or_else(|| SnapshotError::new("truncated inside a state block"))?;
            out.push_str(line);
            out.push('\n');
        }
        Ok(out)
    }

    fn rest(self) -> String {
        let mut out = String::new();
        for line in self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

fn scalar_row(text: &str, want: usize, what: &str) -> Result<Vec<f32>, SnapshotError> {
    let row = f32_unrow(text)?;
    if row.len() != want {
        return Err(SnapshotError::new(format!(
            "{what}: expected {want} values, found {}",
            row.len()
        )));
    }
    Ok(row)
}

/// Parses [`encode`] output.
///
/// # Errors
///
/// [`SnapshotError`] on any structural or bit-pattern mismatch.
pub fn decode(text: &str) -> Result<SessionSnapshot, SnapshotError> {
    let mut f = Fields::new(text)?;
    let session = f.field("session")?.to_string();
    let optimizer = f.field("optimizer")?.to_string();
    let value = scalar_row(f.field("value")?, 1, "value")?[0];
    let dim = f
        .field("dim")?
        .parse()
        .map_err(|_| SnapshotError::new("bad dim"))?;
    let step = f
        .field("step")?
        .parse()
        .map_err(|_| SnapshotError::new("bad step"))?;
    let a = scalar_row(f.field("authority")?, 6, "authority")?;
    let authority = Authority {
        max_lr_step: a[0],
        max_momentum_step: a[1],
        lr_min: a[2],
        lr_max: a[3],
        momentum_min: a[4],
        momentum_max: a[5],
    };
    let filter = FilterSpec {
        window: f
            .field("filter_window")?
            .parse()
            .map_err(|_| SnapshotError::new("bad filter_window"))?,
        beta: f64_unhex(f.field("filter_beta")?)?,
        tolerance: f64_unhex(f.field("filter_tolerance")?)?,
    };
    let last = match f.field("last")? {
        "-" => None,
        row => {
            let h = scalar_row(row, 3, "last")?;
            Some(Hyper {
                lr: h[0],
                momentum: h[1],
                grad_scale: h[2],
            })
        }
    };
    let last_outcome = match f.field("outcome")? {
        "-" => None,
        text => match text.split_once(' ') {
            Some(("tuned", rest)) => {
                let (row, clamped) = rest
                    .rsplit_once(' ')
                    .ok_or_else(|| SnapshotError::new("bad tuned outcome"))?;
                let h = scalar_row(row, 3, "outcome")?;
                let clamped = match clamped {
                    "0" => false,
                    "1" => true,
                    _ => return Err(SnapshotError::new("bad outcome clamped flag")),
                };
                Some(Outcome::Tuned {
                    hyper: Hyper {
                        lr: h[0],
                        momentum: h[1],
                        grad_scale: h[2],
                    },
                    clamped,
                })
            }
            Some(("rejected", reason)) => Some(Outcome::Rejected {
                reason: reason.to_string(),
            }),
            _ => return Err(SnapshotError::new(format!("bad outcome marker {text:?}"))),
        },
    };
    let gate_lines = f
        .field("gate_lines")?
        .parse()
        .map_err(|_| SnapshotError::new("bad gate_lines"))?;
    let gate_state = f.block(gate_lines)?;
    let opt_state = match f.field("opt_state")? {
        "none" => None,
        "present" => {
            let rest = f.rest();
            if rest.is_empty() {
                return Err(SnapshotError::new("empty opt_state block"));
            }
            Some(rest)
        }
        other => {
            return Err(SnapshotError::new(format!(
                "bad opt_state marker {other:?}"
            )))
        }
    };
    Ok(SessionSnapshot {
        spec: OpenSpec {
            session,
            optimizer,
            value,
            dim,
            authority,
            filter,
        },
        step,
        last,
        last_outcome,
        gate_state,
        opt_state,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> SessionSnapshot {
        SessionSnapshot {
            spec: OpenSpec {
                session: "job-7".to_string(),
                optimizer: "yellowfin".to_string(),
                value: 1.0,
                dim: 12,
                authority: Authority::default(),
                filter: FilterSpec::default(),
            },
            step: 41,
            last: Some(Hyper {
                lr: 0.0625,
                momentum: 0.875,
                grad_scale: 1.0,
            }),
            last_outcome: Some(Outcome::Tuned {
                hyper: Hyper {
                    lr: 0.0625,
                    momentum: 0.875,
                    grad_scale: 1.0,
                },
                clamped: true,
            }),
            gate_state: "version 1\ntolerance 4024000000000000\n".to_string(),
            opt_state: Some("kind yellowfin\nversion 1\nlr 3dcccccd\n".to_string()),
        }
    }

    #[test]
    fn round_trips_bit_exactly() {
        let snap = snapshot();
        assert_eq!(decode(&encode(&snap)).unwrap(), snap);
        let mut bare = snapshot();
        bare.last = None;
        bare.last_outcome = None;
        bare.opt_state = None;
        assert_eq!(decode(&encode(&bare)).unwrap(), bare);
        let mut rejected = snapshot();
        rejected.last_outcome = Some(Outcome::Rejected {
            reason: "loss spike: 12.5 exceeds the envelope".to_string(),
        });
        assert_eq!(decode(&encode(&rejected)).unwrap(), rejected);
    }

    #[test]
    fn special_float_values_survive() {
        let mut snap = snapshot();
        snap.spec.value = f32::from_bits(0x7fc0_dead);
        snap.last = Some(Hyper {
            lr: f32::MIN_POSITIVE,
            momentum: -0.0,
            grad_scale: f32::INFINITY,
        });
        let back = decode(&encode(&snap)).unwrap();
        assert_eq!(back.spec.value.to_bits(), snap.spec.value.to_bits());
        let (a, b) = (back.last.unwrap(), snap.last.unwrap());
        assert_eq!(a.lr.to_bits(), b.lr.to_bits());
        assert_eq!(a.momentum.to_bits(), b.momentum.to_bits());
        assert_eq!(a.grad_scale.to_bits(), b.grad_scale.to_bits());
    }

    #[test]
    fn truncations_and_corruption_are_rejected() {
        let text = encode(&snapshot());
        for cut in [5, text.len() / 3, text.len() / 2] {
            assert!(decode(&text[..cut]).is_err(), "cut at {cut}");
        }
        assert!(decode(&text.replace("opt_state present", "opt_state maybe")).is_err());
        assert!(decode(&text.replace("gate_lines 2", "gate_lines 99")).is_err());
        assert!(decode(&text.replace("outcome tuned", "outcome perhaps")).is_err());
        assert!(decode("wrong header\n").is_err());
    }

    /// Format-freeze pin: a dim-64 yellowfin session after 30 seeded
    /// measurements. Sealed snapshots resume across builds only while
    /// these bytes, and the measure line that fed the last step, stay
    /// the same.
    #[test]
    fn snapshot_and_measure_line_bytes_are_frozen() {
        use crate::proto::ClientFrame;
        use crate::session::Session;
        use yf_tensor::rng::Pcg32;
        use yf_wire::fsio::fnv1a;

        let (name, dim) = ("pin-64", 64);
        let mut session = Session::new(OpenSpec {
            session: name.to_string(),
            optimizer: "yellowfin".to_string(),
            value: 1.0,
            dim,
            authority: Authority::default(),
            filter: FilterSpec::default(),
        })
        .unwrap();
        let mut rng = Pcg32::seed(30);
        let mut line = String::new();
        for step in 0..30 {
            let loss = rng.uniform();
            let grads: Vec<f32> = (0..dim).map(|_| rng.normal()).collect();
            session.measure(step, loss, &grads).unwrap();
            line = ClientFrame::Measure {
                session: name.to_string(),
                step,
                loss,
                grads,
            }
            .to_line();
        }
        let snap = encode(&session.snapshot());
        assert_eq!(
            (line.len(), fnv1a(line.as_bytes())),
            (651, 0x8711_8af6_4549_a1c3)
        );
        assert_eq!(
            (snap.len(), fnv1a(snap.as_bytes())),
            (4599, 0x57a3_e159_eecf_5a82)
        );
    }
}
