//! Bit-exact session snapshots.
//!
//! A session's snapshot is one sealed file (written atomically via
//! [`yf_wire::fsio::write_sealed`], so a SIGKILL mid-write leaves either
//! the previous snapshot or a `Torn` seal — never a half state). The
//! server seals it at the session's first measurement and whenever it
//! compacts the session's log of later frames, so a snapshot plus that
//! log is the session's durable state. The payload is an ordered file of
//! the workspace's one state codec, [`yf_optim::checkpoint`]: written
//! with its `StateWriter`, read with its `Fields`, with floats as
//! [`yf_tensor::hex`] bit patterns. Decoding only checks the structure;
//! [`crate::Session::restore`] refuses values a session could not run
//! with.
//!
//! ## Format v2
//!
//! The scalar fields (spec, step, last served values, cached verdict)
//! are followed by three blocks:
//!
//! - `gate_lines N`: the quality-gate state, `N` lines;
//! - `opt_lines N`: the tuner state — a yellowfin session's
//!   [`yellowfin::TunerCore`] block, or a baseline optimizer's
//!   checkpoint; `opt_lines -` for stateless optimizers;
//! - `moments present` and the
//!   [`yellowfin::measurements::GradVariance`] block to the end of the
//!   payload, written only for a yellowfin session fed gradient frames;
//!   `moments none` otherwise. The large block goes last and uncounted,
//!   so encoding never scans it.
//!
//! A stats-fed session therefore seals O(window) bytes (about 2.2 KB)
//! whatever its dimension, where a gradient-fed one also seals two
//! dimension-long moment rows.
//!
//! ## Format v1
//!
//! [`decode`] still reads v1, the format before the split: the same
//! scalar fields and gate block, then `opt_state present` and the
//! optimizer checkpoint to the end of the payload (or `opt_state none`).
//! A v1 yellowfin checkpoint is a whole [`yellowfin::YellowFin`] block,
//! whose keys hold both halves, so it decodes as both the tuner block
//! and the moments block: a v1 snapshot resumes as a gradient-fed
//! session. [`encode`] writes only v2.

use crate::authority::Authority;
use crate::filter::FilterSpec;
use crate::proto::OpenSpec;
use crate::session::Outcome;
use yf_optim::checkpoint::{Fields, OptStateError, StateWriter};
use yf_optim::Hyper;
use yf_tensor::hex::{f32_row, f32_unrow};

const HEADER: &str = "yf-serve-session v2";
const HEADER_V1: &str = "yf-serve-session v1";

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
    /// Tuner state block: the [`yellowfin::TunerCore`] state of a
    /// yellowfin session, a baseline optimizer's checkpoint, or `None`
    /// for stateless optimizers.
    pub opt_state: Option<String>,
    /// The [`yellowfin::measurements::GradVariance`] block of a
    /// yellowfin session fed gradient frames; `None` for stats-fed and
    /// not-yet-fed sessions and for baselines.
    pub moments: Option<String>,
}

/// Serializes a snapshot bit-exactly, in format v2.
pub fn encode(snap: &SessionSnapshot) -> String {
    let spec = &snap.spec;
    let mut w = StateWriter::header(HEADER);
    w.field("session", &spec.session);
    w.field("optimizer", &spec.optimizer);
    w.f32_field("value", spec.value);
    w.field("dim", spec.dim);
    w.field("step", snap.step);
    let a = &spec.authority;
    w.f32_slice(
        "authority",
        &[
            a.max_lr_step,
            a.max_momentum_step,
            a.lr_min,
            a.lr_max,
            a.momentum_min,
            a.momentum_max,
        ],
    );
    w.field("filter_window", spec.filter.window);
    w.f64_field("filter_beta", spec.filter.beta);
    w.f64_field("filter_tolerance", spec.filter.tolerance);
    match snap.last {
        Some(h) => w.f32_slice("last", &[h.lr, h.momentum, h.grad_scale]),
        None => w.field("last", "-"),
    }
    match &snap.last_outcome {
        None => w.field("outcome", "-"),
        Some(Outcome::Tuned { hyper, clamped }) => w.field(
            "outcome",
            format_args!(
                "tuned {} {}",
                f32_row(&[hyper.lr, hyper.momentum, hyper.grad_scale]),
                u8::from(*clamped)
            ),
        ),
        // Filter reasons are single-line human text; the field value is
        // the rest of the line, so spaces inside it are fine.
        Some(Outcome::Rejected { reason }) => w.field("outcome", format_args!("rejected {reason}")),
    }
    w.counted("gate_lines", Some(&snap.gate_state));
    w.counted("opt_lines", snap.opt_state.as_deref());
    match &snap.moments {
        Some(text) => {
            w.field("moments", "present");
            w.text(text);
        }
        None => w.field("moments", "none"),
    }
    w.finish()
}

/// A row of exactly `want` bit-exact f32s.
fn scalar_row(text: &str, want: usize, what: &str) -> Result<Vec<f32>, OptStateError> {
    let row = f32_unrow(text)?;
    if row.len() != want {
        return Err(OptStateError::new(format!(
            "{what}: expected {want} values, found {}",
            row.len()
        )));
    }
    Ok(row)
}

fn hyper(text: &str, what: &str) -> Result<Hyper, OptStateError> {
    let h = scalar_row(text, 3, what)?;
    Ok(Hyper {
        lr: h[0],
        momentum: h[1],
        grad_scale: h[2],
    })
}

/// Parses [`encode`] output, or a format-v1 payload.
///
/// # Errors
///
/// [`OptStateError`] on any structural or bit-pattern mismatch.
pub fn decode(text: &str) -> Result<SessionSnapshot, OptStateError> {
    let (mut f, header) = Fields::any_of(text, &[HEADER, HEADER_V1])?;
    let session = f.field("session")?.to_string();
    let optimizer = f.field("optimizer")?.to_string();
    let value = f.f32("value")?;
    let dim = f.parse("dim")?;
    let step = f.parse("step")?;
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
        window: f.parse("filter_window")?,
        beta: f.f64("filter_beta")?,
        tolerance: f.f64("filter_tolerance")?,
    };
    let last = match f.field("last")? {
        "-" => None,
        row => Some(hyper(row, "last")?),
    };
    let last_outcome = match f.field("outcome")? {
        "-" => None,
        text => match text.split_once(' ') {
            Some(("tuned", rest)) => {
                let (row, clamped) = rest
                    .rsplit_once(' ')
                    .ok_or_else(|| OptStateError::new("bad tuned outcome"))?;
                let clamped = match clamped {
                    "0" => false,
                    "1" => true,
                    _ => return Err(OptStateError::new("bad outcome clamped flag")),
                };
                Some(Outcome::Tuned {
                    hyper: hyper(row, "outcome")?,
                    clamped,
                })
            }
            Some(("rejected", reason)) => Some(Outcome::Rejected {
                reason: reason.to_string(),
            }),
            _ => return Err(OptStateError::new(format!("bad outcome marker {text:?}"))),
        },
    };
    let gate_state = f
        .block("gate_lines")?
        .ok_or_else(|| OptStateError::new("missing gate block"))?;
    let (opt_state, moments) = if header == HEADER_V1 {
        let opt_state = f.trailing("opt_state")?;
        let moments = if optimizer == "yellowfin" {
            opt_state.clone()
        } else {
            None
        };
        (opt_state, moments)
    } else {
        let opt_state = f.block("opt_lines")?;
        (opt_state, f.trailing("moments")?)
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
        moments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ClientFrame;
    use crate::session::Session;
    use yf_tensor::reduce;
    use yf_tensor::rng::Pcg32;
    use yf_wire::fsio::fnv1a;

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
            opt_state: Some("version 1\nstep_count 41\nlr_ema.steps 41\n".to_string()),
            moments: Some("version 1\nvariance.first.steps 41\n".to_string()),
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
        bare.moments = None;
        assert_eq!(decode(&encode(&bare)).unwrap(), bare);
        let mut rejected = snapshot();
        rejected.last_outcome = Some(Outcome::Rejected {
            reason: "loss spike: 12.5 exceeds the envelope".to_string(),
        });
        rejected.moments = None;
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
        let moments = "version 1\nvariance.first.steps 41\n".len();
        for cut in [5, text.len() / 3, text.len() / 2, text.len() - moments] {
            assert!(decode(&text[..cut]).is_err(), "cut at {cut}");
        }
        assert!(decode(&text.replace("opt_lines 3", "opt_lines maybe")).is_err());
        assert!(decode(&text.replace("gate_lines 2", "gate_lines 99")).is_err());
        assert!(decode(&text.replace("moments present", "moments maybe")).is_err());
        assert!(decode(&text.replace("moments present\n", "moments none\n")).is_err());
        assert!(decode(&text.replace("outcome tuned", "outcome perhaps")).is_err());
        let mut bare = snapshot();
        bare.moments = None;
        assert!(decode(&format!("{}stray line\n", encode(&bare))).is_err());
        assert!(decode("wrong header\n").is_err());
    }

    fn pin_spec(name: &str, dim: usize) -> OpenSpec {
        OpenSpec {
            session: name.to_string(),
            optimizer: "yellowfin".to_string(),
            value: 1.0,
            dim,
            authority: Authority::default(),
            filter: FilterSpec::default(),
        }
    }

    /// The pins' seeded `(loss, gradient)` stream.
    fn pin_stream(dim: usize, frames: usize) -> Vec<(f32, Vec<f32>)> {
        let mut rng = Pcg32::seed(30);
        (0..frames)
            .map(|_| {
                let loss = rng.uniform();
                (loss, (0..dim).map(|_| rng.normal()).collect())
            })
            .collect()
    }

    fn outcome_bits(o: &Outcome) -> Option<(u32, u32, u32, bool)> {
        match o {
            Outcome::Tuned { hyper, clamped } => Some((
                hyper.lr.to_bits(),
                hyper.momentum.to_bits(),
                hyper.grad_scale.to_bits(),
                *clamped,
            )),
            Outcome::Rejected { .. } => None,
        }
    }

    /// Format-freeze pin: a dim-64 gradient-fed yellowfin session after
    /// 30 seeded measurements. Sealed snapshots resume across builds only
    /// while these bytes, and the measure line that fed the last step,
    /// stay the same.
    #[test]
    fn snapshot_and_measure_line_bytes_are_frozen() {
        let (name, dim) = ("pin-64", 64);
        let mut session = Session::new(pin_spec(name, dim)).unwrap();
        let mut line = String::new();
        for (step, (loss, grads)) in pin_stream(dim, 30).into_iter().enumerate() {
            let step = step as u64;
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
            (4629, 0x89d6_c696_753f_c11e)
        );
    }

    /// A dim-4096 session fed 30 `measure_stats` frames from a local
    /// moment sweep, and the line of the last frame.
    fn stats_pin_session() -> (Session, String) {
        use yellowfin::measurements::GradVariance;
        let (name, dim) = ("pin-4096", 4096);
        let mut session = Session::new(pin_spec(name, dim)).unwrap();
        let mut moments = GradVariance::new(crate::registry::yellowfin_config(1.0).beta);
        let mut line = String::new();
        for (step, (loss, grads)) in pin_stream(dim, 30).into_iter().enumerate() {
            let step = step as u64;
            let sumsq = reduce::tree_reduce(&reduce::block_sumsq(&grads));
            let mut var_sum = 0.0;
            session
                .measure_swept(step, loss, sumsq, |scale| {
                    moments.observe_scaled(&grads, scale, 1);
                    var_sum = moments.variance();
                    var_sum
                })
                .unwrap();
            line = ClientFrame::MeasureStats {
                session: name.to_string(),
                step,
                loss,
                sumsq,
                var_sum,
            }
            .to_line();
        }
        (session, line)
    }

    /// Format-freeze pin for the stats feed: a dim-4096 session fed 30
    /// `measure_stats` frames from a local moment sweep seals a few KB,
    /// and each frame is one short line, whatever the dimension.
    #[test]
    fn stats_fed_snapshot_and_measure_stats_line_bytes_are_frozen() {
        let (session, line) = stats_pin_session();
        let snap = encode(&session.snapshot());
        assert!(snap.len() < 2600, "stats-fed snapshot is {} B", snap.len());
        assert!(line.len() < 160, "measure_stats line is {} B", line.len());
        assert_eq!(
            (line.len(), fnv1a(line.as_bytes())),
            (129, 0x1f90_ae2e_b4e4_144b)
        );
        assert_eq!(
            (snap.len(), fnv1a(snap.as_bytes())),
            (2237, 0x0de5_8279_0461_bcda)
        );
    }

    /// Format-freeze pin for the session log: the record the server
    /// appends for the last frame of the stats pin. Session logs replay
    /// across builds only while these bytes stay the same.
    #[test]
    fn measure_stats_log_record_bytes_are_frozen() {
        let (_, line) = stats_pin_session();
        let dir = std::env::temp_dir().join(format!("yf-serve-pin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pin-4096.log");
        let _ = std::fs::remove_file(&path);
        yf_wire::log::Log::open(&path)
            .unwrap()
            .0
            .append(&line)
            .unwrap();
        let record = std::fs::read(&path).unwrap();
        assert_eq!(record.len(), line.len() + 18);
        assert_eq!(
            (record.len(), fnv1a(&record)),
            (147, 0xffff_d8f3_2827_fbeb),
            "{}",
            String::from_utf8_lossy(&record)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A v1 snapshot, sealed by the format before the tuner split from
    /// the recipe of [`snapshot_and_measure_line_bytes_are_frozen`],
    /// decodes, resumes as a gradient-fed session, and continues bitwise
    /// like the uninterrupted session.
    #[test]
    fn v1_snapshots_resume_bitwise() {
        let text = include_str!("../tests/fixtures/session-v1-dim64.snap");
        assert_eq!(text.len(), 4599);
        let snap = decode(text).unwrap();
        assert_eq!(snap.step, 30);
        assert!(snap.moments.is_some(), "v1 yellowfin resumes gradient-fed");
        let mut resumed = Session::restore(snap).unwrap();
        let frames = pin_stream(64, 40);
        let mut uninterrupted = Session::new(pin_spec("pin-64", 64)).unwrap();
        for (step, (loss, grads)) in frames.iter().enumerate() {
            let want = uninterrupted.measure(step as u64, *loss, grads).unwrap();
            if step >= 30 {
                let got = resumed.measure(step as u64, *loss, grads).unwrap();
                assert_eq!(outcome_bits(&got), outcome_bits(&want), "step {step}");
                assert_eq!(got, want, "step {step}");
            }
        }
        assert!(encode(&resumed.snapshot()).starts_with("yf-serve-session v2\n"));
    }
}
