//! Tuner state checkpointing.
//!
//! Long training jobs checkpoint model parameters; an auto-tuner must
//! checkpoint *its* state too, or a restart silently re-enters the slow
//!-start warm-up with empty measurement averages (a lesson the paper's
//! §3.3 "large-scale deployment in industry" discussion alludes to).
//! This module serializes a [`YellowFin`] tuner — or either of its
//! halves, [`TunerCore`] and [`GradVariance`] — to a small, versioned,
//! human-readable keyed block and restores it bit-exactly. The block is
//! written and read by the workspace's one state codec,
//! [`yf_optim::checkpoint`]: floats are hex bit patterns, and a float
//! with a sign or the wrong number of digits, or a value the tuner's
//! constructors would refuse (a zero window, a β outside `[0, 1)`, a
//! buffer that disagrees with `dim`), fails the restore with an
//! [`OptStateError`] instead of panicking.
//!
//! # Example
//!
//! ```
//! use yellowfin::YellowFin;
//! use yf_optim::Optimizer;
//!
//! let mut opt = YellowFin::default();
//! let mut x = vec![1.0f32, -1.0];
//! for _ in 0..50 {
//!     let g = x.clone();
//!     opt.step(&mut x, &g);
//! }
//! let saved = opt.save_state();
//! let restored = YellowFin::restore_state(&saved).unwrap();
//! assert_eq!(opt.momentum(), restored.momentum());
//! ```

use crate::measurements::{DistanceToOpt, GradVariance};
use crate::tuner::{ClipMode, TunerCore, YellowFin, YellowFinConfig};
use yf_optim::checkpoint::{check_len, OptStateError, StateReader, StateWriter};
use yf_optim::ShardedState;
use yf_tensor::hex;

impl YellowFin {
    /// Serializes the complete tuner state (configuration, measurement
    /// averages, sliding window, velocity buffer) to a versioned text
    /// block. The inverse is [`YellowFin::restore_state`].
    pub fn save_state(&self) -> String {
        let mut w = StateWriter::versioned();
        self.core.write_head(&mut w);
        self.variance.write_moments(&mut w);
        self.core.write_smoothers(&mut w);
        // The per-shard velocity is stitched back into one flat vector,
        // so checkpoints are independent of the shard plan that produced
        // them.
        w.f32_slice("velocity", &self.velocity.flatten(0));
        w.dim("dim", self.dim);
        w.opt_f64_field("last_norm", self.core.last_norm);
        w.finish()
    }

    /// Reconstructs a tuner from [`YellowFin::save_state`] output.
    ///
    /// # Errors
    ///
    /// Returns [`OptStateError`] on version mismatch, missing fields,
    /// malformed or out-of-range values, or a velocity or moments of a
    /// length other than the recorded `dim`.
    pub fn restore_state(text: &str) -> Result<Self, OptStateError> {
        let r = StateReader::versioned(text)?;
        let dim = r.dim("dim")?;
        let velocity = r.buffer("velocity", dim)?;
        let variance = GradVariance::read(&r)?;
        check_len("variance.first.biased", variance.first.biased.len(), dim)?;
        let mut tuner = YellowFin {
            core: TunerCore::read(&r)?,
            variance,
            velocity: ShardedState::new(1),
            dim,
        };
        if !velocity.is_empty() {
            tuner.velocity.load_full(vec![velocity]);
        }
        Ok(tuner)
    }
}

/// The two halves write the keys the whole [`YellowFin`] block uses for
/// the same fields, so a `YellowFin` block also restores as either half.
impl TunerCore {
    /// Serializes the core to a versioned text block in the dialect of
    /// [`YellowFin::save_state`]. The inverse is
    /// [`TunerCore::restore_state`].
    pub fn save_state(&self) -> String {
        let mut w = StateWriter::versioned();
        self.write_head(&mut w);
        self.write_smoothers(&mut w);
        w.opt_f64_field("last_norm", self.last_norm);
        w.finish()
    }

    /// Reconstructs a core from [`TunerCore::save_state`] output, or
    /// from a whole [`YellowFin::save_state`] block.
    ///
    /// # Errors
    ///
    /// Returns [`OptStateError`] on version mismatch, missing fields,
    /// or malformed or out-of-range values.
    pub fn restore_state(text: &str) -> Result<Self, OptStateError> {
        TunerCore::read(&StateReader::versioned(text)?)
    }

    /// Configuration and curvature window.
    fn write_head(&self, w: &mut StateWriter) {
        w.f64_field("cfg.beta", self.cfg.beta);
        w.field("cfg.window", self.cfg.window);
        w.f64_field("cfg.lr_factor", self.cfg.lr_factor);
        match self.cfg.clip {
            ClipMode::None => w.field("cfg.clip", "none"),
            ClipMode::Manual(t) => w.field("cfg.clip", format!("manual:{}", hex::f32_hex(t))),
            ClipMode::Adaptive => w.field("cfg.clip", "adaptive"),
        }
        w.field("cfg.slow_start", self.cfg.slow_start);
        w.opt_f64_field("cfg.momentum_override", self.cfg.momentum_override);
        w.f64_slice(
            "curvature.window",
            &Vec::from(self.curvature.window.clone()),
        );
        write_ema(w, "curvature.log_h_max", &self.curvature.log_h_max);
        write_ema(w, "curvature.log_h_min", &self.curvature.log_h_min);
    }

    /// Distance and μ/α averages, and the step count.
    fn write_smoothers(&self, w: &mut StateWriter) {
        write_ema(w, "distance.grad_norm", &self.distance.grad_norm);
        write_ema(w, "distance.curvature", &self.distance.curvature);
        write_ema(w, "distance.dist", &self.distance.dist);
        write_ema(w, "mu_ema", &self.mu_ema);
        write_ema(w, "lr_ema", &self.lr_ema);
        w.field("step_count", self.step_count);
    }

    fn read(r: &StateReader<'_>) -> Result<Self, OptStateError> {
        let clip = match r.raw("cfg.clip")? {
            "none" => ClipMode::None,
            "adaptive" => ClipMode::Adaptive,
            other => {
                let t = other
                    .strip_prefix("manual:")
                    .and_then(|b| hex::f32_unhex(b).ok())
                    .ok_or_else(|| OptStateError::new("bad cfg.clip"))?;
                ClipMode::Manual(t)
            }
        };
        let cfg = YellowFinConfig {
            beta: r.beta("cfg.beta")?,
            window: r.positive("cfg.window")?,
            lr_factor: r.f64("cfg.lr_factor")?,
            clip,
            slow_start: r.parse("cfg.slow_start")?,
            momentum_override: r.opt_f64("cfg.momentum_override")?,
        };
        let beta = cfg.beta;
        let mut core = TunerCore::new(cfg);
        core.curvature.window = r.f64_vec("curvature.window")?.into();
        core.curvature.log_h_max = read_ema(r, "curvature.log_h_max", beta)?;
        core.curvature.log_h_min = read_ema(r, "curvature.log_h_min", beta)?;
        core.distance = DistanceToOpt {
            grad_norm: read_ema(r, "distance.grad_norm", beta)?,
            curvature: read_ema(r, "distance.curvature", beta)?,
            dist: read_ema(r, "distance.dist", beta)?,
        };
        core.mu_ema = read_ema(r, "mu_ema", beta)?;
        core.lr_ema = read_ema(r, "lr_ema", beta)?;
        core.step_count = r.parse("step_count")?;
        core.last_norm = r.opt_f64("last_norm")?;
        Ok(core)
    }
}

impl GradVariance {
    /// Serializes the moment averages to a versioned text block in the
    /// dialect of [`YellowFin::save_state`]. The inverse is
    /// [`GradVariance::restore_state`].
    pub fn save_state(&self) -> String {
        let mut w = StateWriter::versioned();
        w.f64_field("cfg.beta", self.first.beta);
        self.write_moments(&mut w);
        w.finish()
    }

    /// Reconstructs the estimator from [`GradVariance::save_state`]
    /// output, or from a whole [`YellowFin::save_state`] block.
    ///
    /// # Errors
    ///
    /// Returns [`OptStateError`] on version mismatch, missing fields,
    /// malformed or out-of-range values, or moments of different lengths.
    pub fn restore_state(text: &str) -> Result<Self, OptStateError> {
        GradVariance::read(&StateReader::versioned(text)?)
    }

    fn write_moments(&self, w: &mut StateWriter) {
        write_vec_ema(w, "variance.first", &self.first);
        write_vec_ema(w, "variance.second", &self.second);
    }

    fn read(r: &StateReader<'_>) -> Result<Self, OptStateError> {
        let beta = r.beta("cfg.beta")?;
        let first = read_vec_ema(r, "variance.first", beta)?;
        let second = read_vec_ema(r, "variance.second", beta)?;
        if first.biased.len() != second.biased.len() {
            return Err(OptStateError::new("variance moments differ in length"));
        }
        Ok(GradVariance::from_parts(first, second))
    }
}

fn write_ema(w: &mut StateWriter, key: &str, ema: &crate::ema::Ema) {
    w.f64_field(&format!("{key}.biased"), ema.biased);
    w.f64_field(&format!("{key}.correction"), ema.correction);
    w.field(&format!("{key}.steps"), ema.steps);
}

fn read_ema(r: &StateReader<'_>, key: &str, beta: f64) -> Result<crate::ema::Ema, OptStateError> {
    let mut ema = crate::ema::Ema::new(beta);
    ema.biased = r.f64(&format!("{key}.biased"))?;
    ema.correction = r.f64(&format!("{key}.correction"))?;
    ema.steps = r.parse(&format!("{key}.steps"))?;
    Ok(ema)
}

fn write_vec_ema(w: &mut StateWriter, key: &str, ema: &crate::ema::VecEma) {
    w.f64_slice(&format!("{key}.biased"), &ema.biased);
    w.f64_field(&format!("{key}.correction"), ema.correction);
    w.field(&format!("{key}.steps"), ema.steps);
}

fn read_vec_ema(
    r: &StateReader<'_>,
    key: &str,
    beta: f64,
) -> Result<crate::ema::VecEma, OptStateError> {
    let mut ema = crate::ema::VecEma::new(beta);
    ema.biased = r.f64_vec(&format!("{key}.biased"))?;
    ema.correction = r.f64(&format!("{key}.correction"))?;
    ema.steps = r.parse(&format!("{key}.steps"))?;
    Ok(ema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurements::OutlierGate;
    use yf_optim::Optimizer;

    fn trained_tuner(steps: usize) -> (YellowFin, Vec<f32>) {
        let mut opt = YellowFin::new(YellowFinConfig {
            clip: ClipMode::Adaptive,
            lr_factor: 1.5,
            ..Default::default()
        });
        let mut x = vec![1.0f32, -2.0, 0.5];
        for t in 0..steps {
            let g: Vec<f32> = x
                .iter()
                .map(|v| v * (1.0 + 0.1 * (t as f32).sin()))
                .collect();
            opt.step(&mut x, &g);
        }
        (opt, x)
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let (opt, mut x) = trained_tuner(120);
        let saved = opt.save_state();
        let mut restored = YellowFin::restore_state(&saved).expect("valid checkpoint");
        assert_eq!(opt.momentum(), restored.momentum());
        assert_eq!(opt.effective_lr(), restored.effective_lr());
        assert_eq!(opt.measurements(), restored.measurements());
        assert_eq!(opt.steps(), restored.steps());
        // Continuing both must produce identical trajectories.
        let mut opt2 = opt.clone();
        let mut x2 = x.clone();
        for t in 0..40 {
            let g: Vec<f32> = x.iter().map(|v| v + t as f32 * 0.01).collect();
            opt2.step(&mut x, &g);
            restored.step(&mut x2, &g);
        }
        assert_eq!(x, x2, "restored tuner must continue bit-identically");
    }

    #[test]
    fn fresh_tuner_round_trips_too() {
        let opt = YellowFin::default();
        let saved = opt.save_state();
        let restored = YellowFin::restore_state(&saved).expect("valid checkpoint");
        assert_eq!(restored.steps(), 0);
    }

    /// `text` with the value of `key` replaced.
    fn with(text: &str, key: &str, value: &str) -> String {
        text.lines()
            .map(|line| match line.split_once(' ') {
                Some((k, _)) if k == key => format!("{key} {value}\n"),
                _ => format!("{line}\n"),
            })
            .collect()
    }

    #[test]
    fn rejects_garbage_and_wrong_version() {
        assert!(YellowFin::restore_state("not a checkpoint").is_err());
        let (opt, _) = trained_tuner(5);
        let saved = opt.save_state().replace("version 1", "version 999");
        let err = YellowFin::restore_state(&saved).unwrap_err();
        assert!(err.to_string().contains("version"));
        // Floats are exactly 8 or 16 hex digits: no sign, no short form.
        let good = YellowFin::default().save_state();
        for (key, bad) in [
            ("cfg.beta", "3dc"),
            ("cfg.beta", "+fefff7ced91687"),
            ("cfg.clip", "manual:3dc"),
            ("cfg.clip", "manual:+3dccccc"),
            ("velocity", "3dc,+1"),
            ("velocity", "3dcccccd,+3dccccc"),
        ] {
            assert!(
                YellowFin::restore_state(&with(&good, key, bad)).is_err(),
                "{key} {bad}"
            );
        }
        let upper = YellowFin::restore_state(&with(&good, "cfg.clip", "manual:3DCCCCCD")).unwrap();
        assert_eq!(upper.core.cfg.clip, ClipMode::Manual(0.1));
    }

    /// FNV-1a 64, the seal hash of the workspace's sealed files.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Format-freeze pin: a dim-64 tuner after 30 seeded steps. Fleet
    /// checkpoints and pre-v2 session snapshots embed these bytes, so
    /// they resume across builds only while the bytes stay the same.
    #[test]
    fn save_state_bytes_are_frozen() {
        use yf_tensor::rng::Pcg32;
        let dim = 64;
        let mut opt = YellowFin::new(YellowFinConfig {
            clip: ClipMode::Adaptive,
            ..Default::default()
        });
        let mut rng = Pcg32::seed(30);
        let mut x: Vec<f32> = (0..dim).map(|_| rng.normal()).collect();
        for _ in 0..30 {
            let g: Vec<f32> = x.iter().map(|v| v + 0.1 * rng.normal()).collect();
            opt.step(&mut x, &g);
        }
        let saved = opt.save_state();
        assert_eq!(
            (saved.len(), fnv1a(saved.as_bytes())),
            (4238, 0x366a_6047_cf8c_6788)
        );
    }

    #[test]
    fn the_halves_round_trip_and_restore_from_a_whole_block() {
        let (opt, _) = trained_tuner(40);
        let whole = opt.save_state();
        let core = TunerCore::restore_state(&opt.core.save_state()).unwrap();
        let moments = GradVariance::restore_state(&opt.variance.save_state()).unwrap();
        assert_eq!(core.save_state(), opt.core.save_state());
        assert_eq!(moments.save_state(), opt.variance.save_state());
        assert_eq!(
            moments.variance().to_bits(),
            opt.variance.variance().to_bits()
        );
        // A whole block holds both halves under the same keys.
        let from_whole = TunerCore::restore_state(&whole).unwrap();
        assert_eq!(from_whole.save_state(), opt.core.save_state());
        let from_whole = GradVariance::restore_state(&whole).unwrap();
        assert_eq!(from_whole.save_state(), opt.variance.save_state());
        // Moments of different lengths are refused.
        let bad = opt.variance.save_state().replace(
            "variance.second.biased ",
            "variance.second.biased 0000000000000000,",
        );
        assert!(GradVariance::restore_state(&bad).is_err());
    }

    #[test]
    fn values_the_constructors_refuse_are_errors_not_panics() {
        let (opt, _) = trained_tuner(30);
        let whole = opt.save_state();
        let core = opt.core.save_state();
        let moments = opt.variance.save_state();
        let one = hex::f64_hex(1.0);
        let negative = hex::f64_hex(-0.5);
        let nan = hex::f64_hex(f64::NAN);
        for (key, bad) in [
            ("cfg.window", "0"),
            ("cfg.beta", &one[..]),
            ("cfg.beta", &negative),
            ("cfg.beta", &nan),
        ] {
            assert!(YellowFin::restore_state(&with(&whole, key, bad)).is_err());
            assert!(TunerCore::restore_state(&with(&core, key, bad)).is_err());
            if key == "cfg.beta" {
                assert!(GradVariance::restore_state(&with(&moments, key, bad)).is_err());
            }
        }
        // The velocity and the moments must be `dim` long.
        let velocity = whole
            .lines()
            .find_map(|l| l.strip_prefix("velocity "))
            .unwrap();
        let short = &velocity[..velocity.rfind(',').unwrap()];
        for (key, bad) in [("dim", "0"), ("dim", "4"), ("velocity", short)] {
            let err = YellowFin::restore_state(&with(&whole, key, bad)).unwrap_err();
            assert!(err.to_string().contains("dim"), "{key} {bad}: {err}");
        }
        let fresh = YellowFin::default().save_state();
        assert!(YellowFin::restore_state(&with(&fresh, "dim", "3")).is_ok());
        // The quality gate: a window, a β and a tolerance its
        // constructor asserts on.
        let mut gate = OutlierGate::new(20, 0.999, 10.0);
        gate.admit(1.0);
        let gate = gate.save_state();
        let (zero, inf) = (hex::f64_hex(0.0), hex::f64_hex(f64::INFINITY));
        for (key, bad) in [
            ("window_width", "0"),
            ("beta", &one[..]),
            ("beta", &negative),
            ("tolerance", &zero),
            ("tolerance", &negative),
            ("tolerance", &inf),
            ("tolerance", &nan),
        ] {
            assert!(
                OutlierGate::restore_state(&with(&gate, key, bad)).is_err(),
                "{key} {bad}"
            );
        }
        assert!(OutlierGate::restore_state(&with(&gate, "window_width", "3")).is_ok());
    }

    #[test]
    fn rejects_truncated_checkpoint() {
        let (opt, _) = trained_tuner(5);
        let saved = opt.save_state();
        let truncated: String = saved.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(YellowFin::restore_state(&truncated).is_err());
    }
}
