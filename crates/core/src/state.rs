//! Tuner state checkpointing.
//!
//! Long training jobs checkpoint model parameters; an auto-tuner must
//! checkpoint *its* state too, or a restart silently re-enters the slow
//!-start warm-up with empty measurement averages (a lesson the paper's
//! §3.3 "large-scale deployment in industry" discussion alludes to).
//! This module serializes a [`YellowFin`] tuner to a small, versioned,
//! human-readable text block and restores it bit-exactly — no external
//! serialization crates needed. Floats are hex bit patterns written by
//! [`yf_tensor::hex`], appended straight into the block; a float with a
//! sign or the wrong number of digits fails the restore.
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

use crate::tuner::YellowFin;
use std::fmt::{self, Write as _};
use yf_tensor::hex;

/// Error from [`YellowFin::restore_state`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreStateError {
    message: String,
}

impl RestoreStateError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        RestoreStateError {
            message: message.into(),
        }
    }
}

impl fmt::Display for RestoreStateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid yellowfin checkpoint: {}", self.message)
    }
}

impl std::error::Error for RestoreStateError {}

/// Format version written into every checkpoint.
pub const STATE_VERSION: u32 = 1;

pub(crate) struct Writer {
    out: String,
}

impl Writer {
    pub(crate) fn new() -> Self {
        let mut w = Writer { out: String::new() };
        w.field("version", STATE_VERSION);
        w
    }

    pub(crate) fn field(&mut self, key: &str, value: impl fmt::Display) {
        let _ = writeln!(self.key(key), "{value}");
    }

    /// Starts the line of `key`, returning the output for its value.
    fn key(&mut self, key: &str) -> &mut String {
        self.out.push_str(key);
        self.out.push(' ');
        &mut self.out
    }

    /// f64 with full round-trip precision (hex bits).
    pub(crate) fn f64_field(&mut self, key: &str, value: f64) {
        hex::push_f64(self.key(key), value);
        self.out.push('\n');
    }

    pub(crate) fn f64_slice(&mut self, key: &str, values: &[f64]) {
        hex::push_f64_row(self.key(key), values);
        self.out.push('\n');
    }

    pub(crate) fn f32_slice(&mut self, key: &str, values: &[f32]) {
        hex::push_f32_row(self.key(key), values);
        self.out.push('\n');
    }

    pub(crate) fn finish(self) -> String {
        self.out
    }
}

pub(crate) struct Reader<'a> {
    lines: std::collections::HashMap<&'a str, &'a str>,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(text: &'a str) -> Result<Self, RestoreStateError> {
        let mut lines = std::collections::HashMap::new();
        for line in text.lines() {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            // A key with an empty value (e.g. an empty list) has no space.
            let (key, value) = line.split_once(' ').unwrap_or((line, ""));
            lines.insert(key, value);
        }
        let reader = Reader { lines };
        let version: u32 = reader.parse("version")?;
        if version != STATE_VERSION {
            return Err(RestoreStateError::new(format!(
                "unsupported version {version} (expected {STATE_VERSION})"
            )));
        }
        Ok(reader)
    }

    pub(crate) fn raw(&self, key: &str) -> Result<&'a str, RestoreStateError> {
        self.lines
            .get(key)
            .copied()
            .ok_or_else(|| RestoreStateError::new(format!("missing field {key}")))
    }

    pub(crate) fn parse<T: std::str::FromStr>(&self, key: &str) -> Result<T, RestoreStateError> {
        self.raw(key)?
            .parse::<T>()
            .map_err(|_| RestoreStateError::new(format!("unparseable field {key}")))
    }

    pub(crate) fn f64(&self, key: &str) -> Result<f64, RestoreStateError> {
        hex::f64_unhex(self.raw(key)?)
            .map_err(|_| RestoreStateError::new(format!("bad f64 bits in {key}")))
    }

    pub(crate) fn f64_vec(&self, key: &str) -> Result<Vec<f64>, RestoreStateError> {
        hex::f64_unrow(self.raw(key)?)
            .map_err(|_| RestoreStateError::new(format!("bad f64 list in {key}")))
    }

    pub(crate) fn f32_vec(&self, key: &str) -> Result<Vec<f32>, RestoreStateError> {
        hex::f32_unrow(self.raw(key)?)
            .map_err(|_| RestoreStateError::new(format!("bad f32 list in {key}")))
    }
}

impl YellowFin {
    /// Serializes the complete tuner state (configuration, measurement
    /// averages, sliding window, velocity buffer) to a versioned text
    /// block. The inverse is [`YellowFin::restore_state`].
    pub fn save_state(&self) -> String {
        self.write_state()
    }

    /// Reconstructs a tuner from [`YellowFin::save_state`] output.
    ///
    /// # Errors
    ///
    /// Returns [`RestoreStateError`] on version mismatch, missing fields
    /// or malformed values.
    pub fn restore_state(text: &str) -> Result<Self, RestoreStateError> {
        Self::read_state(text)
    }
}

impl YellowFin {
    pub(crate) fn write_state(&self) -> String {
        use crate::tuner::ClipMode;
        let mut w = Writer::new();
        // Configuration.
        w.f64_field("cfg.beta", self.cfg.beta);
        w.field("cfg.window", self.cfg.window);
        w.f64_field("cfg.lr_factor", self.cfg.lr_factor);
        match self.cfg.clip {
            ClipMode::None => w.field("cfg.clip", "none"),
            ClipMode::Manual(t) => w.field("cfg.clip", format!("manual:{}", hex::f32_hex(t))),
            ClipMode::Adaptive => w.field("cfg.clip", "adaptive"),
        }
        w.field("cfg.slow_start", self.cfg.slow_start);
        match self.cfg.momentum_override {
            Some(m) => w.f64_field("cfg.momentum_override", m),
            None => w.field("cfg.momentum_override", "none"),
        }
        // Measurement state.
        w.f64_slice(
            "curvature.window",
            &Vec::from(self.curvature.window.clone()),
        );
        write_ema(&mut w, "curvature.log_h_max", &self.curvature.log_h_max);
        write_ema(&mut w, "curvature.log_h_min", &self.curvature.log_h_min);
        write_vec_ema(&mut w, "variance.first", &self.variance.first);
        write_vec_ema(&mut w, "variance.second", &self.variance.second);
        write_ema(&mut w, "distance.grad_norm", &self.distance.grad_norm);
        write_ema(&mut w, "distance.curvature", &self.distance.curvature);
        write_ema(&mut w, "distance.dist", &self.distance.dist);
        write_ema(&mut w, "mu_ema", &self.mu_ema);
        write_ema(&mut w, "lr_ema", &self.lr_ema);
        // Optimizer state. The per-shard velocity is stitched back into
        // one flat vector, so checkpoints are independent of the shard
        // plan that produced them.
        w.field("step_count", self.step_count);
        w.f32_slice("velocity", &self.velocity.flatten(0));
        w.field(
            "dim",
            self.dim
                .map(|d| d.to_string())
                .unwrap_or_else(|| "none".into()),
        );
        match self.last_norm {
            Some(n) => w.f64_field("last_norm", n),
            None => w.field("last_norm", "none"),
        }
        w.finish()
    }

    pub(crate) fn read_state(text: &str) -> Result<Self, RestoreStateError> {
        use crate::measurements::{CurvatureRange, DistanceToOpt, GradVariance};
        use crate::tuner::{ClipMode, YellowFinConfig};
        let r = Reader::new(text)?;
        let clip = match r.raw("cfg.clip")? {
            "none" => ClipMode::None,
            "adaptive" => ClipMode::Adaptive,
            other => {
                let t = other
                    .strip_prefix("manual:")
                    .and_then(|b| hex::f32_unhex(b).ok())
                    .ok_or_else(|| RestoreStateError::new("bad cfg.clip"))?;
                ClipMode::Manual(t)
            }
        };
        let momentum_override = match r.raw("cfg.momentum_override")? {
            "none" => None,
            _ => Some(r.f64("cfg.momentum_override")?),
        };
        let cfg = YellowFinConfig {
            beta: r.f64("cfg.beta")?,
            window: r.parse("cfg.window")?,
            lr_factor: r.f64("cfg.lr_factor")?,
            clip,
            slow_start: r.parse("cfg.slow_start")?,
            momentum_override,
        };
        let mut tuner = YellowFin::new(cfg);
        tuner.curvature = CurvatureRange {
            window: r.f64_vec("curvature.window")?.into(),
            width: tuner.cfg.window,
            log_h_max: read_ema(&r, "curvature.log_h_max", tuner.cfg.beta)?,
            log_h_min: read_ema(&r, "curvature.log_h_min", tuner.cfg.beta)?,
            limit_growth: tuner.cfg.clip == ClipMode::Adaptive,
        };
        tuner.variance = GradVariance::from_parts(
            read_vec_ema(&r, "variance.first", tuner.cfg.beta)?,
            read_vec_ema(&r, "variance.second", tuner.cfg.beta)?,
        );
        tuner.distance = DistanceToOpt {
            grad_norm: read_ema(&r, "distance.grad_norm", tuner.cfg.beta)?,
            curvature: read_ema(&r, "distance.curvature", tuner.cfg.beta)?,
            dist: read_ema(&r, "distance.dist", tuner.cfg.beta)?,
        };
        tuner.mu_ema = read_ema(&r, "mu_ema", tuner.cfg.beta)?;
        tuner.lr_ema = read_ema(&r, "lr_ema", tuner.cfg.beta)?;
        tuner.step_count = r.parse("step_count")?;
        let velocity = r.f32_vec("velocity")?;
        if !velocity.is_empty() {
            tuner.velocity.load_full(vec![velocity]);
        }
        tuner.dim = match r.raw("dim")? {
            "none" => None,
            d => Some(d.parse().map_err(|_| RestoreStateError::new("bad dim"))?),
        };
        tuner.last_norm = match r.raw("last_norm")? {
            "none" => None,
            _ => Some(r.f64("last_norm")?),
        };
        Ok(tuner)
    }
}

fn write_ema(w: &mut Writer, key: &str, ema: &crate::ema::Ema) {
    w.f64_field(&format!("{key}.biased"), ema.biased);
    w.f64_field(&format!("{key}.correction"), ema.correction);
    w.field(&format!("{key}.steps"), ema.steps);
}

fn read_ema(r: &Reader<'_>, key: &str, beta: f64) -> Result<crate::ema::Ema, RestoreStateError> {
    let mut ema = crate::ema::Ema::new(beta);
    ema.biased = r.f64(&format!("{key}.biased"))?;
    ema.correction = r.f64(&format!("{key}.correction"))?;
    ema.steps = r.parse(&format!("{key}.steps"))?;
    Ok(ema)
}

fn write_vec_ema(w: &mut Writer, key: &str, ema: &crate::ema::VecEma) {
    w.f64_slice(&format!("{key}.biased"), &ema.biased);
    w.f64_field(&format!("{key}.correction"), ema.correction);
    w.field(&format!("{key}.steps"), ema.steps);
}

fn read_vec_ema(
    r: &Reader<'_>,
    key: &str,
    beta: f64,
) -> Result<crate::ema::VecEma, RestoreStateError> {
    let mut ema = crate::ema::VecEma::new(beta);
    ema.biased = r.f64_vec(&format!("{key}.biased"))?;
    ema.correction = r.f64(&format!("{key}.correction"))?;
    ema.steps = r.parse(&format!("{key}.steps"))?;
    Ok(ema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::{ClipMode, YellowFinConfig};
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

    #[test]
    fn rejects_garbage_and_wrong_version() {
        assert!(YellowFin::restore_state("not a checkpoint").is_err());
        let (opt, _) = trained_tuner(5);
        let saved = opt.save_state().replace("version 1", "version 999");
        let err = YellowFin::restore_state(&saved).unwrap_err();
        assert!(err.to_string().contains("version"));
        // Floats are exactly 8 or 16 hex digits: no sign, no short form.
        let good = YellowFin::default().save_state();
        let with = |key: &str, value: &str| -> String {
            good.lines()
                .map(|line| match line.split_once(' ') {
                    Some((k, _)) if k == key => format!("{key} {value}\n"),
                    _ => format!("{line}\n"),
                })
                .collect()
        };
        for (key, bad) in [
            ("cfg.beta", "3dc"),
            ("cfg.beta", "+fefff7ced91687"),
            ("cfg.clip", "manual:3dc"),
            ("cfg.clip", "manual:+3dccccc"),
            ("velocity", "3dc,+1"),
            ("velocity", "3dcccccd,+3dccccc"),
        ] {
            assert!(
                YellowFin::restore_state(&with(key, bad)).is_err(),
                "{key} {bad}"
            );
        }
        let upper = YellowFin::restore_state(&with("cfg.clip", "manual:3DCCCCCD")).unwrap();
        assert_eq!(upper.cfg.clip, ClipMode::Manual(0.1));
    }

    #[test]
    fn rejects_truncated_checkpoint() {
        let (opt, _) = trained_tuner(5);
        let saved = opt.save_state();
        let truncated: String = saved.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(YellowFin::restore_state(&truncated).is_err());
    }
}
