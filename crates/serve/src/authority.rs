//! The authority-limit layer: the server never relays a tuned update
//! that leaves the client's declared safety envelope.
//!
//! The tuner proposes, the authority disposes. Each session declares a
//! maximum per-update excursion (fractional for the learning rate,
//! absolute for momentum) and hard absolute bounds; every [`Hyper`] the
//! tuner produces is clamped against the *previously applied* values
//! before it reaches the wire. The tuner's internal statistics are not
//! fed the clamped values — its own EMAs already smooth the proposal
//! stream — so the clamp is a pure output filter and replaying the same
//! measurements always reproduces the same clamped stream bit-for-bit.

use yf_optim::Hyper;

/// Per-session limits on how far — and how fast — the served
/// hyperparameters may move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Authority {
    /// Max fractional learning-rate change per update: the served lr
    /// stays within `prev * (1 ± max_lr_step)`.
    pub max_lr_step: f32,
    /// Max absolute momentum change per update.
    pub max_momentum_step: f32,
    /// Hard learning-rate floor (must be positive: the excursion window
    /// is multiplicative, so lr can never be allowed to reach zero).
    pub lr_min: f32,
    /// Hard learning-rate ceiling.
    pub lr_max: f32,
    /// Hard momentum floor.
    pub momentum_min: f32,
    /// Hard momentum ceiling (below 1: heavy ball diverges at 1).
    pub momentum_max: f32,
}

impl Default for Authority {
    fn default() -> Self {
        Authority {
            max_lr_step: 0.5,
            max_momentum_step: 0.1,
            lr_min: 1e-8,
            lr_max: 10.0,
            momentum_min: 0.0,
            momentum_max: 0.9999,
        }
    }
}

impl Authority {
    /// Validates the envelope; rejected specs never build a session.
    ///
    /// # Errors
    ///
    /// A human-readable reason, relayed to the client as an `error`
    /// frame.
    pub fn validate(&self) -> Result<(), String> {
        let all = [
            self.max_lr_step,
            self.max_momentum_step,
            self.lr_min,
            self.lr_max,
            self.momentum_min,
            self.momentum_max,
        ];
        if all.iter().any(|v| !v.is_finite()) {
            return Err("authority limits must be finite".to_string());
        }
        if self.max_lr_step < 0.0 || self.max_momentum_step < 0.0 {
            return Err("authority excursions must be non-negative".to_string());
        }
        if !(self.lr_min > 0.0 && self.lr_min <= self.lr_max) {
            return Err("authority needs 0 < lr_min <= lr_max".to_string());
        }
        if !(self.momentum_min <= self.momentum_max && self.momentum_max < 1.0) {
            return Err("authority needs momentum_min <= momentum_max < 1".to_string());
        }
        Ok(())
    }

    /// The six limits as raw bit patterns, for bitwise spec matching.
    pub fn bits(&self) -> [u32; 6] {
        [
            self.max_lr_step.to_bits(),
            self.max_momentum_step.to_bits(),
            self.lr_min.to_bits(),
            self.lr_max.to_bits(),
            self.momentum_min.to_bits(),
            self.momentum_max.to_bits(),
        ]
    }

    /// Checks that `served` lies inside the absolute bounds, as every
    /// value [`Authority::clamp`] returns does: a restored session's last
    /// served values are the excursion reference of its next clamp.
    ///
    /// # Errors
    ///
    /// A human-readable reason for a value outside the bounds, NaN
    /// included.
    pub fn check_inside(&self, served: Hyper) -> Result<(), String> {
        if (self.lr_min..=self.lr_max).contains(&served.lr)
            && (self.momentum_min..=self.momentum_max).contains(&served.momentum)
        {
            Ok(())
        } else {
            Err(format!(
                "last served lr {} / momentum {} lie outside the authority's bounds",
                served.lr, served.momentum
            ))
        }
    }

    /// Clamps a tuned proposal against the previously applied values
    /// (excursion limits) and the absolute bounds. Returns the applied
    /// hyperparameters and whether the proposal was altered. Non-finite
    /// proposals never pass: they collapse to the previous value (or the
    /// floor on the first update).
    pub fn clamp(&self, prev: Option<Hyper>, tuned: Hyper) -> (Hyper, bool) {
        let mut lr = tuned.lr;
        let mut momentum = tuned.momentum;
        if !lr.is_finite() {
            lr = prev.map_or(self.lr_min, |p| p.lr);
        }
        if !momentum.is_finite() {
            momentum = prev.map_or(self.momentum_min, |p| p.momentum);
        }
        if let Some(p) = prev {
            // prev is always inside the absolute bounds (it came out of
            // this clamp), so the excursion window is well-ordered.
            lr = lr.clamp(
                p.lr * (1.0 - self.max_lr_step).max(0.0),
                p.lr * (1.0 + self.max_lr_step),
            );
            momentum = momentum.clamp(
                p.momentum - self.max_momentum_step,
                p.momentum + self.max_momentum_step,
            );
        }
        lr = lr.clamp(self.lr_min, self.lr_max);
        momentum = momentum.clamp(self.momentum_min, self.momentum_max);
        let out = Hyper {
            lr,
            momentum,
            grad_scale: tuned.grad_scale,
        };
        let clamped = out.lr.to_bits() != tuned.lr.to_bits()
            || out.momentum.to_bits() != tuned.momentum.to_bits();
        (out, clamped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_update_sees_only_absolute_bounds() {
        let a = Authority::default();
        let (h, clamped) = a.clamp(None, Hyper::new(100.0, 0.5));
        assert_eq!(h.lr, a.lr_max);
        assert_eq!(h.momentum, 0.5);
        assert!(clamped);
        let (h, clamped) = a.clamp(None, Hyper::new(0.1, 0.9));
        assert_eq!((h.lr, h.momentum), (0.1, 0.9));
        assert!(!clamped);
    }

    #[test]
    fn excursions_are_limited_per_update() {
        let a = Authority::default();
        let prev = Hyper::new(0.1, 0.5);
        // A 10x lr jump is cut to +50%; a 0.4 momentum jump to +0.1.
        let (h, clamped) = a.clamp(Some(prev), Hyper::new(1.0, 0.9));
        assert_eq!(h.lr, 0.1 * 1.5);
        assert_eq!(h.momentum, 0.6);
        assert!(clamped);
        // A collapse to (near) zero is cut to -50% / -0.1.
        let (h, _) = a.clamp(Some(prev), Hyper::new(1e-9, 0.0));
        assert_eq!(h.lr, 0.05);
        assert_eq!(h.momentum, 0.4);
    }

    #[test]
    fn in_envelope_proposals_pass_bit_exactly() {
        let a = Authority::default();
        let prev = Hyper::new(0.1, 0.5);
        let tuned = Hyper {
            lr: 0.12,
            momentum: 0.55,
            grad_scale: 0.25,
        };
        let (h, clamped) = a.clamp(Some(prev), tuned);
        assert!(!clamped);
        assert_eq!(h.lr.to_bits(), tuned.lr.to_bits());
        assert_eq!(h.momentum.to_bits(), tuned.momentum.to_bits());
        assert_eq!(h.grad_scale.to_bits(), tuned.grad_scale.to_bits());
    }

    #[test]
    fn non_finite_proposals_collapse_to_previous() {
        let a = Authority::default();
        let prev = Hyper::new(0.1, 0.5);
        let (h, clamped) = a.clamp(Some(prev), Hyper::new(f32::NAN, f32::INFINITY));
        assert_eq!(h.lr, 0.1);
        assert_eq!(h.momentum, 0.5);
        assert!(clamped);
        let (h, _) = a.clamp(None, Hyper::new(f32::NAN, f32::NAN));
        assert_eq!(h.lr, a.lr_min);
        assert_eq!(h.momentum, a.momentum_min);
    }

    #[test]
    fn validation_rejects_degenerate_envelopes() {
        let mut a = Authority::default();
        assert!(a.validate().is_ok());
        a.lr_min = 0.0;
        assert!(a.validate().is_err());
        a = Authority::default();
        a.momentum_max = 1.0;
        assert!(a.validate().is_err());
        a = Authority::default();
        a.max_lr_step = f32::NAN;
        assert!(a.validate().is_err());
    }
}
