//! The data-quality filter: measurements a session refuses to learn
//! from.
//!
//! Remote measurement streams carry hazards an in-process trainer never
//! sees — a client that hit a NaN loss, a torn gradient buffer, a
//! diverging replica reporting gradient norms orders of magnitude off.
//! Feeding those into the tuner's EMAs would poison every later
//! decision, so each session screens measurements through a
//! [`yellowfin::OutlierGate`] seeded from the paper's adaptive-clipping
//! threshold (Eq. 35): the gate's growth-limited curvature envelope
//! tracks the healthy h = ||g||^2 range, and anything beyond
//! `tolerance^2 * h_max` is rejected. Rejected-but-finite spikes still
//! nudge the envelope, so a genuine regime change re-admits within a
//! few steps instead of rejecting forever.

use yellowfin::OutlierGate;
use yf_optim::checkpoint::OptStateError;

/// Configuration of a session's quality gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilterSpec {
    /// Sliding-window width of the curvature envelope (steps).
    pub window: usize,
    /// EMA smoothing of the envelope extrema.
    pub beta: f64,
    /// Rejection threshold: gradient norms beyond `tolerance * sqrt(h_max)`
    /// (i.e. squared norms beyond `tolerance^2 * h_max`) are outliers.
    pub tolerance: f64,
}

impl Default for FilterSpec {
    fn default() -> Self {
        FilterSpec {
            window: 20,
            beta: 0.999,
            tolerance: 10.0,
        }
    }
}

impl FilterSpec {
    /// Validates the configuration; rejected specs never build a
    /// session.
    ///
    /// # Errors
    ///
    /// A human-readable reason, relayed to the client as an `error`
    /// frame.
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("filter window must be positive".to_string());
        }
        if !(self.beta.is_finite() && 0.0 < self.beta && self.beta < 1.0) {
            return Err("filter beta must be in (0, 1)".to_string());
        }
        if !(self.tolerance.is_finite() && self.tolerance > 0.0) {
            return Err("filter tolerance must be a positive finite value".to_string());
        }
        Ok(())
    }

    /// The configuration as raw bit patterns, for bitwise spec matching.
    pub fn bits(&self) -> (u64, u64, u64) {
        (
            self.window as u64,
            self.beta.to_bits(),
            self.tolerance.to_bits(),
        )
    }
}

/// A session's stateful measurement screen.
#[derive(Debug)]
pub struct QualityFilter {
    gate: OutlierGate,
}

impl QualityFilter {
    /// A fresh filter (envelope uninitialized: the first finite
    /// measurement is always admitted and seeds it).
    pub fn new(spec: FilterSpec) -> QualityFilter {
        QualityFilter {
            gate: OutlierGate::new(spec.window, spec.beta, spec.tolerance),
        }
    }

    /// Screens one measurement. `Ok` admits it into the tuner; `Err`
    /// names the rejection reason. Finite outliers still update the
    /// growth-limited envelope (see module docs); non-finite
    /// measurements touch nothing.
    ///
    /// # Errors
    ///
    /// The static rejection reason, relayed in the `rejected` frame.
    pub fn admit(&mut self, loss: f64, squared_norm: f64) -> Result<(), &'static str> {
        if !loss.is_finite() {
            return Err("non-finite loss");
        }
        if !squared_norm.is_finite() {
            return Err("non-finite gradient norm");
        }
        if !self.gate.admit(squared_norm) {
            return Err("gradient-norm outlier");
        }
        Ok(())
    }

    /// Serializes the gate state for the session snapshot.
    pub fn save_state(&self) -> String {
        self.gate.save_state()
    }

    /// Rebuilds the filter from [`QualityFilter::save_state`] output.
    ///
    /// # Errors
    ///
    /// [`OptStateError`] when the state text is malformed or out of
    /// range.
    pub fn restore_state(text: &str) -> Result<QualityFilter, OptStateError> {
        OutlierGate::restore_state(text).map(|gate| QualityFilter { gate })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn screens_hazards_and_admits_healthy_measurements() {
        let mut f = QualityFilter::new(FilterSpec::default());
        assert_eq!(f.admit(f64::NAN, 1.0), Err("non-finite loss"));
        assert_eq!(f.admit(0.5, f64::INFINITY), Err("non-finite gradient norm"));
        for step in 0..30 {
            assert_eq!(f.admit(0.5, 1.0 + 0.01 * f64::from(step)), Ok(()));
        }
        assert_eq!(f.admit(0.5, 1e9), Err("gradient-norm outlier"));
        assert_eq!(f.admit(0.5, 1.2), Ok(()), "healthy stream continues");
    }

    #[test]
    fn state_round_trip_preserves_judgments() {
        let mut a = QualityFilter::new(FilterSpec::default());
        for step in 0..25 {
            let _ = a.admit(0.5, 2.0 + (f64::from(step) * 0.7).sin());
        }
        let mut b = QualityFilter::restore_state(&a.save_state()).unwrap();
        for step in 0..40 {
            let h = if step % 9 == 8 { 1e8 } else { 2.5 };
            assert_eq!(a.admit(0.25, h), b.admit(0.25, h), "step {step}");
        }
    }

    #[test]
    fn validation_rejects_bad_specs() {
        assert!(FilterSpec::default().validate().is_ok());
        assert!(FilterSpec {
            window: 0,
            ..FilterSpec::default()
        }
        .validate()
        .is_err());
        assert!(FilterSpec {
            beta: 1.0,
            ..FilterSpec::default()
        }
        .validate()
        .is_err());
        assert!(FilterSpec {
            tolerance: 0.0,
            ..FilterSpec::default()
        }
        .validate()
        .is_err());
    }
}
