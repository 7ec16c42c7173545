//! The three measurement oracles of Algorithm 1 (paper Algorithms 2-4).
//!
//! All three consume nothing but the minibatch gradient, giving the tuner
//! overhead linear in the model dimensionality. They assume a negative
//! log-probability objective, under which the Fisher information (the
//! expected outer product of noisy gradients) approximates the Hessian —
//! which is why `h_t = ||g_t||^2`, the sole non-zero eigenvalue of
//! `g_t g_t^T`, serves as a curvature sample along the gradient direction.

use crate::ema::{Ema, VecEma};
use std::collections::VecDeque;
use yf_optim::checkpoint::{OptStateError, StateReader, StateWriter};
use yf_tensor::parallel::Par;

/// Most window slots [`CurvatureRange::new`] reserves up front. Every
/// practical width fits, so the step loop never reallocates the window
/// (small reallocations there fragment the heap around the large
/// per-step buffers and raise peak RSS); a wider window, such as an
/// oversized one a remote peer asked for, grows as it fills instead of
/// allocating its full width at construction.
const MAX_RESERVED_WIDTH: usize = 1024;

/// Algorithm 2: running estimates of the extremal curvatures
/// `h_max`/`h_min` from a sliding window of `h_t = ||g_t||^2`.
///
/// Two refinements from Appendix E/F are implemented:
/// - smoothing happens on `log h` (so rapidly decreasing curvature on
///   LSTMs is tracked), and
/// - with `limit_growth` (used by adaptive clipping, Eq. 35) the window
///   maximum fed into the average is capped at `100 x` the current
///   estimate, which keeps one catastrophic gradient spike from blowing
///   up the clipping envelope.
#[derive(Debug, Clone)]
pub struct CurvatureRange {
    pub(crate) window: VecDeque<f64>,
    pub(crate) width: usize,
    pub(crate) log_h_max: Ema,
    pub(crate) log_h_min: Ema,
    pub(crate) limit_growth: bool,
}

impl CurvatureRange {
    /// Creates the estimator with sliding-window `width` (the paper uses
    /// 20) and smoothing `beta` (the paper uses 0.999).
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: usize, beta: f64, limit_growth: bool) -> Self {
        assert!(width > 0, "curvature range: window width must be positive");
        CurvatureRange {
            window: VecDeque::with_capacity(width.min(MAX_RESERVED_WIDTH)),
            width,
            log_h_max: Ema::new(beta),
            log_h_min: Ema::new(beta),
            limit_growth,
        }
    }

    /// Feeds one squared gradient norm `h_t = ||g_t||^2`.
    pub fn observe(&mut self, h_t: f64) {
        let h_t = h_t.max(f64::MIN_POSITIVE); // log-space smoothing needs > 0
        if self.window.len() == self.width {
            self.window.pop_front();
        }
        self.window.push_back(h_t);
        let mut h_max_t = self.window.iter().copied().fold(f64::MIN, f64::max);
        let h_min_t = self.window.iter().copied().fold(f64::MAX, f64::min);
        if self.limit_growth && self.log_h_max.is_initialized() {
            // Eq. 35: envelope may grow at most 100x per step.
            h_max_t = h_max_t.min(100.0 * self.h_max());
        }
        self.log_h_max.update(h_max_t.ln());
        self.log_h_min.update(h_min_t.ln());
    }

    /// Debiased estimate of the largest curvature.
    pub fn h_max(&self) -> f64 {
        self.log_h_max.value().exp()
    }

    /// Debiased estimate of the smallest curvature.
    pub fn h_min(&self) -> f64 {
        self.log_h_min.value().exp()
    }

    /// Whether at least one observation was made.
    pub fn is_initialized(&self) -> bool {
        self.log_h_max.is_initialized()
    }
}

/// Algorithm 3: gradient variance `C = 1^T (E[g g] - E[g] E[g])`.
///
/// Built on the fused measurement kernel
/// [`yf_tensor::reduce::ema_update_stats`]: one sweep over the gradient
/// updates both per-coordinate moments *and* accumulates the per-block
/// debiased variance partial sums, which a fixed-order tree reduction
/// folds into the total. The sweep is parallel (block-aligned chunks on
/// the persistent worker pool) and bitwise identical for every thread
/// count, so the
/// estimate a sharded measure phase produces equals the whole-vector one
/// exactly. A global gradient scale (clipping) folds into the same sweep
/// — no scaled gradient copy is ever materialized.
#[derive(Debug, Clone)]
pub struct GradVariance {
    pub(crate) first: VecEma,
    pub(crate) second: VecEma,
    /// Variance total from the last sweep (the blocked tree-combined
    /// Σ max(0, m2 − m1²); 0 before the first observation).
    pub(crate) var_sum: f64,
}

impl GradVariance {
    /// Creates the estimator with smoothing `beta`.
    pub fn new(beta: f64) -> Self {
        GradVariance {
            first: VecEma::new(beta),
            second: VecEma::new(beta),
            var_sum: 0.0,
        }
    }

    /// Rebuilds the estimator from restored moment averages, recomputing
    /// the cached variance total with the same blocked reduction the
    /// fused sweep uses (bit-identical to the value before the save).
    pub(crate) fn from_parts(first: VecEma, second: VecEma) -> Self {
        let var_sum = if first.is_initialized() {
            yf_tensor::reduce::variance_total(&first.biased, &second.biased, first.correction)
        } else {
            0.0
        };
        GradVariance {
            first,
            second,
            var_sum,
        }
    }

    /// Feeds one minibatch gradient.
    pub fn observe(&mut self, grad: &[f32]) {
        self.observe_scaled(grad, 1.0, 1);
    }

    /// Feeds one minibatch gradient as if every element were multiplied
    /// by `scale`, sweeping with up to `threads` block-aligned parallel
    /// chunks. The result does not depend on `threads`.
    ///
    /// # Panics
    ///
    /// Panics if the dimension changes between observations.
    pub fn observe_scaled(&mut self, grads: &[f32], scale: f64, threads: usize) {
        if self.first.biased.is_empty() {
            self.first.biased = vec![0.0; grads.len()];
            self.second.biased = vec![0.0; grads.len()];
        }
        assert_eq!(
            self.first.biased.len(),
            grads.len(),
            "vec ema: dimension changed"
        );
        let beta = self.first.beta;
        let corr = beta * self.first.correction + (1.0 - beta);
        self.var_sum = yf_tensor::reduce::ema_update_stats_parallel(
            &mut self.first.biased,
            &mut self.second.biased,
            grads,
            beta,
            scale,
            corr,
            Par::threads(threads),
        );
        self.first.correction = corr;
        self.first.steps += 1;
        self.second.correction = corr;
        self.second.steps += 1;
    }

    /// The summed per-coordinate variance estimate, floored at zero
    /// (finite-sample noise can drive individual coordinates slightly
    /// negative). Cached from the last fused sweep — no per-step fold
    /// over the model dimension happens here.
    pub fn variance(&self) -> f64 {
        self.var_sum
    }

    /// Whether at least one observation was made.
    pub fn is_initialized(&self) -> bool {
        self.first.is_initialized()
    }

    /// The gradient dimension the moments hold, or `None` before the
    /// first observation fixes it.
    pub fn dim(&self) -> Option<usize> {
        Some(self.first.biased.len()).filter(|&d| d > 0)
    }
}

/// Algorithm 4: distance to the optimum of the local quadratic
/// approximation, `D ≈ E||g|| / E h`, motivated by
/// `||∇f(x)|| <= ||H|| ||x - x*||` on quadratics.
#[derive(Debug, Clone)]
pub struct DistanceToOpt {
    pub(crate) grad_norm: Ema,
    pub(crate) curvature: Ema,
    pub(crate) dist: Ema,
}

impl DistanceToOpt {
    /// Creates the estimator with smoothing `beta`.
    pub fn new(beta: f64) -> Self {
        DistanceToOpt {
            grad_norm: Ema::new(beta),
            curvature: Ema::new(beta),
            dist: Ema::new(beta),
        }
    }

    /// Feeds one gradient norm `||g_t||` (its square is the curvature
    /// proxy `h_t`).
    pub fn observe(&mut self, grad_norm: f64) {
        self.grad_norm.update(grad_norm);
        self.curvature.update(grad_norm * grad_norm);
        let h = self.curvature.value();
        if h > 0.0 {
            self.dist.update(self.grad_norm.value() / h);
        } else {
            self.dist.update(0.0);
        }
    }

    /// The debiased distance estimate `D`.
    pub fn distance(&self) -> f64 {
        self.dist.value()
    }

    /// Whether at least one observation was made.
    pub fn is_initialized(&self) -> bool {
        self.dist.is_initialized()
    }
}

/// The adaptive-clipping threshold machinery (§3.3, Eq. 35) packaged as
/// a standalone outlier gate for measurement streams.
///
/// Adaptive clipping trusts the [`CurvatureRange`] envelope: a gradient
/// whose squared norm exceeds the smoothed `h_max` estimate by more than
/// a tolerance factor is a spike, not signal. The gate runs the same
/// limited-growth estimator (the window maximum fed into the average is
/// capped at `100 x` the current estimate, so one catastrophic sample
/// cannot blow the envelope open) and answers a single question per
/// sample: *should a tuner consume this measurement at all?*
///
/// `yf-serve` uses this as its per-session data-quality filter: rejected
/// measurements never reach the session's optimizer, but they still
/// nudge the envelope through the growth-limited path, so a genuine
/// regime change (norms that really did grow) is admitted within a few
/// observations instead of being blocked forever.
///
/// The gate is deterministic and checkpointable ([`OutlierGate::save_state`]),
/// which keeps a filtered measurement stream bit-exactly replayable.
#[derive(Debug, Clone)]
pub struct OutlierGate {
    range: CurvatureRange,
    /// Norm multiples of the clip threshold `sqrt(h_max)` beyond which a
    /// sample is rejected.
    tolerance: f64,
}

impl OutlierGate {
    /// Creates the gate with sliding-window `width`, smoothing `beta`
    /// (the paper's clipping machinery uses 20 / 0.999), and `tolerance`
    /// in norm multiples of the adaptive clip threshold `sqrt(h_max)`.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`, `beta` is not in `(0, 1)`, or `tolerance`
    /// is not a positive finite number.
    pub fn new(width: usize, beta: f64, tolerance: f64) -> Self {
        assert!(
            tolerance.is_finite() && tolerance > 0.0,
            "outlier gate: tolerance must be positive and finite"
        );
        OutlierGate {
            range: CurvatureRange::new(width, beta, true),
            tolerance,
        }
    }

    /// Judges one squared gradient norm `h_t = ||g_t||^2`.
    ///
    /// Returns `true` when the sample is admissible. Non-finite samples
    /// are always rejected and leave the envelope untouched; finite
    /// outliers are rejected but still observed through the
    /// growth-limited envelope update (Eq. 35), so the threshold adapts
    /// to genuine regime changes. The first `width` samples (an empty
    /// envelope) are always admitted — there is nothing to compare
    /// against yet.
    pub fn admit(&mut self, squared_norm: f64) -> bool {
        if !squared_norm.is_finite() || squared_norm < 0.0 {
            return false;
        }
        let admissible = match self.limit() {
            Some(limit) => squared_norm <= limit,
            None => true,
        };
        self.range.observe(squared_norm);
        admissible
    }

    /// The current admissible cap on squared norms:
    /// `tolerance^2 * h_max`, or `None` before the first observation.
    pub fn limit(&self) -> Option<f64> {
        if self.range.is_initialized() {
            Some(self.tolerance * self.tolerance * self.range.h_max())
        } else {
            None
        }
    }

    /// The configured tolerance in norm multiples of `sqrt(h_max)`.
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// Serializes the gate bit-exactly (versioned text block, the same
    /// dialect as [`crate::tuner::YellowFin::save_state`]).
    pub fn save_state(&self) -> String {
        let mut w = StateWriter::versioned();
        w.f64_field("tolerance", self.tolerance);
        w.field("window_width", self.range.width);
        w.f64_field("beta", self.range.log_h_max.beta);
        w.f64_slice("window", &Vec::from(self.range.window.clone()));
        w.f64_field("log_h_max.biased", self.range.log_h_max.biased);
        w.f64_field("log_h_max.correction", self.range.log_h_max.correction);
        w.field("log_h_max.steps", self.range.log_h_max.steps);
        w.f64_field("log_h_min.biased", self.range.log_h_min.biased);
        w.f64_field("log_h_min.correction", self.range.log_h_min.correction);
        w.field("log_h_min.steps", self.range.log_h_min.steps);
        w.finish()
    }

    /// Reconstructs a gate from [`OutlierGate::save_state`] output.
    ///
    /// # Errors
    ///
    /// [`OptStateError`] on version mismatch, missing fields, or
    /// malformed or out-of-range values (those [`OutlierGate::new`]
    /// would panic on).
    pub fn restore_state(text: &str) -> Result<Self, OptStateError> {
        let r = StateReader::versioned(text)?;
        let tolerance = r.f64("tolerance")?;
        if !(tolerance.is_finite() && tolerance > 0.0) {
            return Err(OptStateError::new("tolerance must be positive and finite"));
        }
        let mut gate = OutlierGate::new(r.positive("window_width")?, r.beta("beta")?, tolerance);
        gate.range.window = r.f64_vec("window")?.into();
        gate.range.log_h_max.biased = r.f64("log_h_max.biased")?;
        gate.range.log_h_max.correction = r.f64("log_h_max.correction")?;
        gate.range.log_h_max.steps = r.parse("log_h_max.steps")?;
        gate.range.log_h_min.biased = r.f64("log_h_min.biased")?;
        gate.range.log_h_min.correction = r.f64("log_h_min.correction")?;
        gate.range.log_h_min.steps = r.parse("log_h_min.steps")?;
        Ok(gate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curvature_range_brackets_constant_stream() {
        let mut cr = CurvatureRange::new(20, 0.9, false);
        for _ in 0..100 {
            cr.observe(4.0);
        }
        assert!((cr.h_max() - 4.0).abs() < 1e-9);
        assert!((cr.h_min() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn curvature_range_separates_extremes() {
        let mut cr = CurvatureRange::new(20, 0.9, false);
        for i in 0..200 {
            cr.observe(if i % 2 == 0 { 1.0 } else { 100.0 });
        }
        assert!(cr.h_max() > 50.0, "h_max {}", cr.h_max());
        assert!(cr.h_min() < 2.0, "h_min {}", cr.h_min());
        assert!(cr.h_max() >= cr.h_min());
    }

    #[test]
    fn window_forgets_old_extremes() {
        let mut cr = CurvatureRange::new(5, 0.5, false);
        cr.observe(1000.0);
        for _ in 0..50 {
            cr.observe(1.0);
        }
        // The 1000 left the window long ago and the EMA has washed out.
        assert!(cr.h_max() < 2.0, "h_max {}", cr.h_max());
    }

    #[test]
    fn growth_limit_caps_spikes() {
        let mut limited = CurvatureRange::new(1, 0.0, true);
        let mut free = CurvatureRange::new(1, 0.0, false);
        limited.observe(1.0);
        free.observe(1.0);
        limited.observe(1e9);
        free.observe(1e9);
        // beta=0, window=1: estimates track the last (possibly capped) value.
        assert!((free.h_max() - 1e9).abs() / 1e9 < 1e-9);
        assert!(
            (limited.h_max() - 100.0).abs() < 1e-6,
            "{}",
            limited.h_max()
        );
    }

    #[test]
    fn variance_of_deterministic_stream_is_zero() {
        let mut v = GradVariance::new(0.9);
        for _ in 0..50 {
            v.observe(&[1.0, -2.0, 3.0]);
        }
        assert!(v.variance() < 1e-9, "variance {}", v.variance());
    }

    #[test]
    fn variance_matches_bernoulli_noise() {
        // Gradient coordinate alternates a ± eps: variance per coordinate
        // approaches eps^2 (equal weights in the long run).
        let mut v = GradVariance::new(0.999);
        for i in 0..20_000 {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            v.observe(&[1.0 + 0.5 * sign]);
        }
        assert!(
            (v.variance() - 0.25).abs() < 0.01,
            "variance {}",
            v.variance()
        );
    }

    #[test]
    fn distance_on_known_quadratic() {
        // For f = h/2 x^2 at a fixed point x0, ||g|| = h|x0| and
        // h_t = h^2 x0^2, so D = h|x0| / (h^2 x0^2) = 1/(h |x0|).
        // With h = 2, x0 = 3: D = 1/6.
        let mut d = DistanceToOpt::new(0.9);
        for _ in 0..100 {
            d.observe(6.0);
        }
        assert!(
            (d.distance() - 1.0 / 6.0).abs() < 1e-9,
            "D {}",
            d.distance()
        );
    }

    #[test]
    fn zero_gradient_stream_is_safe() {
        let mut cr = CurvatureRange::new(20, 0.999, true);
        let mut v = GradVariance::new(0.999);
        let mut d = DistanceToOpt::new(0.999);
        for _ in 0..10 {
            cr.observe(0.0);
            v.observe(&[0.0, 0.0]);
            d.observe(0.0);
        }
        assert!(cr.h_max().is_finite());
        assert!(v.variance().is_finite());
        assert!(d.distance().is_finite());
    }

    #[test]
    fn outlier_gate_admits_steady_stream_and_rejects_spikes() {
        let mut gate = OutlierGate::new(20, 0.9, 10.0);
        // Warm up on norms around 2 (h around 4).
        for i in 0..50 {
            let h = 4.0 + 0.1 * (i as f64).sin();
            assert!(gate.admit(h), "steady sample {i} must be admitted");
        }
        // A 1000x squared-norm spike is far past 10x the clip norm.
        assert!(!gate.admit(4000.0), "spike must be rejected");
        // The stream right after stays admissible.
        assert!(gate.admit(4.0));
    }

    #[test]
    fn outlier_gate_adapts_to_regime_changes() {
        let mut gate = OutlierGate::new(5, 0.5, 2.0);
        for _ in 0..30 {
            assert!(gate.admit(1.0));
        }
        // Norms genuinely grew 100x: first samples are rejected, but the
        // growth-limited envelope keeps absorbing them and the gate must
        // re-admit the new regime within a few observations.
        let mut admitted_at = None;
        for i in 0..30 {
            if gate.admit(100.0) {
                admitted_at = Some(i);
                break;
            }
        }
        assert!(
            admitted_at.is_some(),
            "a persistent regime change must eventually be admitted"
        );
    }

    #[test]
    fn outlier_gate_rejects_non_finite_without_observing() {
        let mut gate = OutlierGate::new(20, 0.9, 10.0);
        for _ in 0..10 {
            assert!(gate.admit(1.0));
        }
        let limit = gate.limit();
        assert!(!gate.admit(f64::NAN));
        assert!(!gate.admit(f64::INFINITY));
        assert!(!gate.admit(-1.0));
        assert_eq!(
            gate.limit(),
            limit,
            "non-finite samples must leave the envelope untouched"
        );
    }

    #[test]
    fn outlier_gate_state_round_trips_bit_exactly() {
        let mut gate = OutlierGate::new(20, 0.999, 8.0);
        for i in 0..40 {
            gate.admit(2.0 + (i as f64 * 0.7).cos());
        }
        let saved = gate.save_state();
        let mut restored = OutlierGate::restore_state(&saved).expect("valid state");
        assert_eq!(restored.limit(), gate.limit());
        // Both must keep judging a continued stream identically.
        for i in 0..40 {
            let h = if i % 9 == 0 { 500.0 } else { 2.5 };
            assert_eq!(gate.admit(h), restored.admit(h), "sample {i}");
            assert_eq!(gate.limit(), restored.limit(), "sample {i}");
        }
        assert!(OutlierGate::restore_state("garbage").is_err());
    }
}
