//! Gradient clipping utilities.
//!
//! The paper's Table 1 baseline uses a *manually chosen* global-norm
//! threshold (0.1 for the seq2seq model); YellowFin's adaptive variant
//! (Appendix F) derives the threshold from its own curvature estimate.
//! In the sharded measure pipeline both paths derive the norm from the
//! per-shard partial reductions and apply the clip factor via
//! [`clip_scale`] / [`crate::Hyper::grad_scale`] — nothing is scaled in
//! place. [`clip_by_global_norm`] remains as the plain in-place
//! primitive for code outside the optimizer step (and as the reference
//! the property tests pin the scale-folding behavior against).

/// Euclidean norm of a flat gradient, accumulated in `f64` through the
/// deterministic blocked reduction ([`yf_tensor::reduce::sumsq`]) — the
/// same kernel the sharded measure phase uses, so a norm computed here
/// matches one assembled from per-shard partial sums bit for bit.
pub fn global_norm(grads: &[f32]) -> f32 {
    yf_tensor::reduce::sumsq(grads).sqrt() as f32
}

/// Scales `grads` in place so its global norm is at most `threshold`.
/// Returns the norm measured *before* clipping.
///
/// A non-positive or non-finite threshold disables clipping (the norm is
/// still returned), which lets callers thread an "off" setting through
/// unconditionally.
pub fn clip_by_global_norm(grads: &mut [f32], threshold: f32) -> f32 {
    let norm = global_norm(grads);
    if threshold > 0.0 && threshold.is_finite() && norm > threshold {
        let scale = threshold / norm;
        for g in grads.iter_mut() {
            *g *= scale;
        }
    }
    norm
}

/// The scale factor [`clip_by_global_norm`] would apply for a gradient of
/// norm `norm` under `threshold` (1.0 when no clipping occurs).
pub fn clip_scale(norm: f32, threshold: f32) -> f32 {
    if threshold > 0.0 && threshold.is_finite() && norm > threshold {
        threshold / norm
    } else {
        1.0
    }
}

/// Clipping middleware: scales the gradient to a fixed global-norm
/// threshold before delegating — the "manually set gradient norm
/// threshold" baseline of the paper's Table 1.
///
/// Fully copy-free in the sharded measure pipeline: `combine` assembles
/// the norm from the per-block Σg² partials with the deterministic tree
/// reduction, hands the same partials to the inner `combine`, and threads
/// the clip factor in as a gradient *scale* — the wrapped optimizer
/// measures on scaled values analytically, and the apply phase folds the
/// same factor into [`crate::Hyper::grad_scale`], so no scaled gradient is
/// ever materialized anywhere in the step.
#[derive(Debug, Clone)]
pub struct Clipped<O> {
    inner: O,
    threshold: f32,
}

impl<O: crate::Optimizer> Clipped<O> {
    /// Wraps `inner`, clipping gradients to `threshold`.
    pub fn new(inner: O, threshold: f32) -> Self {
        Clipped { inner, threshold }
    }

    /// The wrapped optimizer.
    pub fn inner(&self) -> &O {
        &self.inner
    }
}

impl<O: crate::Optimizer> crate::Optimizer for Clipped<O> {
    fn combine(
        &mut self,
        params: &[f32],
        grads: &[f32],
        partials: Vec<crate::StatsPartial>,
        grad_scale: f32,
    ) -> crate::Hyper {
        let sumsq = crate::StatsPartial::merge_sums(&partials, grads.len());
        // The norm this wrapper sees is the norm of the gradient already
        // scaled by every enclosing wrapper.
        let norm = (f64::from(grad_scale) * sumsq.sqrt()) as f32;
        let scale = clip_scale(norm, self.threshold);
        // `StatsPartial::sums` is contractually the raw-gradient Σg², so
        // the wrapped optimizer measures from these same partials.
        let hyper = self
            .inner
            .combine(params, grads, partials, grad_scale * scale);
        crate::Hyper {
            grad_scale: hyper.grad_scale * scale,
            ..hyper
        }
    }

    fn needs_observe_partials(&self) -> bool {
        true
    }

    fn step_shard(
        &self,
        shard: crate::ParamShard,
        params: &mut [f32],
        grads: &[f32],
        hyper: crate::Hyper,
    ) {
        self.inner.step_shard(shard, params, grads, hyper);
    }

    fn learning_rate(&self) -> f32 {
        self.inner.learning_rate()
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.inner.set_learning_rate(lr);
    }

    fn is_self_tuning(&self) -> bool {
        self.inner.is_self_tuning()
    }

    // The threshold is construction-time configuration; all mutable run
    // state lives in the wrapped optimizer, so checkpoints delegate.
    fn checkpoint_state(&self) -> Option<String> {
        self.inner.checkpoint_state()
    }

    fn restore_checkpoint(&mut self, text: &str) -> Result<(), crate::checkpoint::OptStateError> {
        self.inner.restore_checkpoint(text)
    }

    fn name(&self) -> &'static str {
        "clipped"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_matches_hand_value() {
        assert!((global_norm(&[3.0, 4.0]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn clips_only_above_threshold() {
        let mut g = vec![3.0f32, 4.0];
        let norm = clip_by_global_norm(&mut g, 10.0);
        assert_eq!(norm, 5.0);
        assert_eq!(g, vec![3.0, 4.0], "below threshold: untouched");

        let norm = clip_by_global_norm(&mut g, 1.0);
        assert_eq!(norm, 5.0);
        assert!((global_norm(&g) - 1.0).abs() < 1e-6);
        // Direction preserved.
        assert!((g[1] / g[0] - 4.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn nonpositive_threshold_disables() {
        let mut g = vec![30.0f32, 40.0];
        clip_by_global_norm(&mut g, 0.0);
        assert_eq!(g, vec![30.0, 40.0]);
        clip_by_global_norm(&mut g, f32::INFINITY);
        assert_eq!(g, vec![30.0, 40.0]);
    }

    #[test]
    fn clipped_adapter_limits_update_size() {
        use crate::{Optimizer, Sgd};
        let mut plain = Sgd::new(1.0);
        let mut clipped = Clipped::new(Sgd::new(1.0), 1.0);
        let mut xp = vec![0.0f32, 0.0];
        let mut xc = vec![0.0f32, 0.0];
        let huge = vec![30.0f32, 40.0];
        plain.step(&mut xp, &huge);
        clipped.step(&mut xc, &huge);
        assert_eq!(xp, vec![-30.0, -40.0]);
        let step_norm = global_norm(&xc);
        assert!((step_norm - 1.0).abs() < 1e-6, "clipped step {step_norm}");
    }

    #[test]
    fn clipped_adapter_passes_small_gradients_through() {
        use crate::{Optimizer, Sgd};
        let mut clipped = Clipped::new(Sgd::new(0.5), 10.0);
        let mut x = vec![1.0f32];
        clipped.step(&mut x, &[1.0]);
        assert!((x[0] - 0.5).abs() < 1e-6);
    }
}
