//! Adam (Kingma & Ba, 2014) with zero-debiased moments.

use crate::checkpoint::{OptStateError, StateReader, StateWriter};
use crate::{check_lengths, Hyper, Optimizer, ParamShard, ShardedState, StatsPartial};
use yf_tensor::elementwise;

/// The Adam optimizer.
///
/// β1 may be *negative*: the paper's Figure 10 sweeps
/// `β1 ∈ {−0.2, 0.0, 0.3, 0.5, 0.7, 0.9}` under asynchrony, where negative
/// first-moment smoothing acts like negative momentum and compensates for
/// asynchrony-induced momentum. Bias correction `1 − β1^t` remains valid
/// for negative β1.
///
/// Two-phase mapping: `combine` advances the step counter `t` and reports
/// β1 as the [`Hyper::momentum`]; `step_shard` updates the per-shard
/// `(m, v)` moment buffers and the parameters in one fused pass.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    state: ShardedState,
    dim: Option<usize>,
}

impl Adam {
    /// Adam with the standard β1 = 0.9, β2 = 0.999, ε = 1e-8.
    pub fn new(lr: f32) -> Self {
        Adam::with_betas(lr, 0.9, 0.999)
    }

    /// Adam with explicit moment coefficients.
    ///
    /// # Panics
    ///
    /// Panics unless `beta1 ∈ (−1, 1)` and `beta2 ∈ [0, 1)`.
    pub fn with_betas(lr: f32, beta1: f32, beta2: f32) -> Self {
        assert!(
            (-1.0..1.0).contains(&beta1),
            "adam: beta1 {beta1} out of (-1, 1)"
        );
        assert!(
            (0.0..1.0).contains(&beta2),
            "adam: beta2 {beta2} out of [0, 1)"
        );
        Adam {
            lr,
            beta1,
            beta2,
            eps: 1e-8,
            t: 0,
            state: ShardedState::new(2),
            dim: None,
        }
    }

    /// First-moment coefficient (Adam's "momentum").
    pub fn beta1(&self) -> f32 {
        self.beta1
    }
}

impl Optimizer for Adam {
    fn combine(
        &mut self,
        params: &[f32],
        grads: &[f32],
        _partials: Vec<StatsPartial>,
        _grad_scale: f32,
    ) -> Hyper {
        let dim = *self.dim.get_or_insert(params.len());
        check_lengths(dim, params, grads);
        self.t += 1;
        Hyper::new(self.lr, self.beta1)
    }

    fn step_shard(&self, shard: ParamShard, params: &mut [f32], grads: &[f32], hyper: Hyper) {
        shard.validate(params, grads);
        let beta1 = hyper.momentum;
        let bc1 = 1.0 - beta1.powi(self.t.min(i32::MAX as u64) as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t.min(i32::MAX as u64) as i32);
        self.state.with(shard, params.len(), |bufs| {
            let (m, rest) = bufs.split_first_mut().expect("adam: two state buffers");
            let v = &mut rest[0];
            if m.is_empty() {
                m.resize(params.len(), 0.0);
                v.resize(params.len(), 0.0);
            }
            elementwise::adam_step(
                params,
                m,
                v,
                grads,
                beta1,
                self.beta2,
                hyper.lr,
                self.eps,
                bc1,
                bc2,
                hyper.grad_scale,
            );
        });
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn checkpoint_state(&self) -> Option<String> {
        let mut w = StateWriter::new("adam");
        w.f32_field("lr", self.lr);
        w.f32_field("beta1", self.beta1);
        w.f32_field("beta2", self.beta2);
        w.f32_field("eps", self.eps);
        w.field("t", self.t);
        w.dim("dim", self.dim);
        w.f32_slice("m", &self.state.flatten(0));
        w.f32_slice("v", &self.state.flatten(1));
        Some(w.finish())
    }

    fn restore_checkpoint(&mut self, text: &str) -> Result<(), OptStateError> {
        let r = StateReader::new(text, "adam")?;
        self.lr = r.f32("lr")?;
        self.beta1 = r.f32("beta1")?;
        self.beta2 = r.f32("beta2")?;
        self.eps = r.f32("eps")?;
        self.t = r.parse("t")?;
        self.dim = r.dim("dim")?;
        let (m, v) = (r.buffer("m", self.dim)?, r.buffer("v", self.dim)?);
        if m.len() != v.len() {
            return Err(OptStateError::new("adam: m and v lengths disagree"));
        }
        self.state = ShardedState::new(2);
        if !m.is_empty() {
            self.state.load_full(vec![m, v]);
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "adam"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_step_is_signed_lr() {
        // After bias correction, the very first Adam step is ±lr.
        let mut opt = Adam::new(0.01);
        let mut x = vec![0.0f32, 0.0];
        opt.step(&mut x, &[3.0, -0.5]);
        assert!((x[0] + 0.01).abs() < 1e-5, "{}", x[0]);
        assert!((x[1] - 0.01).abs() < 1e-5, "{}", x[1]);
    }

    #[test]
    fn negative_beta1_is_supported_and_converges() {
        let mut opt = Adam::with_betas(0.05, -0.2, 0.999);
        let mut x = vec![1.0f32];
        for _ in 0..400 {
            let g = vec![x[0]];
            opt.step(&mut x, &g);
        }
        assert!(x[0].abs() < 1e-2, "{}", x[0]);
    }

    #[test]
    #[should_panic(expected = "beta1")]
    fn beta1_out_of_range_panics() {
        Adam::with_betas(0.1, 1.0, 0.999);
    }

    #[test]
    fn per_coordinate_scaling_equalizes() {
        // Adam normalizes per-coordinate magnitude: both coordinates of a
        // badly scaled quadratic move at similar speeds early on.
        let mut opt = Adam::new(0.05);
        let h = [1.0f32, 1000.0];
        let mut x = vec![1.0f32, 1.0];
        for _ in 0..20 {
            let g: Vec<f32> = x.iter().zip(h.iter()).map(|(&x, &h)| h * x).collect();
            opt.step(&mut x, &g);
        }
        let drop0 = 1.0 - x[0];
        let drop1 = 1.0 - x[1];
        assert!((drop0 - drop1).abs() < 0.05, "drops {drop0} vs {drop1}");
    }
}
