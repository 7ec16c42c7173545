//! Stochastic gradient descent, with and without momentum.

use crate::checkpoint::{OptStateError, StateReader, StateWriter};
use crate::{check_lengths, Hyper, Optimizer, ParamShard, ShardedState, StatsPartial};
use yf_tensor::elementwise;

/// Vanilla SGD: `x <- x - lr * g`.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    dim: Option<usize>,
}

impl Sgd {
    /// Creates plain SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Sgd { lr, dim: None }
    }
}

impl Optimizer for Sgd {
    fn combine(
        &mut self,
        params: &[f32],
        grads: &[f32],
        _partials: Vec<StatsPartial>,
        _grad_scale: f32,
    ) -> Hyper {
        let dim = *self.dim.get_or_insert(params.len());
        check_lengths(dim, params, grads);
        Hyper::new(self.lr, 0.0)
    }

    fn step_shard(&self, shard: ParamShard, params: &mut [f32], grads: &[f32], hyper: Hyper) {
        shard.validate(params, grads);
        elementwise::axpy(params, -(hyper.lr * hyper.grad_scale), grads);
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn checkpoint_state(&self) -> Option<String> {
        let mut w = StateWriter::new("sgd");
        w.f32_field("lr", self.lr);
        w.dim("dim", self.dim);
        Some(w.finish())
    }

    fn restore_checkpoint(&mut self, text: &str) -> Result<(), OptStateError> {
        let r = StateReader::new(text, "sgd")?;
        self.lr = r.f32("lr")?;
        self.dim = r.dim("dim")?;
        Ok(())
    }

    fn name(&self) -> &'static str {
        "sgd"
    }
}

/// Momentum SGD, Polyak's heavy ball by default (Eq. 1 of the paper):
///
/// `v <- mu * v - lr * g;  x <- x + v`
///
/// which is algebraically `x_{t+1} = x_t - lr * g + mu * (x_t - x_{t-1})`.
/// The [`MomentumSgd::nesterov`] constructor applies the momentum
/// correction of Nesterov's accelerated gradient instead (the variant used
/// by the Table 1 default optimizer).
#[derive(Debug, Clone)]
pub struct MomentumSgd {
    lr: f32,
    momentum: f32,
    nesterov: bool,
    velocity: ShardedState,
    dim: Option<usize>,
}

impl MomentumSgd {
    /// Polyak momentum SGD.
    pub fn new(lr: f32, momentum: f32) -> Self {
        MomentumSgd {
            lr,
            momentum,
            nesterov: false,
            velocity: ShardedState::new(1),
            dim: None,
        }
    }

    /// Nesterov momentum SGD.
    pub fn nesterov(lr: f32, momentum: f32) -> Self {
        MomentumSgd {
            nesterov: true,
            ..MomentumSgd::new(lr, momentum)
        }
    }

    /// Current momentum value.
    pub fn momentum(&self) -> f32 {
        self.momentum
    }

    /// Overrides the momentum (the closed-loop controller does this every
    /// iteration).
    pub fn set_momentum(&mut self, momentum: f32) {
        self.momentum = momentum;
    }

    /// The velocity buffer stitched back into one flat vector (empty
    /// before the first step).
    pub fn velocity(&self) -> Vec<f32> {
        self.velocity.flatten(0)
    }
}

impl Optimizer for MomentumSgd {
    fn combine(
        &mut self,
        params: &[f32],
        grads: &[f32],
        _partials: Vec<StatsPartial>,
        _grad_scale: f32,
    ) -> Hyper {
        let dim = *self.dim.get_or_insert(params.len());
        check_lengths(dim, params, grads);
        Hyper::new(self.lr, self.momentum)
    }

    fn step_shard(&self, shard: ParamShard, params: &mut [f32], grads: &[f32], hyper: Hyper) {
        shard.validate(params, grads);
        self.velocity.with(shard, params.len(), |bufs| {
            let v = &mut bufs[0];
            if v.is_empty() {
                v.resize(params.len(), 0.0);
            }
            // Single fused pass: velocity update plus either the Polyak
            // apply or the Nesterov look-ahead correction.
            elementwise::momentum_step(
                params,
                v,
                grads,
                hyper.momentum,
                hyper.lr,
                self.nesterov,
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
        let mut w = StateWriter::new("momentum-sgd");
        w.f32_field("lr", self.lr);
        w.f32_field("momentum", self.momentum);
        w.field("nesterov", self.nesterov);
        w.dim("dim", self.dim);
        w.f32_slice("velocity", &self.velocity.flatten(0));
        Some(w.finish())
    }

    fn restore_checkpoint(&mut self, text: &str) -> Result<(), OptStateError> {
        let r = StateReader::new(text, "momentum-sgd")?;
        self.lr = r.f32("lr")?;
        self.momentum = r.f32("momentum")?;
        self.nesterov = r.parse("nesterov")?;
        self.dim = r.dim("dim")?;
        let velocity = r.buffer("velocity", self.dim)?;
        self.velocity = ShardedState::new(1);
        if !velocity.is_empty() {
            self.velocity.load_full(vec![velocity]);
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        if self.nesterov {
            "nesterov-sgd"
        } else {
            "momentum-sgd"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_single_step_algebra() {
        let mut opt = Sgd::new(0.5);
        let mut x = vec![1.0, -2.0];
        opt.step(&mut x, &[2.0, 2.0]);
        assert_eq!(x, vec![0.0, -3.0]);
    }

    #[test]
    fn momentum_matches_polyak_recurrence() {
        // Verify v-form equals the paper's x_{t+1} = x_t - lr g + mu (x_t - x_{t-1}).
        let (lr, mu) = (0.1f32, 0.8f32);
        let grad_fn = |x: f32| 2.0 * x; // f = x^2
        let mut opt = MomentumSgd::new(lr, mu);
        let mut x = vec![1.0f32];
        let manual = 1.0f32;
        // First step has no momentum history.
        opt.step(&mut x, &[grad_fn(manual)]);
        let m_next = manual - lr * grad_fn(manual);
        let (mut manual_prev, mut manual) = (manual, m_next);
        assert!((x[0] - manual).abs() < 1e-6);
        for _ in 0..20 {
            opt.step(&mut x, &[grad_fn(manual)]);
            let m_next = manual - lr * grad_fn(manual) + mu * (manual - manual_prev);
            (manual_prev, manual) = (manual, m_next);
            assert!((x[0] - manual).abs() < 1e-5, "{} vs {manual}", x[0]);
        }
    }

    #[test]
    fn momentum_accelerates_on_ill_conditioned_quadratic() {
        // With condition number 100, tuned momentum converges much faster
        // than tuned plain gradient descent — the premise of Section 2.
        let h = [1.0f32, 100.0];
        let run = |mut opt: Box<dyn Optimizer>, iters: usize| -> f32 {
            let mut x = vec![1.0f32, 1.0];
            for _ in 0..iters {
                let g: Vec<f32> = x.iter().zip(h.iter()).map(|(&x, &h)| h * x).collect();
                opt.step(&mut x, &g);
            }
            (x[0] * x[0] + x[1] * x[1]).sqrt()
        };
        // Optimal plain GD rate: lr = 2/(h_min + h_max).
        let gd = run(Box::new(Sgd::new(2.0 / 101.0)), 200);
        // Optimal momentum per Eq. 2: mu* = ((sqrt(k)-1)/(sqrt(k)+1))^2.
        let kappa = 100.0f32;
        let mu = ((kappa.sqrt() - 1.0) / (kappa.sqrt() + 1.0)).powi(2);
        let lr = (1.0 + mu.sqrt()).powi(2) / 100.0;
        let mom = run(Box::new(MomentumSgd::new(lr, mu)), 200);
        assert!(
            mom < gd * 1e-3,
            "momentum should be far ahead: momentum {mom} vs gd {gd}"
        );
    }

    #[test]
    fn nesterov_converges_with_high_momentum() {
        let mut opt = MomentumSgd::nesterov(0.05, 0.9);
        let mut x = vec![1.0f32];
        for _ in 0..300 {
            let g = vec![x[0]];
            opt.step(&mut x, &g);
        }
        assert!(x[0].abs() < 1e-4);
    }

    #[test]
    fn set_momentum_takes_effect() {
        let mut opt = MomentumSgd::new(0.1, 0.9);
        opt.set_momentum(0.0);
        let mut x = vec![1.0f32];
        opt.step(&mut x, &[1.0]);
        opt.step(&mut x, &[1.0]);
        // With mu = 0 this is plain SGD: 1 - 0.1 - 0.1 = 0.8.
        assert!((x[0] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn velocity_accessor_reflects_state() {
        let mut opt = MomentumSgd::new(0.1, 0.9);
        assert!(opt.velocity().is_empty(), "no state before the first step");
        opt.step(&mut [1.0, 2.0], &[1.0, 1.0]);
        assert_eq!(opt.velocity(), vec![-0.1, -0.1]);
    }
}
