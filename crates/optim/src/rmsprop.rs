//! RMSProp (Tieleman & Hinton, 2012).

use crate::checkpoint::{OptStateError, StateReader, StateWriter};
use crate::{check_lengths, Hyper, Optimizer, ParamShard, ShardedState, StatsPartial};
use yf_tensor::elementwise;

/// RMSProp: per-coordinate learning rates from an exponential moving
/// average of squared gradients.
#[derive(Debug, Clone)]
pub struct RmsProp {
    lr: f32,
    decay: f32,
    eps: f32,
    state: ShardedState,
    dim: Option<usize>,
}

impl RmsProp {
    /// RMSProp with the customary decay 0.9 and ε = 1e-8.
    pub fn new(lr: f32) -> Self {
        RmsProp::with_decay(lr, 0.9)
    }

    /// RMSProp with explicit squared-gradient decay.
    ///
    /// # Panics
    ///
    /// Panics unless `decay ∈ [0, 1)`.
    pub fn with_decay(lr: f32, decay: f32) -> Self {
        assert!((0.0..1.0).contains(&decay), "rmsprop: decay {decay}");
        RmsProp {
            lr,
            decay,
            eps: 1e-8,
            state: ShardedState::new(1),
            dim: None,
        }
    }
}

impl Optimizer for RmsProp {
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
        self.state.with(shard, params.len(), |bufs| {
            let ms = &mut bufs[0];
            if ms.is_empty() {
                ms.resize(params.len(), 0.0);
            }
            elementwise::adaptive_sq_step(
                params,
                ms,
                grads,
                self.decay,
                1.0 - self.decay,
                hyper.lr,
                self.eps,
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
        let mut w = StateWriter::new("rmsprop");
        w.f32_field("lr", self.lr);
        w.f32_field("decay", self.decay);
        w.f32_field("eps", self.eps);
        w.dim("dim", self.dim);
        w.f32_slice("ms", &self.state.flatten(0));
        Some(w.finish())
    }

    fn restore_checkpoint(&mut self, text: &str) -> Result<(), OptStateError> {
        let r = StateReader::new(text, "rmsprop")?;
        self.lr = r.f32("lr")?;
        self.decay = r.f32("decay")?;
        self.eps = r.f32("eps")?;
        self.dim = r.dim("dim")?;
        let ms = r.buffer("ms", self.dim)?;
        self.state = ShardedState::new(1);
        if !ms.is_empty() {
            self.state.load_full(vec![ms]);
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "rmsprop"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_gradient_scale() {
        // Two problems whose gradients differ by 1000x should take nearly
        // identical first steps (that is RMSProp's point).
        let mut a = RmsProp::new(0.01);
        let mut b = RmsProp::new(0.01);
        let mut xa = vec![0.0f32];
        let mut xb = vec![0.0f32];
        a.step(&mut xa, &[1.0]);
        b.step(&mut xb, &[1000.0]);
        assert!((xa[0] - xb[0]).abs() < 1e-4, "{} vs {}", xa[0], xb[0]);
    }

    #[test]
    #[should_panic(expected = "decay")]
    fn bad_decay_panics() {
        RmsProp::with_decay(0.1, 1.5);
    }
}
