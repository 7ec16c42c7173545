//! AdaGrad (Duchi, Hazan & Singer, 2011).

use crate::checkpoint::{OptStateError, StateReader, StateWriter};
use crate::{check_lengths, Hyper, Optimizer, ParamShard, ShardedState, StatsPartial};
use yf_tensor::elementwise;

/// AdaGrad: per-coordinate learning rates from accumulated squared
/// gradients. One of the baselines the paper compares against on the WSJ
/// constituency parsing task (Figure 5, right).
#[derive(Debug, Clone)]
pub struct AdaGrad {
    lr: f32,
    eps: f32,
    state: ShardedState,
    dim: Option<usize>,
}

impl AdaGrad {
    /// AdaGrad with accumulator floor ε = 1e-10.
    pub fn new(lr: f32) -> Self {
        AdaGrad {
            lr,
            eps: 1e-10,
            state: ShardedState::new(1),
            dim: None,
        }
    }
}

impl Optimizer for AdaGrad {
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
            let accum = &mut bufs[0];
            if accum.is_empty() {
                accum.resize(params.len(), 0.0);
            }
            elementwise::adaptive_sq_step(
                params,
                accum,
                grads,
                1.0,
                1.0,
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
        let mut w = StateWriter::new("adagrad");
        w.f32_field("lr", self.lr);
        w.f32_field("eps", self.eps);
        w.dim("dim", self.dim);
        w.f32_slice("accum", &self.state.flatten(0));
        Some(w.finish())
    }

    fn restore_checkpoint(&mut self, text: &str) -> Result<(), OptStateError> {
        let r = StateReader::new(text, "adagrad")?;
        self.lr = r.f32("lr")?;
        self.eps = r.f32("eps")?;
        self.dim = r.dim("dim")?;
        let accum = r.buffer("accum", self.dim)?;
        self.state = ShardedState::new(1);
        if !accum.is_empty() {
            self.state.load_full(vec![accum]);
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "adagrad"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_step_is_signed_lr() {
        let mut opt = AdaGrad::new(0.1);
        let mut x = vec![0.0f32];
        opt.step(&mut x, &[5.0]);
        assert!((x[0] + 0.1).abs() < 1e-5);
    }

    #[test]
    fn step_sizes_shrink_over_time() {
        let mut opt = AdaGrad::new(0.1);
        let mut x = vec![0.0f32];
        opt.step(&mut x, &[1.0]);
        let first = x[0].abs();
        let before = x[0];
        opt.step(&mut x, &[1.0]);
        let second = (x[0] - before).abs();
        assert!(second < first, "second step {second} >= first {first}");
    }
}
