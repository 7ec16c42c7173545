//! Named task and optimizer factories.
//!
//! Closures cannot cross a process boundary, so fleet jobs carry the
//! *names* of their workload and optimizer and both the coordinator and
//! the `yf-fleet-worker` processes resolve them here — the registry is
//! the single source of truth that keeps an in-process sweep and a
//! multi-process fleet sweep building bit-identical cells. The optimizer
//! half is `yf_serve::registry`, re-exported: tuner sessions and fleet
//! cells resolve optimizer names from the same table.

use crate::task::{ModelTask, TrainTask};
use crate::workloads;
use yf_nn::Mlp;
use yf_tensor::rng::Pcg32;
use yf_tensor::Tensor;

pub use yf_serve::registry::{opt_builder, OptBuilder};

/// Seeded constructor for a boxed training task.
pub type TaskBuilder = fn(u64) -> Box<dyn TrainTask>;

/// A tiny MLP on synthetic 2-feature data: cheap enough for the
/// fault-injection test matrix, with a *stateful* batcher (an RNG drawing
/// each minibatch) so checkpoint resume must replay the batch stream to
/// stay bit-exact.
pub fn toy_mlp(seed: u64) -> Box<dyn TrainTask> {
    let mut rng = Pcg32::seed_stream(seed, 0x70);
    let mlp = Mlp::new(&[2, 8, 2], &mut rng);
    let mut data_rng = Pcg32::seed_stream(seed, 0x71);
    Box::new(ModelTask::new(
        mlp,
        move |_| {
            let x = Tensor::randn(&[8, 2], &mut data_rng);
            let y = (0..8)
                .map(|r| usize::from(x.at(&[r, 0]) + x.at(&[r, 1]) > 0.0))
                .collect();
            (x, y)
        },
        |m: &Mlp| {
            let mut rng = Pcg32::seed(999);
            let x = Tensor::randn(&[64, 2], &mut rng);
            let y: Vec<usize> = (0..64)
                .map(|r| usize::from(x.at(&[r, 0]) + x.at(&[r, 1]) > 0.0))
                .collect();
            f64::from(m.accuracy(&x, &y))
        },
        "accuracy",
        false,
    ))
}

/// Resolves a workload name to its seeded constructor.
pub fn task_builder(name: &str) -> Option<TaskBuilder> {
    Some(match name {
        "toy-mlp" => toy_mlp,
        "cifar10" => workloads::cifar10_like,
        "cifar100" => workloads::cifar100_like,
        "resnext" => workloads::resnext_like,
        "ptb" => workloads::ptb_like,
        "ts" => workloads::ts_like,
        "tied" => workloads::tied_lstm_like,
        "wsj" => workloads::wsj_like,
        "exploding" => workloads::exploding_lstm_like,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_resolves_known_names() {
        for name in ["toy-mlp", "cifar10", "ptb", "ts"] {
            assert!(task_builder(name).is_some(), "{name}");
        }
        for name in ["sgd", "momentum", "nesterov", "adam", "yellowfin"] {
            assert!(opt_builder(name).is_some(), "{name}");
        }
        assert!(task_builder("nope").is_none());
        assert!(opt_builder("nope").is_none());
    }

    #[test]
    fn toy_mlp_fast_forward_matches_replayed_stream() {
        // The batcher is stateful: skipping steps without fast_forward
        // would desynchronize the minibatch stream.
        let mut a = toy_mlp(5);
        let mut b = toy_mlp(5);
        let p = a.init_params();
        for s in 0..4 {
            let _ = a.loss_grad_at(&p, s);
        }
        b.fast_forward(4);
        let (la, ga) = a.loss_grad_at(&p, 4);
        let (lb, gb) = b.loss_grad_at(&p, 4);
        assert_eq!(la, lb);
        assert_eq!(ga, gb);
    }

    #[test]
    fn yellowfin_builder_applies_the_lr_factor() {
        let opt = opt_builder("yellowfin").unwrap()(0.5);
        assert_eq!(opt.name(), "yellowfin");
    }
}
