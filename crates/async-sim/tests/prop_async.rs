//! Property-based tests for the asynchronous simulator.

use proptest::prelude::*;
use yf_async::RoundRobinSimulator;
use yf_optim::{MomentumSgd, Optimizer, Sgd};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// With one worker the simulator is bit-identical to the plain loop
    /// for any gradient source and learning rate.
    #[test]
    fn one_worker_is_synchronous(
        initial in prop::collection::vec(-5.0f32..5.0, 1..8),
        lr in 0.001f32..0.5,
        iters in 1usize..40,
    ) {
        let mut sim = RoundRobinSimulator::new(1, initial.clone());
        let mut src = (initial.len(), |x: &[f32], _| (0.0f32, x.to_vec()));
        let mut opt = Sgd::new(lr);
        sim.run(&mut src, &mut opt, iters);

        let mut x = initial;
        let mut opt2 = Sgd::new(lr);
        for _ in 0..iters {
            let g = x.clone();
            opt2.step(&mut x, &g);
        }
        prop_assert_eq!(sim.params(), x.as_slice());
    }

    /// The first `tau` steps never mutate the parameters (pipeline fill),
    /// and afterwards every step applies exactly one gradient.
    #[test]
    fn warmup_length_equals_staleness(
        workers in 1usize..12,
        iters in 1usize..40,
    ) {
        let tau = workers - 1;
        let mut sim = RoundRobinSimulator::new(workers, vec![1.0f32]);
        let mut src = (1usize, |x: &[f32], _| (0.0f32, x.to_vec()));
        let mut opt = Sgd::new(0.1);
        let records = sim.run(&mut src, &mut opt, iters);
        for (t, r) in records.iter().enumerate() {
            if t < tau {
                prop_assert_eq!(r.grad_norm, 0.0, "warmup step {} applied a gradient", t);
            } else {
                prop_assert!(r.grad_norm > 0.0, "step {} applied nothing", t);
            }
        }
    }

    /// The gradient applied at step t was computed on the snapshot from
    /// step t - tau: feeding a source that returns the step number as the
    /// "gradient" exposes the bookkeeping directly.
    #[test]
    fn staleness_is_exact(workers in 1usize..10, iters in 10usize..50) {
        let tau = workers - 1;
        // Gradient = the step at which it was computed (encoded in f32).
        let mut src = (1usize, |_: &[f32], step: u64| (0.0f32, vec![step as f32]));
        struct Recorder(Vec<f32>);
        impl Optimizer for Recorder {
            fn combine(
                &mut self,
                _p: &[f32],
                g: &[f32],
                _: Vec<yf_optim::StatsPartial>,
                grad_scale: f32,
            ) -> yf_optim::Hyper {
                self.0.push(grad_scale * g[0]);
                yf_optim::Hyper::default()
            }
            fn step_shard(
                &self,
                _: yf_optim::ParamShard,
                _: &mut [f32],
                _: &[f32],
                _: yf_optim::Hyper,
            ) {}
            fn learning_rate(&self) -> f32 { 0.0 }
            fn set_learning_rate(&mut self, _: f32) {}
            fn name(&self) -> &'static str { "recorder" }
        }
        let mut opt = Recorder(Vec::new());
        let mut sim = RoundRobinSimulator::new(workers, vec![0.0f32]);
        sim.run(&mut src, &mut opt, iters);
        for (k, &g) in opt.0.iter().enumerate() {
            // The k-th applied gradient was computed at step k (queue is
            // FIFO), and it is applied at step k + tau.
            prop_assert_eq!(g as usize, k, "queue order broken");
        }
        prop_assert_eq!(opt.0.len(), iters.saturating_sub(tau));
    }

    /// Applying updates through N parallel shards is bit-identical to the
    /// whole-vector apply, for any worker count and dimension.
    #[test]
    fn sharded_apply_is_bitwise_invariant(
        workers in 1usize..6,
        shards in 2usize..6,
        dim in 1usize..12,
    ) {
        let initial: Vec<f32> = (0..dim).map(|i| 1.0 + i as f32 * 0.3).collect();
        let run = |s: usize| {
            let mut sim = RoundRobinSimulator::new(workers, initial.clone()).with_shards(s);
            let mut src = (dim, |x: &[f32], _| (0.0f32, x.to_vec()));
            let mut opt = MomentumSgd::new(0.05, 0.7);
            sim.run(&mut src, &mut opt, 40);
            sim.params().to_vec()
        };
        prop_assert_eq!(run(1), run(shards));
    }
}
