//! Asynchronous (stale-gradient) training simulation.
//!
//! Section 5.2 of the paper evaluates asynchrony with a deliberately
//! controlled protocol: "we run 16 asynchronous workers on a single
//! machine and force them to update the model in a round-robin fashion,
//! i.e. the gradient is delayed for 15 iterations." [`RoundRobinSimulator`]
//! implements exactly that protocol deterministically — the gradient
//! applied at step `t` was computed on the parameter snapshot of step
//! `t - tau` — so Figures 1 (right), 4 and 10 are bit-reproducible.

use std::collections::VecDeque;
use yf_optim::Optimizer;

/// A source of (possibly minibatch) gradients for a parameter vector.
///
/// `step` is the global iteration counter; implementations typically use
/// it (or internal RNG state) to pick a minibatch.
pub trait GradSource {
    /// Returns `(loss, gradient)` evaluated at `params`.
    fn grad(&mut self, params: &[f32], step: u64) -> (f32, Vec<f32>);

    /// Dimensionality of the parameter vector.
    fn dim(&self) -> usize;
}

/// Blanket implementation so closures can act as gradient sources.
impl<F> GradSource for (usize, F)
where
    F: FnMut(&[f32], u64) -> (f32, Vec<f32>),
{
    fn grad(&mut self, params: &[f32], step: u64) -> (f32, Vec<f32>) {
        (self.1)(params, step)
    }

    fn dim(&self) -> usize {
        self.0
    }
}

/// One record per iteration of a simulated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRecord {
    /// Iteration index.
    pub step: u64,
    /// Loss evaluated at the (stale) snapshot the gradient used.
    pub loss: f32,
    /// Global norm of the applied gradient.
    pub grad_norm: f32,
}

/// The paper's round-robin asynchronous protocol.
///
/// With `workers` equal workers, each gradient is applied
/// `tau = workers - 1` steps after the snapshot it was computed on.
/// `workers = 1` recovers fully synchronous training (and is
/// bit-identical to calling the optimizer in a plain loop).
#[derive(Debug)]
pub struct RoundRobinSimulator {
    staleness: usize,
    /// Pending gradients, oldest first; each entry is `(loss, grad)`.
    queue: VecDeque<(f32, Vec<f32>)>,
    /// Parameter snapshots awaiting their gradient.
    params: Vec<f32>,
    step: u64,
    /// Parallel shards for the apply phase (1 = whole-vector apply).
    shards: usize,
}

impl RoundRobinSimulator {
    /// Creates a simulator for `workers` round-robin workers starting
    /// from `initial` parameters.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or `initial` is empty.
    pub fn new(workers: usize, initial: Vec<f32>) -> Self {
        assert!(workers > 0, "round robin: need at least one worker");
        assert!(!initial.is_empty(), "round robin: empty parameter vector");
        RoundRobinSimulator {
            staleness: workers - 1,
            queue: VecDeque::with_capacity(workers),
            params: initial,
            step: 0,
            shards: 1,
        }
    }

    /// Applies updates as `shards` parallel slices (one `observe`, N
    /// `step_shard`s). Updates are per-coordinate, so the trajectory is
    /// bit-identical for every shard count — this only changes how the
    /// apply phase is scheduled.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Gradient staleness `tau = workers - 1`.
    pub fn staleness(&self) -> usize {
        self.staleness
    }

    /// Current parameters.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Iterations completed.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Runs one iteration: computes a gradient at the *current* snapshot
    /// (enqueueing it), pops the gradient computed `tau` steps ago, and
    /// applies it with `opt`. During the first `tau` steps the pipeline
    /// is filling, so no update is applied (mirroring a real async warmup)
    /// and the returned record reports the fresh loss with zero norm.
    pub fn step(&mut self, source: &mut dyn GradSource, opt: &mut dyn Optimizer) -> StepRecord {
        let (loss, grad) = source.grad(&self.params, self.step);
        self.queue.push_back((loss, grad));
        let record = if self.queue.len() > self.staleness {
            let (stale_loss, stale_grad) = self.queue.pop_front().expect("queue non-empty");
            let norm = yf_optim::clip::global_norm(&stale_grad);
            yf_optim::sharded::step_sharded(opt, &mut self.params, &stale_grad, self.shards);
            StepRecord {
                step: self.step,
                loss: stale_loss,
                grad_norm: norm,
            }
        } else {
            StepRecord {
                step: self.step,
                loss,
                grad_norm: 0.0,
            }
        };
        self.step += 1;
        record
    }

    /// Runs `iters` iterations, returning the per-step records.
    pub fn run(
        &mut self,
        source: &mut dyn GradSource,
        opt: &mut dyn Optimizer,
        iters: usize,
    ) -> Vec<StepRecord> {
        (0..iters).map(|_| self.step(source, opt)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yf_optim::Sgd;

    /// Quadratic f = |x|^2 / 2 as a gradient source.
    // The `(dim, closure)` tuple IS the GradSource impl; an alias can't
    // name the `impl Trait` half of it on stable.
    #[allow(clippy::type_complexity)]
    fn quadratic(dim: usize) -> (usize, impl FnMut(&[f32], u64) -> (f32, Vec<f32>)) {
        (dim, move |params: &[f32], _| {
            let loss: f32 = params.iter().map(|p| 0.5 * p * p).sum();
            (loss, params.to_vec())
        })
    }

    #[test]
    fn single_worker_equals_synchronous_loop() {
        let initial = vec![1.0f32, -2.0, 0.5];
        let mut sim = RoundRobinSimulator::new(1, initial.clone());
        let mut src = quadratic(3);
        let mut opt = Sgd::new(0.1);
        sim.run(&mut src, &mut opt, 25);

        // Reference: plain synchronous loop.
        let mut x = initial;
        let mut opt2 = Sgd::new(0.1);
        for _ in 0..25 {
            let g = x.clone();
            opt2.step(&mut x, &g);
        }
        assert_eq!(sim.params(), x.as_slice(), "tau = 0 must be bit-identical");
    }

    #[test]
    fn staleness_delays_application_exactly_tau_steps() {
        // With tau = 3, the first update must happen at step 3 and use
        // the gradient of the *initial* parameters.
        let initial = vec![10.0f32];
        let mut sim = RoundRobinSimulator::new(4, initial);
        let mut src = quadratic(1);
        let mut opt = Sgd::new(0.1);
        for t in 0..3 {
            let rec = sim.step(&mut src, &mut opt);
            assert_eq!(rec.grad_norm, 0.0, "no update during warmup step {t}");
            assert_eq!(sim.params(), &[10.0]);
        }
        let rec = sim.step(&mut src, &mut opt);
        assert_eq!(rec.grad_norm, 10.0, "first applied gradient is g(x_0)");
        assert!((sim.params()[0] - 9.0).abs() < 1e-6);
    }

    #[test]
    fn async_sgd_still_converges_with_small_lr() {
        let mut sim = RoundRobinSimulator::new(8, vec![1.0f32; 4]);
        let mut src = quadratic(4);
        let mut opt = Sgd::new(0.05);
        sim.run(&mut src, &mut opt, 500);
        let dist: f32 = sim.params().iter().map(|p| p * p).sum::<f32>().sqrt();
        assert!(dist < 1e-2, "distance {dist}");
    }

    #[test]
    fn async_sgd_diverges_with_large_lr_where_sync_survives() {
        // Staleness shrinks the stability region: a learning rate that is
        // stable synchronously (lr < 2/h = 2) can oscillate or diverge
        // under tau = 7.
        let run = |workers: usize| {
            let mut sim = RoundRobinSimulator::new(workers, vec![1.0f32]);
            let mut src = quadratic(1);
            let mut opt = Sgd::new(1.5);
            sim.run(&mut src, &mut opt, 200);
            sim.params()[0].abs()
        };
        let sync_dist = run(1);
        let async_dist = run(8);
        assert!(sync_dist < 1e-3, "sync converges: {sync_dist}");
        assert!(
            async_dist > 1.0 || async_dist.is_nan(),
            "async at same lr should be unstable: {async_dist}"
        );
    }

    #[test]
    fn records_report_decreasing_loss() {
        let mut sim = RoundRobinSimulator::new(4, vec![2.0f32; 3]);
        let mut src = quadratic(3);
        let mut opt = Sgd::new(0.1);
        let records = sim.run(&mut src, &mut opt, 300);
        let early: f32 = records[4..14].iter().map(|r| r.loss).sum::<f32>() / 10.0;
        let late: f32 = records[290..300].iter().map(|r| r.loss).sum::<f32>() / 10.0;
        assert!(late < early * 0.1, "late {late} vs early {early}");
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        RoundRobinSimulator::new(0, vec![1.0]);
    }
}
