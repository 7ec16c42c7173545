//! First-order optimizers on flat `f32` parameter vectors, with a
//! two-phase, shard-aware update API.
//!
//! Every optimizer in the workspace — including the `yellowfin` tuner —
//! implements the same [`Optimizer`] trait, which mirrors the paper's
//! *measure → tune → apply* structure (§3):
//!
//! 1. The **measure** phase reads the gradient only through per-block
//!    Σg² partial sums: [`Optimizer::observe_shard`] reduces one
//!    block-aligned gradient slice into a [`StatsPartial`] (`&self`,
//!    runs on the persistent pool), and [`Optimizer::combine`] — the one
//!    required measure method — folds the partials with a fixed-order
//!    tree reduction, updates the global statistics (moment counters,
//!    curvature estimates, clipping norms), and returns the tuned
//!    [`Hyper`]: the `(lr, momentum, grad_scale)` this step will apply.
//!    [`Optimizer::observe`] is the whole-vector composition of the two.
//! 2. [`Optimizer::step_shard`] applies the update to one disjoint slice
//!    of the vector. It takes `&self`: all per-coordinate state lives in
//!    a [`ShardedState`] (per-shard, lock-protected, lazily initialized),
//!    so disjoint shards can be applied concurrently from pool workers
//!    or held behind per-shard locks by an asynchronous trainer.
//! 3. The provided [`Optimizer::step`] composes the two over a single
//!    whole-vector shard, so one-phase callers keep working unchanged —
//!    and because reductions are block-structured and updates
//!    per-coordinate, sharded measure + N parallel `step_shard`s is
//!    bitwise identical to `step` for every shard count.
//!
//! The driver is [`sharded::step_fused`]: measure, combine and apply in
//! one pool dispatch. [`sharded::step_grouped`] plans it over named
//! [`ParamGroups`] with per-group learning-rate/momentum overrides, and
//! [`sharded::step_sharded`] is the one-group case.
//!
//! Implemented baselines (the comparison set of the paper's Section 5):
//! plain SGD, Polyak and Nesterov momentum SGD, [`Adam`] (which accepts the
//! *negative* β1 values swept in Figure 10), [`AdaGrad`] and [`RmsProp`],
//! plus the [`clip::Clipped`] and [`schedule::Scheduled`] middleware.
//!
//! # Example
//!
//! ```
//! use yf_optim::{MomentumSgd, Optimizer};
//!
//! // Minimize f(x) = 0.5 * x^2 from x = 1 (one-phase API).
//! let mut opt = MomentumSgd::new(0.1, 0.9);
//! let mut x = vec![1.0f32];
//! for _ in 0..200 {
//!     let grad = vec![x[0]];
//!     opt.step(&mut x, &grad);
//! }
//! assert!(x[0].abs() < 1e-3);
//!
//! // The same trajectory, two-phase and sharded (bitwise identical).
//! use yf_optim::sharded::step_sharded;
//! let mut opt = MomentumSgd::new(0.1, 0.9);
//! let mut y = vec![1.0f32];
//! for _ in 0..200 {
//!     let grad = vec![y[0]];
//!     step_sharded(&mut opt, &mut y, &grad, 4);
//! }
//! assert_eq!(x, y);
//! ```

pub mod checkpoint;
pub mod clip;
pub mod schedule;
pub mod sharded;

mod adagrad;
mod adam;
mod groups;
mod rmsprop;
mod sgd;

pub use adagrad::AdaGrad;
pub use adam::Adam;
pub use groups::{ParamGroup, ParamGroups};
pub use rmsprop::RmsProp;
pub use sgd::{MomentumSgd, Sgd};
pub use sharded::AUTO_SHARD_MIN_DIM;
pub use sharded::{ParamShard, ShardedState, StatsPartial};

/// The hyperparameters one measure phase (`combine`) tunes for the step
/// it precedes.
///
/// `grad_scale` is a global multiplier on the gradient (1.0 = none); the
/// clipping middleware folds the clip factor into it so shard application
/// never materializes a scaled gradient copy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hyper {
    /// Learning rate to apply.
    pub lr: f32,
    /// Momentum to apply (β1 for Adam-family optimizers; 0 when unused).
    pub momentum: f32,
    /// Global gradient scale (clipping), applied element-wise on read.
    pub grad_scale: f32,
}

impl Hyper {
    /// A plain `(lr, momentum)` pair with no gradient scaling.
    pub fn new(lr: f32, momentum: f32) -> Self {
        Hyper {
            lr,
            momentum,
            grad_scale: 1.0,
        }
    }
}

impl Default for Hyper {
    fn default() -> Self {
        Hyper::new(0.0, 0.0)
    }
}

/// A first-order optimizer over a flat parameter vector.
///
/// Implementations must tolerate being constructed before the parameter
/// count is known: internal state buffers are sized lazily on the first
/// step. `Send + Sync` is a supertrait so `&dyn Optimizer` can fan the
/// apply phase out over the persistent worker pool.
pub trait Optimizer: Send + Sync {
    /// Whole-vector measure phase: the one-shard case of
    /// [`sharded::step_fused`] — the Σg² partial of the single
    /// whole-vector shard (when [`Optimizer::needs_observe_partials`]),
    /// then [`Optimizer::combine`]. Returns the hyperparameters the
    /// subsequent [`Optimizer::step_shard`] calls must apply.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != grads.len()` or if the length changes
    /// between calls.
    fn observe(&mut self, params: &[f32], grads: &[f32]) -> Hyper {
        let partials = sharded::whole_partials(self, params, grads);
        self.combine(params, grads, partials, 1.0)
    }

    /// Sharded half of the measure phase: reduces one disjoint,
    /// block-aligned gradient slice into a [`StatsPartial`] of per-block
    /// Σg² sums ([`StatsPartial::sumsq`]). `&self`, so
    /// [`sharded::step_fused`] can run all shards concurrently on pool
    /// workers before a single [`Optimizer::combine`] folds them. Only
    /// called when [`Optimizer::needs_observe_partials`] is true.
    fn observe_shard(&self, shard: ParamShard, params: &[f32], grads: &[f32]) -> StatsPartial {
        let _ = params;
        StatsPartial::sumsq(shard.offset, grads)
    }

    /// Combining half of the measure phase: folds the per-shard
    /// [`StatsPartial`]s (fixed-order tree reduction — bitwise identical
    /// for every block-aligned shard plan, including the single
    /// whole-vector shard), updates the optimizer's global state, and
    /// returns the step's [`Hyper`]. When
    /// [`Optimizer::needs_observe_partials`] is true, `partials` always
    /// tiles the whole gradient, one partial per shard in order; when it
    /// is false, `partials` is empty.
    ///
    /// `grad_scale` is the product of the gradient scales applied by
    /// enclosing middleware (1.0 at the top level): the measurement must
    /// behave as if every gradient element were pre-multiplied by it.
    /// The returned [`Hyper::grad_scale`] excludes the incoming
    /// `grad_scale` — each wrapper folds its own factor in, so the
    /// product reaching the apply phase is the full chain.
    fn combine(
        &mut self,
        params: &[f32],
        grads: &[f32],
        partials: Vec<StatsPartial>,
        grad_scale: f32,
    ) -> Hyper;

    /// True when the measure phase consumes gradient reductions, i.e.
    /// [`Optimizer::combine`] reads the Σg² partials. The drivers skip
    /// the measure phase entirely when this is false.
    fn needs_observe_partials(&self) -> bool {
        false
    }

    /// Apply phase: updates one disjoint shard of the parameter vector in
    /// place. `params`/`grads` are the shard's slices; per-coordinate
    /// state lives in the optimizer's [`ShardedState`]. Callers must pass
    /// disjoint shards of one consistent plan per step (the [`sharded`]
    /// drivers do); each shard may run on its own thread.
    ///
    /// # Panics
    ///
    /// Panics on slice length mismatches or if the flat dimension changes
    /// between steps.
    fn step_shard(&self, shard: ParamShard, params: &mut [f32], grads: &[f32], hyper: Hyper);

    /// One-phase convenience: `observe` plus a single whole-vector
    /// `step_shard`. Equivalent to — and interchangeable with — any
    /// sharded application of the same step.
    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        let hyper = self.observe(params, grads);
        self.step_shard(ParamShard::whole(params.len()), params, grads, hyper);
    }

    /// Serializes the optimizer's complete resumable state — the mutable
    /// hyperparameters, step counters, and per-coordinate buffers
    /// (stitched flat via [`ShardedState::flatten`], so checkpoints are
    /// independent of the shard plan that produced them) — into a
    /// versioned text block, or `None` when the optimizer does not
    /// support checkpointing. A restored optimizer must continue the
    /// trajectory *bit-identically*; callers that get `None` (the
    /// default, so external impls keep compiling) fall back to re-running
    /// from scratch, which is equally deterministic, just slower.
    fn checkpoint_state(&self) -> Option<String> {
        None
    }

    /// Restores state written by [`Optimizer::checkpoint_state`] into
    /// this instance (which should be freshly constructed with the same
    /// configuration).
    ///
    /// # Errors
    ///
    /// Returns [`checkpoint::OptStateError`] on kind/version mismatch,
    /// missing fields, malformed values, or (the default) when the
    /// optimizer does not support checkpointing.
    fn restore_checkpoint(&mut self, text: &str) -> Result<(), checkpoint::OptStateError> {
        let _ = text;
        Err(checkpoint::OptStateError::new(format!(
            "{} does not support state checkpointing",
            self.name()
        )))
    }

    /// The learning rate most recently used (for logging and schedules).
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (used by decay schedules).
    fn set_learning_rate(&mut self, lr: f32);

    /// True for optimizers that tune their own learning rate (the
    /// YellowFin family): external schedules must not fight the tuner,
    /// and [`schedule::Schedule::apply`] no-ops on them.
    fn is_self_tuning(&self) -> bool {
        false
    }

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// The one `params`/`grads` length check behind every measure and apply
/// entry point, so mismatches panic with the same message everywhere.
pub(crate) fn check_same_len(params: &[f32], grads: &[f32]) {
    assert_eq!(
        params.len(),
        grads.len(),
        "optimizer: params ({}) and grads ({}) differ",
        params.len(),
        grads.len()
    );
}

pub(crate) fn check_lengths(state_len: usize, params: &[f32], grads: &[f32]) {
    check_same_len(params, grads);
    assert_eq!(
        state_len,
        params.len(),
        "optimizer: parameter count changed between steps ({state_len} -> {})",
        params.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_converges(mut opt: impl Optimizer, iters: usize, tol: f32) {
        // f(x) = 0.5 * sum(h_i x_i^2) with curvatures 1 and 4.
        let h = [1.0f32, 4.0];
        let mut x = vec![1.0f32, -1.0];
        for _ in 0..iters {
            let g: Vec<f32> = x.iter().zip(h.iter()).map(|(&xi, &hi)| hi * xi).collect();
            opt.step(&mut x, &g);
        }
        let dist = (x[0] * x[0] + x[1] * x[1]).sqrt();
        assert!(dist < tol, "{} left distance {dist}", opt.name());
    }

    #[test]
    fn all_optimizers_minimize_a_quadratic() {
        quadratic_converges(Sgd::new(0.1), 300, 1e-3);
        quadratic_converges(MomentumSgd::new(0.05, 0.9), 400, 1e-3);
        quadratic_converges(MomentumSgd::nesterov(0.05, 0.9), 400, 1e-3);
        quadratic_converges(Adam::new(0.1), 400, 1e-2);
        quadratic_converges(AdaGrad::new(0.5), 800, 1e-2);
        quadratic_converges(RmsProp::new(0.01), 800, 1e-2);
    }

    #[test]
    #[should_panic(expected = "params (1) and grads (2)")]
    fn length_mismatch_panics() {
        let mut opt = Sgd::new(0.1);
        opt.step(&mut [0.0], &[0.0, 0.0]);
    }

    #[test]
    fn observe_reports_tuned_values() {
        let mut opt = MomentumSgd::new(0.25, 0.5);
        let hyper = opt.observe(&[1.0, 2.0], &[0.1, 0.2]);
        assert_eq!(hyper.lr, 0.25);
        assert_eq!(hyper.momentum, 0.5);
        assert_eq!(hyper.grad_scale, 1.0);
    }
}
