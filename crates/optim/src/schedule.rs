//! Learning-rate schedules used by the paper's experiment protocols.
//!
//! Appendix I: the TinyShakespeare LSTM decays the learning rate by 0.97
//! every epoch; the WSJ LSTM decays by 0.9 every epoch after epoch 14.
//! Schedules compose with any [`crate::Optimizer`] either directly via
//! [`Schedule::apply`] or as [`Scheduled`] middleware.
//!
//! Schedules and self-tuning optimizers do not mix: overriding the
//! YellowFin family's learning rate would silently fight the tuner (every
//! epoch boundary would rescale the auto-tuned rate through
//! `set_learning_rate`, distorting `lr_factor`). Both [`Schedule::apply`]
//! and [`Scheduled`] therefore *no-op* on optimizers whose
//! [`crate::Optimizer::is_self_tuning`] returns true, emitting a debug
//! log so the skipped decay is visible in development builds.

use crate::Optimizer;

/// A multiplicative learning-rate decay schedule on epoch boundaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Schedule {
    /// No decay.
    Constant,
    /// Multiply the learning rate by `factor` at the end of every epoch.
    EveryEpoch {
        /// Per-epoch multiplier in `(0, 1]`.
        factor: f32,
    },
    /// Multiply by `factor` at the end of every epoch from `start_epoch`
    /// onward (epochs are 0-based).
    AfterEpoch {
        /// Per-epoch multiplier in `(0, 1]`.
        factor: f32,
        /// First epoch (0-based) at which decay applies.
        start_epoch: usize,
    },
}

impl Schedule {
    /// The cumulative multiplier in effect during `epoch`.
    pub fn multiplier(&self, epoch: usize) -> f32 {
        match *self {
            Schedule::Constant => 1.0,
            Schedule::EveryEpoch { factor } => factor.powi(epoch as i32),
            Schedule::AfterEpoch {
                factor,
                start_epoch,
            } => factor.powi(epoch.saturating_sub(start_epoch) as i32),
        }
    }

    /// Sets `opt`'s learning rate to `base_lr * multiplier(epoch)` —
    /// unless `opt` tunes its own learning rate, in which case this is a
    /// no-op (with a debug log): schedules must never fight the tuner.
    pub fn apply(&self, opt: &mut dyn Optimizer, base_lr: f32, epoch: usize) {
        if opt.is_self_tuning() {
            #[cfg(debug_assertions)]
            eprintln!(
                "schedule: skipping epoch-{epoch} decay on self-tuning optimizer '{}'",
                opt.name()
            );
            return;
        }
        opt.set_learning_rate(base_lr * self.multiplier(epoch));
    }
}

/// Schedule middleware: owns the inner optimizer and applies the decay on
/// [`Scheduled::set_epoch`], composing with the two-phase API (and with
/// other middleware such as [`crate::clip::Clipped`]) instead of poking
/// `set_learning_rate` on a trait object from the training loop.
#[derive(Debug, Clone)]
pub struct Scheduled<O> {
    inner: O,
    schedule: Schedule,
    base_lr: f32,
}

impl<O: Optimizer> Scheduled<O> {
    /// Wraps `inner`; its current learning rate becomes the schedule's
    /// base rate.
    pub fn new(inner: O, schedule: Schedule) -> Self {
        let base_lr = inner.learning_rate();
        Scheduled {
            inner,
            schedule,
            base_lr,
        }
    }

    /// Moves the schedule to `epoch`, updating the inner learning rate
    /// (no-op with a debug log on self-tuning inner optimizers).
    pub fn set_epoch(&mut self, epoch: usize) {
        self.schedule.apply(&mut self.inner, self.base_lr, epoch);
    }

    /// The wrapped optimizer.
    pub fn inner(&self) -> &O {
        &self.inner
    }
}

impl<O: Optimizer> Optimizer for Scheduled<O> {
    fn combine(
        &mut self,
        params: &[f32],
        grads: &[f32],
        partials: Vec<crate::StatsPartial>,
        grad_scale: f32,
    ) -> crate::Hyper {
        self.inner.combine(params, grads, partials, grad_scale)
    }

    fn needs_observe_partials(&self) -> bool {
        self.inner.needs_observe_partials()
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
        // External overrides re-base the schedule.
        self.base_lr = lr;
        self.inner.set_learning_rate(lr);
    }

    fn is_self_tuning(&self) -> bool {
        self.inner.is_self_tuning()
    }

    // The schedule shape is construction-time configuration and the
    // decayed learning rate is the inner optimizer's `lr` field, so
    // checkpoints delegate; `base_lr` is re-derived by the constructor.
    fn checkpoint_state(&self) -> Option<String> {
        self.inner.checkpoint_state()
    }

    fn restore_checkpoint(&mut self, text: &str) -> Result<(), crate::checkpoint::OptStateError> {
        self.inner.restore_checkpoint(text)
    }

    fn name(&self) -> &'static str {
        "scheduled"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Optimizer, Sgd};

    #[test]
    fn constant_never_decays() {
        assert_eq!(Schedule::Constant.multiplier(100), 1.0);
    }

    #[test]
    fn every_epoch_compounds() {
        let s = Schedule::EveryEpoch { factor: 0.97 };
        assert!((s.multiplier(0) - 1.0).abs() < 1e-6);
        assert!((s.multiplier(2) - 0.97 * 0.97).abs() < 1e-6);
    }

    #[test]
    fn after_epoch_waits() {
        let s = Schedule::AfterEpoch {
            factor: 0.9,
            start_epoch: 14,
        };
        assert_eq!(s.multiplier(10), 1.0);
        assert_eq!(s.multiplier(14), 1.0);
        assert!((s.multiplier(16) - 0.81).abs() < 1e-6);
    }

    #[test]
    fn apply_updates_optimizer() {
        let mut opt = Sgd::new(1.0);
        let s = Schedule::EveryEpoch { factor: 0.5 };
        s.apply(&mut opt, 1.0, 3);
        assert!((opt.learning_rate() - 0.125).abs() < 1e-6);
    }

    #[test]
    fn apply_noops_on_self_tuning_optimizers() {
        struct SelfTuned(f32);
        impl Optimizer for SelfTuned {
            fn combine(
                &mut self,
                _: &[f32],
                _: &[f32],
                _: Vec<crate::StatsPartial>,
                _: f32,
            ) -> crate::Hyper {
                crate::Hyper::new(self.0, 0.0)
            }
            fn step_shard(&self, _: crate::ParamShard, _: &mut [f32], _: &[f32], _: crate::Hyper) {}
            fn learning_rate(&self) -> f32 {
                self.0
            }
            fn set_learning_rate(&mut self, lr: f32) {
                self.0 = lr;
            }
            fn is_self_tuning(&self) -> bool {
                true
            }
            fn name(&self) -> &'static str {
                "self-tuned"
            }
        }
        let mut opt = SelfTuned(0.7);
        Schedule::EveryEpoch { factor: 0.5 }.apply(&mut opt, 0.7, 4);
        assert_eq!(opt.learning_rate(), 0.7, "tuner's rate must be untouched");
    }

    #[test]
    fn scheduled_middleware_decays_on_epoch() {
        let mut opt = Scheduled::new(Sgd::new(1.0), Schedule::EveryEpoch { factor: 0.5 });
        opt.set_epoch(2);
        assert!((opt.learning_rate() - 0.25).abs() < 1e-6);
        let mut x = vec![1.0f32];
        opt.step(&mut x, &[1.0]);
        assert!((x[0] - 0.75).abs() < 1e-6, "decayed rate used: {}", x[0]);
    }
}
