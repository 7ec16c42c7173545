//! Synchronous and asynchronous training loops.
//!
//! Both loops drive the fused *measure → combine → apply* step pipeline
//! (`yf_optim::sharded::step_fused`, planned by `step_sharded` or, for
//! named parameter groups, `step_grouped`): per step, the measure phase
//! fans per-shard partial reductions out over the worker pool, a
//! deterministic tree combine makes the tuning decision, and the apply
//! phase fans `step_shard`s out over the shard plan — one pool dispatch.
//! Reductions are block-structured and updates per-coordinate, so the
//! trajectory is bit-identical for every shard count — sharding only
//! changes how the step is scheduled.

use crate::task::{TaskSource, TrainTask};
use yf_async::RoundRobinSimulator;
use yf_optim::schedule::Schedule;
use yf_optim::{sharded, Optimizer, ParamGroups};

/// Options for a training run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Iterations to train.
    pub iters: usize,
    /// Validate every this many iterations (0 disables validation).
    pub eval_every: usize,
    /// Learning-rate schedule applied on "epoch" boundaries.
    pub schedule: Schedule,
    /// Iterations per epoch for the schedule (0 disables epochs).
    pub iters_per_epoch: usize,
    /// Parallel shards for the optimizer apply phase: 0 = automatic
    /// (thread count for large models, 1 otherwise).
    pub shards: usize,
    /// Optional named parameter groups with per-group hyper overrides;
    /// when set, updates go through [`sharded::step_grouped`] (and the
    /// groups' own shard plan wins over [`RunConfig::shards`]).
    pub groups: Option<ParamGroups>,
}

impl RunConfig {
    /// A plain run: no validation, no schedule, automatic sharding.
    pub fn plain(iters: usize) -> Self {
        RunConfig {
            iters,
            eval_every: 0,
            schedule: Schedule::Constant,
            iters_per_epoch: 0,
            shards: 0,
            groups: None,
        }
    }

    /// Adds periodic validation.
    pub fn with_eval(mut self, every: usize) -> Self {
        self.eval_every = every;
        self
    }

    /// Fixes the shard count for the apply phase.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Trains with per-group hyper overrides.
    pub fn with_groups(mut self, groups: ParamGroups) -> Self {
        self.groups = Some(groups);
        self
    }

    /// The shard count a run over `dim` parameters will use.
    fn resolved_shards(&self, dim: usize) -> usize {
        sharded::auto_shards(self.shards, dim)
    }
}

/// The product of a training run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Per-iteration minibatch losses.
    pub losses: Vec<f32>,
    /// `(iteration, metric)` validation points.
    pub metrics: Vec<(u64, f64)>,
    /// Final parameters.
    pub final_params: Vec<f32>,
}

impl RunResult {
    /// The best validation metric seen, if any was recorded.
    pub fn best_metric(&self, lower_is_better: bool) -> Option<f64> {
        let vals = self.metrics.iter().map(|&(_, v)| v);
        if lower_is_better {
            vals.fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |a| a.min(v)))
            })
        } else {
            vals.fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |a| a.max(v)))
            })
        }
    }
}

/// A resumable snapshot of an in-progress training run: everything
/// [`train_resumable`] needs to continue bit-identically from step
/// `step` in a fresh process — the parameters, the loss/metric history
/// so far, the base learning rate the schedule scales, and the
/// optimizer's serialized state
/// ([`Optimizer::checkpoint_state`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainCheckpoint {
    /// Steps completed (the next step to run).
    pub step: u64,
    /// Base learning rate captured at run start (schedules scale it).
    pub base_lr: f32,
    /// Parameter vector after `step` steps.
    pub params: Vec<f32>,
    /// Losses of steps `0..step`.
    pub losses: Vec<f32>,
    /// Validation metrics recorded so far.
    pub metrics: Vec<(u64, f64)>,
    /// Serialized optimizer state.
    pub opt_state: String,
}

/// Progress callbacks from [`train_resumable`].
pub enum TrainEvent<'a> {
    /// A step just completed (0-based index).
    Step(u64),
    /// A periodic snapshot: fires after every `checkpoint_every` steps
    /// (never after the final step — the run result supersedes it), and
    /// only when the optimizer supports checkpointing.
    Checkpoint(&'a TrainCheckpoint),
}

/// Error resuming a run from a [`TrainCheckpoint`].
#[derive(Debug, Clone, PartialEq)]
pub enum ResumeError {
    /// The checkpoint's parameter count does not match the task.
    DimMismatch {
        /// Parameters in the checkpoint.
        checkpoint: usize,
        /// Parameters the task expects.
        task: usize,
    },
    /// The checkpoint claims more completed steps than the run has.
    StepBeyondRun {
        /// Steps the checkpoint claims.
        step: u64,
        /// Total steps configured.
        iters: usize,
    },
    /// The optimizer rejected the serialized state.
    OptState(String),
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::DimMismatch { checkpoint, task } => write!(
                f,
                "checkpoint has {checkpoint} parameters but the task has {task}"
            ),
            ResumeError::StepBeyondRun { step, iters } => {
                write!(f, "checkpoint step {step} exceeds the {iters}-step run")
            }
            ResumeError::OptState(e) => write!(f, "optimizer state rejected: {e}"),
        }
    }
}

impl std::error::Error for ResumeError {}

/// Trains synchronously: one gradient per step, measured globally and
/// applied over the configured shard plan (one `observe`, N parallel
/// `step_shard`s).
pub fn train(task: &mut dyn TrainTask, opt: &mut dyn Optimizer, cfg: &RunConfig) -> RunResult {
    train_resumable(task, opt, cfg, None, 0, |_| {}).expect("fresh runs cannot fail to resume")
}

/// [`train`] with checkpoint/resume: when `resume` is given, the run
/// restarts from that snapshot (restoring optimizer state and
/// fast-forwarding the task's batch stream) and produces a [`RunResult`]
/// bitwise identical to the uninterrupted run; when `checkpoint_every >
/// 0` and the optimizer supports checkpointing, a
/// [`TrainEvent::Checkpoint`] fires after every `checkpoint_every` steps.
/// [`TrainEvent::Step`] fires after every step regardless.
pub fn train_resumable(
    task: &mut dyn TrainTask,
    opt: &mut dyn Optimizer,
    cfg: &RunConfig,
    resume: Option<TrainCheckpoint>,
    checkpoint_every: usize,
    mut on_event: impl FnMut(TrainEvent<'_>),
) -> Result<RunResult, ResumeError> {
    let (start, mut params, mut result, base_lr) = match resume {
        Some(ckpt) => {
            if ckpt.params.len() != task.dim() {
                return Err(ResumeError::DimMismatch {
                    checkpoint: ckpt.params.len(),
                    task: task.dim(),
                });
            }
            if ckpt.step > cfg.iters as u64 {
                return Err(ResumeError::StepBeyondRun {
                    step: ckpt.step,
                    iters: cfg.iters,
                });
            }
            opt.restore_checkpoint(&ckpt.opt_state)
                .map_err(|e| ResumeError::OptState(e.to_string()))?;
            task.fast_forward(ckpt.step);
            let result = RunResult {
                losses: ckpt.losses,
                metrics: ckpt.metrics,
                final_params: Vec::new(),
            };
            (ckpt.step as usize, ckpt.params, result, ckpt.base_lr)
        }
        None => (
            0,
            task.init_params(),
            RunResult::default(),
            opt.learning_rate(),
        ),
    };
    let shards = cfg.resolved_shards(params.len());
    for step in start..cfg.iters {
        if cfg.iters_per_epoch > 0 && step % cfg.iters_per_epoch == 0 {
            let epoch = step / cfg.iters_per_epoch;
            cfg.schedule.apply(opt, base_lr, epoch);
        }
        let (loss, grad) = task.loss_grad_at(&params, step as u64);
        match &cfg.groups {
            Some(groups) => sharded::step_grouped(opt, groups, &mut params, &grad),
            None => sharded::step_sharded(opt, &mut params, &grad, shards),
        };
        result.losses.push(loss);
        if cfg.eval_every > 0 && (step + 1) % cfg.eval_every == 0 {
            let m = task.validate(&params);
            result.metrics.push((step as u64 + 1, m));
        }
        on_event(TrainEvent::Step(step as u64));
        let due = checkpoint_every > 0 && (step + 1) % checkpoint_every == 0;
        if due && step + 1 < cfg.iters {
            if let Some(opt_state) = opt.checkpoint_state() {
                let ckpt = TrainCheckpoint {
                    step: step as u64 + 1,
                    base_lr,
                    params: params.clone(),
                    losses: result.losses.clone(),
                    metrics: result.metrics.clone(),
                    opt_state,
                };
                on_event(TrainEvent::Checkpoint(&ckpt));
            }
        }
    }
    result.final_params = params;
    Ok(result)
}

/// Trains through the round-robin asynchronous simulator with `workers`
/// workers (gradient staleness `workers - 1`), applying updates over the
/// configured shard plan.
pub fn train_async(
    task: &mut dyn TrainTask,
    opt: &mut dyn Optimizer,
    workers: usize,
    cfg: &RunConfig,
) -> RunResult {
    let initial = task.init_params();
    let shards = cfg.resolved_shards(initial.len());
    let mut result = RunResult::default();
    let mut sim = RoundRobinSimulator::new(workers, initial).with_shards(shards);
    for step in 0..cfg.iters {
        let record = {
            let mut source = TaskSource::new(task);
            sim.step(&mut source, opt)
        };
        result.losses.push(record.loss);
        if cfg.eval_every > 0 && (step + 1) % cfg.eval_every == 0 {
            let m = task.validate(sim.params());
            result.metrics.push((step as u64 + 1, m));
        }
    }
    result.final_params = sim.params().to_vec();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::ModelTask;
    use yf_nn::Mlp;
    use yf_optim::MomentumSgd;
    use yf_tensor::rng::Pcg32;
    use yf_tensor::Tensor;

    fn small_task(seed: u64) -> ModelTask<Mlp> {
        let mut rng = Pcg32::seed(seed);
        let mlp = Mlp::new(&[2, 8, 2], &mut rng);
        let mut data_rng = Pcg32::seed(seed + 1);
        ModelTask::new(
            mlp,
            move |_| {
                let x = Tensor::randn(&[8, 2], &mut data_rng);
                let y = (0..8)
                    .map(|r| usize::from(x.at(&[r, 0]) + x.at(&[r, 1]) > 0.0))
                    .collect();
                (x, y)
            },
            |m| {
                let mut rng = Pcg32::seed(999);
                let x = Tensor::randn(&[64, 2], &mut rng);
                let y: Vec<usize> = (0..64)
                    .map(|r| usize::from(x.at(&[r, 0]) + x.at(&[r, 1]) > 0.0))
                    .collect();
                f64::from(m.accuracy(&x, &y))
            },
            "accuracy",
            false,
        )
    }

    #[test]
    fn sync_training_learns() {
        let mut task = small_task(10);
        let mut opt = MomentumSgd::new(0.1, 0.9);
        let result = train(&mut task, &mut opt, &RunConfig::plain(400).with_eval(100));
        assert_eq!(result.losses.len(), 400);
        assert_eq!(result.metrics.len(), 4);
        let best = result.best_metric(false).unwrap();
        assert!(best > 0.9, "best accuracy {best}");
    }

    #[test]
    fn async_training_learns_with_staleness() {
        let mut task = small_task(11);
        let mut opt = MomentumSgd::new(0.02, 0.5);
        let result = train_async(
            &mut task,
            &mut opt,
            8,
            &RunConfig::plain(800).with_eval(200),
        );
        let best = result.best_metric(false).unwrap();
        assert!(best > 0.85, "best accuracy {best}");
    }

    #[test]
    fn async_with_one_worker_matches_sync() {
        let mut t1 = small_task(12);
        let mut t2 = small_task(12);
        let mut o1 = MomentumSgd::new(0.05, 0.9);
        let mut o2 = MomentumSgd::new(0.05, 0.9);
        let r1 = train(&mut t1, &mut o1, &RunConfig::plain(100));
        let r2 = train_async(&mut t2, &mut o2, 1, &RunConfig::plain(100));
        assert_eq!(r1.losses, r2.losses);
        assert_eq!(r1.final_params, r2.final_params);
    }

    #[test]
    fn schedule_decays_learning_rate() {
        let mut task = small_task(13);
        let mut opt = MomentumSgd::new(1.0, 0.0);
        let cfg = RunConfig {
            schedule: Schedule::EveryEpoch { factor: 0.5 },
            iters_per_epoch: 10,
            ..RunConfig::plain(30)
        };
        train(&mut task, &mut opt, &cfg);
        // After epochs 0, 1, 2 the last applied multiplier is 0.25.
        assert!((opt.learning_rate() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn sharded_training_is_bitwise_identical() {
        let mut t1 = small_task(21);
        let mut t2 = small_task(21);
        let mut o1 = MomentumSgd::new(0.1, 0.9);
        let mut o2 = MomentumSgd::new(0.1, 0.9);
        let r1 = train(&mut t1, &mut o1, &RunConfig::plain(120));
        let r2 = train(&mut t2, &mut o2, &RunConfig::plain(120).with_shards(4));
        assert_eq!(r1.losses, r2.losses);
        assert_eq!(r1.final_params, r2.final_params);
    }

    #[test]
    fn resumed_run_is_bitwise_identical_to_uninterrupted() {
        // Train straight through; train again, capture the step-40
        // checkpoint, and resume it in a *fresh* task + optimizer: the
        // resumed run must reproduce losses, metrics, and final
        // parameters bit-for-bit.
        let cfg = RunConfig::plain(100).with_eval(25);
        let mut t0 = small_task(31);
        let mut o0 = MomentumSgd::new(0.1, 0.9);
        let straight = train(&mut t0, &mut o0, &cfg);

        let mut t1 = small_task(31);
        let mut o1 = MomentumSgd::new(0.1, 0.9);
        let mut saved: Option<TrainCheckpoint> = None;
        let _ = train_resumable(&mut t1, &mut o1, &cfg, None, 40, |ev| {
            if let TrainEvent::Checkpoint(c) = ev {
                if c.step == 40 {
                    saved = Some(c.clone());
                }
            }
        })
        .unwrap();
        let saved = saved.expect("checkpoint at step 40");
        assert_eq!(saved.losses.len(), 40);

        let mut t2 = small_task(31);
        let mut o2 = MomentumSgd::new(0.1, 0.9);
        let resumed = train_resumable(&mut t2, &mut o2, &cfg, Some(saved), 0, |_| {}).unwrap();
        assert_eq!(straight.losses, resumed.losses);
        assert_eq!(straight.metrics, resumed.metrics);
        assert_eq!(straight.final_params, resumed.final_params);
    }

    #[test]
    fn resume_with_schedule_restores_decayed_lr() {
        let cfg = RunConfig {
            schedule: Schedule::EveryEpoch { factor: 0.5 },
            iters_per_epoch: 10,
            ..RunConfig::plain(40)
        };
        let mut t0 = small_task(32);
        let mut o0 = MomentumSgd::new(1.0, 0.0);
        let straight = train(&mut t0, &mut o0, &cfg);

        let mut t1 = small_task(32);
        let mut o1 = MomentumSgd::new(1.0, 0.0);
        let mut saved = None;
        // Step 15 sits mid-epoch: the resumed run must come back at the
        // decayed rate, not the base rate.
        let _ = train_resumable(&mut t1, &mut o1, &cfg, None, 15, |ev| {
            if let TrainEvent::Checkpoint(c) = ev {
                if c.step == 15 {
                    saved = Some(c.clone());
                }
            }
        })
        .unwrap();
        let mut t2 = small_task(32);
        let mut o2 = MomentumSgd::new(1.0, 0.0);
        let resumed =
            train_resumable(&mut t2, &mut o2, &cfg, Some(saved.unwrap()), 0, |_| {}).unwrap();
        assert_eq!(straight.losses, resumed.losses);
        assert_eq!(straight.final_params, resumed.final_params);
    }

    #[test]
    fn resume_rejects_mismatched_checkpoints() {
        let mut task = small_task(33);
        let mut opt = MomentumSgd::new(0.1, 0.9);
        let bad_dim = TrainCheckpoint {
            step: 1,
            base_lr: 0.1,
            params: vec![0.0; 3],
            losses: vec![0.0],
            metrics: vec![],
            opt_state: opt.checkpoint_state().unwrap(),
        };
        assert!(matches!(
            train_resumable(
                &mut task,
                &mut opt,
                &RunConfig::plain(10),
                Some(bad_dim),
                0,
                |_| {}
            ),
            Err(ResumeError::DimMismatch { .. })
        ));
        let dim = task.dim();
        let bad_step = TrainCheckpoint {
            step: 99,
            base_lr: 0.1,
            params: vec![0.0; dim],
            losses: vec![],
            metrics: vec![],
            opt_state: opt.checkpoint_state().unwrap(),
        };
        assert!(matches!(
            train_resumable(
                &mut task,
                &mut opt,
                &RunConfig::plain(10),
                Some(bad_step),
                0,
                |_| {}
            ),
            Err(ResumeError::StepBeyondRun { .. })
        ));
    }

    #[test]
    fn grouped_training_applies_overrides() {
        use yf_nn::param_groups;
        // Freezing every parameter group (lr scale 0) must leave the
        // model untouched, while the default groups reproduce the
        // ungrouped run bit-for-bit.
        let mut task = small_task(22);
        let groups = {
            let mut rng = Pcg32::seed(10);
            param_groups(&Mlp::new(&[2, 8, 2], &mut rng))
        };
        assert_eq!(groups.total(), task.dim());

        let mut frozen = groups.clone();
        assert!(frozen.scale_lr("", 0.0) > 0, "pattern matches all groups");
        let mut opt = MomentumSgd::new(0.1, 0.0);
        let init = task.init_params();
        let r = train(
            &mut task,
            &mut opt,
            &RunConfig::plain(5).with_groups(frozen),
        );
        assert_eq!(r.final_params, init, "lr scale 0 freezes the model");

        let mut t1 = small_task(23);
        let mut t2 = small_task(23);
        let mut o1 = MomentumSgd::new(0.1, 0.9);
        let mut o2 = MomentumSgd::new(0.1, 0.9);
        let plain = train(&mut t1, &mut o1, &RunConfig::plain(60));
        let grouped = train(
            &mut t2,
            &mut o2,
            &RunConfig::plain(60).with_groups(groups.with_shards(2)),
        );
        assert_eq!(plain.final_params, grouped.final_params);
    }
}
