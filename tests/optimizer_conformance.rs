//! Trait-conformance suite for the two-phase, shard-aware optimizer API.
//!
//! Every optimizer in the workspace — the yf-optim baselines, the
//! YellowFin tuner, both closed-loop controllers, and the middleware
//! wrappers — must satisfy the same contracts:
//!
//! 1. **Shard-count invariance**: the sharded measure phase (per-shard
//!    partial reductions + deterministic combine) and the parallel apply
//!    phase over N shards are bitwise identical to the one-phase `step`
//!    on a fixed-seed MLP task, for any N, including plans that change
//!    mid-run — both the trajectories and the per-step `Hyper` values.
//! 2. **State-length panics preserved**: mismatched `params`/`grads`
//!    and a flat dimension that changes between steps still panic.
//! 3. **Middleware composition**: `Clipped` and `Scheduled` wrap any
//!    optimizer, compose with the sharded drivers, and schedules no-op
//!    on self-tuning optimizers.
//! 4. **Trait surface**: a wrapper forwarding every trait method, and an
//!    external-style optimizer implementing only the required ones (so
//!    every provided default is exercised), meet the same contracts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use yellowfin::{ClosedLoopAdam, ClosedLoopYellowFin, YellowFin, YellowFinConfig};
use yf_experiments::task::{ModelTask, TrainTask};
use yf_nn::Mlp;
use yf_optim::checkpoint::OptStateError;
use yf_optim::clip::Clipped;
use yf_optim::schedule::{Schedule, Scheduled};
use yf_optim::sharded::step_sharded;
use yf_optim::{
    AdaGrad, Adam, Hyper, MomentumSgd, Optimizer, ParamShard, RmsProp, Sgd, StatsPartial,
};
use yf_tensor::rng::Pcg32;
use yf_tensor::Tensor;

type OptFactory = (&'static str, fn() -> Box<dyn Optimizer>);

/// Forwards every trait method to the wrapped optimizer, the way an
/// instrumenting wrapper (a tracing probe, say) does; the trajectory must
/// be bitwise that of the wrapped optimizer alone.
struct Forwarding(Box<dyn Optimizer>);

impl Optimizer for Forwarding {
    fn observe(&mut self, params: &[f32], grads: &[f32]) -> Hyper {
        self.0.observe(params, grads)
    }

    fn observe_shard(&self, shard: ParamShard, params: &[f32], grads: &[f32]) -> StatsPartial {
        self.0.observe_shard(shard, params, grads)
    }

    fn combine(
        &mut self,
        params: &[f32],
        grads: &[f32],
        partials: Vec<StatsPartial>,
        grad_scale: f32,
    ) -> Hyper {
        self.0.combine(params, grads, partials, grad_scale)
    }

    fn needs_observe_partials(&self) -> bool {
        self.0.needs_observe_partials()
    }

    fn step_shard(&self, shard: ParamShard, params: &mut [f32], grads: &[f32], hyper: Hyper) {
        self.0.step_shard(shard, params, grads, hyper)
    }

    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        self.0.step(params, grads)
    }

    fn checkpoint_state(&self) -> Option<String> {
        self.0.checkpoint_state()
    }

    fn restore_checkpoint(&mut self, text: &str) -> Result<(), OptStateError> {
        self.0.restore_checkpoint(text)
    }

    fn learning_rate(&self) -> f32 {
        self.0.learning_rate()
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.0.set_learning_rate(lr)
    }

    fn is_self_tuning(&self) -> bool {
        self.0.is_self_tuning()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// Plain SGD written the way an optimizer outside the workspace would
/// be: only the required methods, so `observe`, `observe_shard`,
/// `needs_observe_partials`, `step` and the checkpoint methods are the
/// trait's provided defaults.
struct MinimalSgd {
    lr: f32,
    dim: Option<usize>,
}

impl Optimizer for MinimalSgd {
    fn combine(
        &mut self,
        params: &[f32],
        grads: &[f32],
        partials: Vec<StatsPartial>,
        grad_scale: f32,
    ) -> Hyper {
        // The provided `needs_observe_partials` is false: no measure
        // phase runs, and the top-level scale is 1.
        assert!(partials.is_empty(), "minimal-sgd: unrequested partials");
        assert_eq!(grad_scale, 1.0);
        assert_eq!(params.len(), grads.len(), "minimal-sgd: lengths differ");
        let dim = *self.dim.get_or_insert(params.len());
        assert_eq!(dim, params.len(), "minimal-sgd: parameter count changed");
        Hyper::new(self.lr, 0.0)
    }

    fn step_shard(&self, shard: ParamShard, params: &mut [f32], grads: &[f32], hyper: Hyper) {
        shard.validate(params, grads);
        for (p, &g) in params.iter_mut().zip(grads) {
            *p -= hyper.lr * hyper.grad_scale * g;
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn name(&self) -> &'static str {
        "minimal-sgd"
    }
}

/// Every optimizer in the workspace, including middleware-wrapped ones.
fn all_optimizers() -> Vec<OptFactory> {
    vec![
        ("sgd", || Box::new(Sgd::new(0.1))),
        ("momentum-sgd", || Box::new(MomentumSgd::new(0.05, 0.9))),
        ("nesterov-sgd", || {
            Box::new(MomentumSgd::nesterov(0.05, 0.9))
        }),
        ("adam", || Box::new(Adam::new(0.01))),
        ("adagrad", || Box::new(AdaGrad::new(0.1))),
        ("rmsprop", || Box::new(RmsProp::new(0.01))),
        ("yellowfin", || Box::new(YellowFin::default())),
        ("yellowfin-adaptive-clip", || {
            Box::new(YellowFin::new(YellowFinConfig {
                clip: yellowfin::ClipMode::Adaptive,
                ..Default::default()
            }))
        }),
        ("closed-loop-yellowfin", || {
            Box::new(ClosedLoopYellowFin::new(
                YellowFinConfig::default(),
                3,
                0.01,
            ))
        }),
        ("closed-loop-adam", || {
            Box::new(ClosedLoopAdam::new(0.01, 0.9, 3, 0.01))
        }),
        ("clipped-momentum", || {
            Box::new(Clipped::new(MomentumSgd::new(0.05, 0.9), 0.5))
        }),
        ("clipped-yellowfin", || {
            // Middleware clipping around a measuring optimizer: the
            // clip factor must reach the tuner's measurements as a
            // scale on the shared Σg² partials, not a gradient copy.
            Box::new(Clipped::new(YellowFin::default(), 0.5))
        }),
        ("scheduled-clipped-adam", || {
            Box::new(Scheduled::new(
                Clipped::new(Adam::new(0.01), 1.0),
                Schedule::EveryEpoch { factor: 0.9 },
            ))
        }),
        ("forwarding-clipped-yellowfin", || {
            Box::new(Forwarding(Box::new(Clipped::new(
                YellowFin::default(),
                0.5,
            ))))
        }),
        ("minimal-sgd", || {
            Box::new(MinimalSgd { lr: 0.1, dim: None })
        }),
    ]
}

/// A small fixed-seed MLP classification task (42 parameters).
fn mlp_task(seed: u64) -> ModelTask<Mlp> {
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
        |_| 0.0,
        "none",
        false,
    )
}

/// Runs `steps` iterations on the fixed-seed MLP, applying each update
/// through `shards_for(step)` parallel shards (0 = one-phase `step`).
fn run_mlp(opt: &mut dyn Optimizer, steps: usize, shards_for: impl Fn(usize) -> usize) -> Vec<f32> {
    let mut task = mlp_task(77);
    let mut params = task.init_params();
    for step in 0..steps {
        let (_, grad) = task.loss_grad_at(&params, step as u64);
        match shards_for(step) {
            0 => opt.step(&mut params, &grad),
            n => {
                step_sharded(opt, &mut params, &grad, n);
            }
        }
    }
    params
}

#[test]
fn sharded_apply_is_bitwise_identical_to_step() {
    for (name, make) in all_optimizers() {
        let baseline = run_mlp(make().as_mut(), 60, |_| 0);
        for shards in [1usize, 2, 4] {
            let sharded = run_mlp(make().as_mut(), 60, |_| shards);
            assert_eq!(
                baseline, sharded,
                "{name}: {shards}-shard apply diverged from step()"
            );
        }
    }
}

#[test]
fn sharded_observe_is_bitwise_identical_to_whole_vector_observe() {
    // The measure phase: at every step, the Hyper a 1/2/4/7-shard
    // `step_sharded` tunes (block-aligned partials, one combine) must be
    // exactly the Hyper the whole-vector `observe` returns, and the
    // optimizer state it leaves behind must drive an identical
    // trajectory.
    for (name, make) in all_optimizers() {
        for shards in [1usize, 2, 4, 7] {
            let mut task_a = mlp_task(77);
            let mut task_b = mlp_task(77);
            let mut a = make();
            let mut b = make();
            let mut xa = task_a.init_params();
            let mut xb = task_b.init_params();
            for step in 0..60 {
                let (_, ga) = task_a.loss_grad_at(&xa, step as u64);
                let (_, gb) = task_b.loss_grad_at(&xb, step as u64);
                let ha = a.observe(&xa, &ga);
                a.step_shard(ParamShard::whole(xa.len()), &mut xa, &ga, ha);
                let hb = step_sharded(b.as_mut(), &mut xb, &gb, shards);
                assert_eq!(
                    ha, hb,
                    "{name}: step {step}, {shards}-shard observe returned a different Hyper"
                );
            }
            assert_eq!(xa, xb, "{name}: {shards}-shard observe diverged");
        }
    }
}

#[test]
fn multi_block_sharded_observe_merges_partials_bitwise() {
    // A dimension spanning several reduction blocks (4 blocks + a ragged
    // tail at BLOCK = 1024), so the sharded measure phase genuinely
    // splits the gradient and `combine` merges real partial sequences.
    let dim = 4100;
    for (name, make) in all_optimizers() {
        let baseline = {
            let mut opt = make();
            let mut x: Vec<f32> = (0..dim).map(|i| ((i as f32) * 0.37).sin()).collect();
            for _ in 0..12 {
                let g: Vec<f32> = x.iter().map(|&v| 0.5 * v).collect();
                opt.step(&mut x, &g);
            }
            x
        };
        for shards in [2usize, 3, 4, 7] {
            let mut opt = make();
            let mut x: Vec<f32> = (0..dim).map(|i| ((i as f32) * 0.37).sin()).collect();
            for _ in 0..12 {
                let g: Vec<f32> = x.iter().map(|&v| 0.5 * v).collect();
                step_sharded(opt.as_mut(), &mut x, &g, shards);
            }
            assert_eq!(
                baseline, x,
                "{name}: multi-block {shards}-shard run diverged from step()"
            );
        }
    }
}

#[test]
fn shard_plan_changes_mid_run_preserve_state() {
    // 1 shard for 20 steps, then 4, then 2: ShardedState must re-plan
    // without losing per-coordinate state.
    for (name, make) in all_optimizers() {
        let baseline = run_mlp(make().as_mut(), 60, |_| 0);
        let replanned = run_mlp(make().as_mut(), 60, |step| match step {
            0..=19 => 1,
            20..=39 => 4,
            _ => 2,
        });
        assert_eq!(baseline, replanned, "{name}: re-sharding changed the run");
    }
}

#[test]
fn length_mismatch_panics_for_every_optimizer() {
    for (name, make) in all_optimizers() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut opt = make();
            opt.step(&mut [0.0], &[0.0, 0.0]);
        }));
        assert!(result.is_err(), "{name}: accepted mismatched lengths");
    }
}

#[test]
fn dimension_change_panics_for_every_optimizer() {
    for (name, make) in all_optimizers() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut opt = make();
            opt.step(&mut [0.5], &[1.0]);
            opt.step(&mut [0.5, 0.5], &[1.0, 1.0]);
        }));
        assert!(result.is_err(), "{name}: accepted a dimension change");
        let msg = result
            .unwrap_err()
            .downcast::<String>()
            .map(|s| *s)
            .unwrap_or_default();
        assert!(
            msg.contains("chang"),
            "{name}: panic message should mention the changed count, got: {msg}"
        );
    }
}

#[test]
fn clipped_composes_with_sharded_apply() {
    // A huge gradient through Clipped(Sgd) must produce a unit-norm step
    // whether applied whole or in shards (the clip factor rides in
    // Hyper::grad_scale).
    let run = |shards: usize| {
        let mut opt = Clipped::new(Sgd::new(1.0), 1.0);
        let mut x = vec![0.0f32; 6];
        let g = vec![300.0f32; 6];
        step_sharded(&mut opt, &mut x, &g, shards);
        x
    };
    let whole = run(1);
    let norm: f32 = whole.iter().map(|v| v * v).sum::<f32>().sqrt();
    assert!((norm - 1.0).abs() < 1e-5, "clipped step norm {norm}");
    assert_eq!(whole, run(3), "clip scale must shard losslessly");
}

#[test]
fn schedules_noop_on_self_tuning_optimizers() {
    // Warm a tuner up, then apply a decay schedule: the effective
    // learning rate must be exactly what the tuner chose.
    let mut opt = YellowFin::default();
    let mut x = vec![1.0f32, -1.0];
    for _ in 0..50 {
        let g = x.clone();
        opt.step(&mut x, &g);
    }
    let tuned = opt.learning_rate();
    Schedule::EveryEpoch { factor: 0.5 }.apply(&mut opt, tuned, 7);
    assert_eq!(
        opt.learning_rate(),
        tuned,
        "schedule must not fight the tuner"
    );
    assert!(opt.is_self_tuning());

    // The middleware form inherits the no-op through the wrapper chain.
    let mut wrapped = Scheduled::new(
        Clipped::new(
            ClosedLoopYellowFin::new(YellowFinConfig::default(), 0, 0.01),
            10.0,
        ),
        Schedule::EveryEpoch { factor: 0.5 },
    );
    assert!(wrapped.is_self_tuning());
    let before = wrapped.learning_rate();
    wrapped.set_epoch(3);
    assert_eq!(wrapped.learning_rate(), before);
}

#[test]
fn scheduled_middleware_decays_plain_optimizers_in_training() {
    let mut opt = Scheduled::new(
        Clipped::new(MomentumSgd::new(1.0, 0.0), 1e6),
        Schedule::EveryEpoch { factor: 0.5 },
    );
    let mut x = vec![0.0f32];
    for epoch in 0..3 {
        opt.set_epoch(epoch);
        opt.step(&mut x, &[1.0]);
    }
    // Steps applied: 1.0, 0.5, 0.25.
    assert!((x[0] + 1.75).abs() < 1e-6, "got {}", x[0]);
}
