//! Optimizer checkpoint/resume conformance: for every checkpointable
//! optimizer, a mid-run snapshot restored into a freshly constructed
//! instance must continue the trajectory bit-identically — the contract
//! the fleet grid runner's per-cell resume rests on.

use yf_optim::clip::Clipped;
use yf_optim::schedule::{Schedule, Scheduled};
use yf_optim::{AdaGrad, Adam, MomentumSgd, Optimizer, RmsProp, Sgd};

/// Deterministic pseudo-gradient for step `t` (parameter-dependent so
/// state errors compound and become visible).
fn grad(x: &[f32], t: u64) -> Vec<f32> {
    x.iter()
        .enumerate()
        .map(|(i, &v)| v * (1.0 + (i as f32) * 0.1) + ((t % 7) as f32 - 3.0) * 0.01)
        .collect()
}

fn resume_matches(mut original: Box<dyn Optimizer>, mut fresh: Box<dyn Optimizer>) {
    let name = original.name();
    let mut x = vec![1.0f32, -2.0, 0.5, 3.0, -0.25];
    // Warm up, snapshot mid-run.
    for t in 0..23 {
        let g = grad(&x, t);
        original.step(&mut x, &g);
    }
    let snapshot = original
        .checkpoint_state()
        .unwrap_or_else(|| panic!("{name}: expected checkpoint support"));
    let mut x_resumed = x.clone();
    fresh
        .restore_checkpoint(&snapshot)
        .unwrap_or_else(|e| panic!("{name}: restore failed: {e}"));
    // Both must continue identically.
    for t in 23..60 {
        let g = grad(&x, t);
        original.step(&mut x, &g);
        let g2 = grad(&x_resumed, t);
        fresh.step(&mut x_resumed, &g2);
    }
    assert_eq!(x, x_resumed, "{name}: resumed trajectory diverged");
}

#[test]
fn all_baselines_resume_bit_identically() {
    resume_matches(Box::new(Sgd::new(0.05)), Box::new(Sgd::new(0.05)));
    resume_matches(
        Box::new(MomentumSgd::new(0.05, 0.9)),
        Box::new(MomentumSgd::new(0.05, 0.9)),
    );
    resume_matches(
        Box::new(MomentumSgd::nesterov(0.05, 0.9)),
        Box::new(MomentumSgd::nesterov(0.05, 0.9)),
    );
    resume_matches(Box::new(Adam::new(0.01)), Box::new(Adam::new(0.01)));
    resume_matches(Box::new(AdaGrad::new(0.1)), Box::new(AdaGrad::new(0.1)));
    resume_matches(Box::new(RmsProp::new(0.005)), Box::new(RmsProp::new(0.005)));
}

#[test]
fn middleware_delegates_checkpoints_to_the_wrapped_optimizer() {
    resume_matches(
        Box::new(Clipped::new(MomentumSgd::new(0.05, 0.9), 0.5)),
        Box::new(Clipped::new(MomentumSgd::new(0.05, 0.9), 0.5)),
    );
    resume_matches(
        Box::new(Scheduled::new(
            Adam::new(0.01),
            Schedule::EveryEpoch { factor: 0.9 },
        )),
        Box::new(Scheduled::new(
            Adam::new(0.01),
            Schedule::EveryEpoch { factor: 0.9 },
        )),
    );
}

#[test]
fn restore_rejects_cross_kind_checkpoints() {
    let snapshot = Sgd::new(0.1).checkpoint_state().expect("sgd checkpoints");
    let mut adam = Adam::new(0.1);
    let err = adam.restore_checkpoint(&snapshot).unwrap_err();
    assert!(err.to_string().contains("kind"), "{err}");
}

#[test]
fn restore_rejects_truncated_checkpoints() {
    let mut opt = MomentumSgd::new(0.1, 0.9);
    opt.step(&mut [1.0, 2.0], &[0.5, -0.5]);
    let full = opt.checkpoint_state().expect("checkpointable");
    let truncated: String = full.lines().take(2).collect::<Vec<_>>().join("\n");
    let mut fresh = MomentumSgd::new(0.1, 0.9);
    assert!(fresh.restore_checkpoint(&truncated).is_err());
}

#[test]
fn restore_refuses_a_dim_a_later_step_would_panic_on() {
    let mut x = vec![1.0f32, -2.0, 0.5];
    let mut adam = Adam::new(0.01);
    let mut momentum = MomentumSgd::new(0.1, 0.9);
    for t in 0..3 {
        let g = grad(&x, t);
        adam.step(&mut x, &g);
        momentum.step(&mut x, &g);
    }
    let adam_text = adam.checkpoint_state().unwrap();
    let momentum_text = momentum.checkpoint_state().unwrap();
    // A zero dim, and a dim other than the buffers' length.
    for (text, opt) in [
        (&adam_text, &mut Adam::new(0.01) as &mut dyn Optimizer),
        (&momentum_text, &mut MomentumSgd::new(0.1, 0.9)),
    ] {
        for dim in ["dim 0", "dim 4"] {
            let err = opt
                .restore_checkpoint(&text.replace("dim 3", dim))
                .unwrap_err();
            assert!(err.to_string().contains("dim"), "{dim}: {err}");
        }
    }
    // A velocity row cut short at a value boundary.
    let row = momentum_text.lines().last().unwrap();
    let cut = momentum_text.replace(row, &row[..row.rfind(',').unwrap()]);
    assert!(MomentumSgd::new(0.1, 0.9).restore_checkpoint(&cut).is_err());
}

#[test]
fn scheduled_lr_decay_survives_the_round_trip() {
    // The decayed lr is part of the wrapped optimizer's state, so a
    // restore lands at the decayed rate, not the base rate.
    let mut opt = Scheduled::new(Sgd::new(1.0), Schedule::EveryEpoch { factor: 0.5 });
    opt.set_epoch(2);
    assert!((opt.learning_rate() - 0.25).abs() < 1e-7);
    let snap = opt.checkpoint_state().expect("checkpointable");
    let mut fresh = Scheduled::new(Sgd::new(1.0), Schedule::EveryEpoch { factor: 0.5 });
    fresh.restore_checkpoint(&snap).expect("valid");
    assert_eq!(fresh.learning_rate(), opt.learning_rate());
}
