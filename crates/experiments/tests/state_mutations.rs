//! A mutation sweep over every state format the workspace writes.
//!
//! Checkpoints, snapshots and fleet files are read back from disk, where
//! a torn write, a flipped byte or a hand edit can put any text. The
//! contract is that reading never panics: a variant either restores and
//! then runs, or is refused with an error. For each format this replaces
//! every byte with each of a few bytes that keep the text plausible
//! (digits, a hex letter, a sign, a space, a newline, a stray letter),
//! cuts the text at every char boundary, and runs each variant through
//! decode → restore → one step or measurement. It is deterministic: the
//! variants are enumerated, not sampled.

use std::panic::{catch_unwind, AssertUnwindSafe};
use yellowfin::measurements::GradVariance;
use yellowfin::{ClipMode, YellowFin, YellowFinConfig};
use yf_experiments::fleet::codec;
use yf_experiments::serve_client::RemoteTuner;
use yf_experiments::trainer::{RunResult, TrainCheckpoint};
use yf_optim::{Adam, MomentumSgd, Optimizer};
use yf_serve::registry::yellowfin_config;
use yf_serve::{snapshot, Authority, FilterSpec, OpenSpec, ServeConfig, Server, Session};
use yf_tensor::reduce;
use yf_tensor::rng::Pcg32;

/// The bytes each position is replaced with.
const REPLACEMENTS: [u8; 8] = [b'0', b'1', b'9', b'f', b'-', b' ', b'\n', b'x'];

const DIM: usize = 16;

/// Runs `check` on every one-byte replacement and every prefix of
/// `text`, and fails naming the format, byte offset and line of the
/// first variant that panicked.
fn sweep(format: &str, text: &str, mut check: impl FnMut(&str)) {
    let (mut variants, mut panics) = (0, 0);
    let mut first = None;
    let mut run = |variant: &str, offset: usize, what: String| {
        variants += 1;
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| check(variant))) {
            panics += 1;
            if first.is_none() {
                let message = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                first = Some((offset, what, message));
            }
        }
    };
    for offset in 0..text.len() {
        for byte in REPLACEMENTS {
            let mut bytes = text.as_bytes().to_vec();
            bytes[offset] = byte;
            if let Ok(variant) = String::from_utf8(bytes) {
                run(&variant, offset, format!("byte {:?}", char::from(byte)));
            }
        }
    }
    for cut in (0..text.len()).filter(|&cut| text.is_char_boundary(cut)) {
        run(&text[..cut], cut, "cut".to_string());
    }
    if let Some((offset, what, message)) = first {
        let line = text[..offset].matches('\n').count() + 1;
        panic!(
            "{format}: {panics} of {variants} variants panicked; the first at byte {offset} \
             (line {line}, {what}): {message}"
        );
    }
}

/// A seeded gradient of `dim` values with an occasional spike, so gate
/// rejections are part of the recorded state.
fn gradient(rng: &mut Pcg32, dim: usize, step: usize) -> Vec<f32> {
    let scale = if step % 7 == 6 { 1e4 } else { 1.0 };
    (0..dim).map(|_| scale * (rng.uniform() - 0.5)).collect()
}

/// Trains `opt` for 20 steps at [`DIM`]; returns the parameters and the
/// next gradient.
fn trained(opt: &mut dyn Optimizer) -> (Vec<f32>, Vec<f32>) {
    let mut rng = Pcg32::seed(21);
    let mut params: Vec<f32> = (0..DIM).map(|_| rng.normal()).collect();
    for step in 0..20 {
        let grads = gradient(&mut rng, DIM, step);
        opt.step(&mut params, &grads);
    }
    (params, gradient(&mut rng, DIM, 20))
}

/// Sweeps an optimizer's checkpoint block: restore into `fresh()`, then
/// take one step.
fn sweep_optimizer<O: Optimizer>(format: &str, mut opt: O, fresh: impl Fn() -> O) {
    let (params, grads) = trained(&mut opt);
    let text = opt.checkpoint_state().unwrap();
    sweep(format, &text, |variant| {
        let mut restored = fresh();
        if restored.restore_checkpoint(variant).is_ok() {
            restored.step(&mut params.clone(), &grads);
        }
    });
}

fn adaptive_yellowfin() -> YellowFin {
    YellowFin::new(YellowFinConfig {
        clip: ClipMode::Adaptive,
        ..YellowFinConfig::default()
    })
}

#[test]
fn yellowfin_adam_and_momentum_blocks_never_panic() {
    sweep_optimizer("yellowfin block", adaptive_yellowfin(), YellowFin::default);
    sweep_optimizer("adam block", Adam::new(0.01), || Adam::new(0.01));
    sweep_optimizer("momentum-sgd block", MomentumSgd::new(0.05, 0.9), || {
        MomentumSgd::new(0.05, 0.9)
    });
}

fn session_spec(name: &str, dim: usize) -> OpenSpec {
    OpenSpec {
        session: name.to_string(),
        optimizer: "yellowfin".to_string(),
        value: 1.0,
        dim,
        authority: Authority::default(),
        filter: FilterSpec::default(),
    }
}

#[test]
fn gradient_fed_session_snapshots_never_panic() {
    let dim = 8;
    let mut rng = Pcg32::seed(8);
    let mut session = Session::new(session_spec("grad-fed", dim)).unwrap();
    for step in 0..20 {
        let grads = gradient(&mut rng, dim, step);
        session.measure(step as u64, rng.uniform(), &grads).unwrap();
    }
    let text = snapshot::encode(&session.snapshot());
    assert!(text.contains("\nmoments present\n"));
    let next = gradient(&mut rng, dim, 20);
    sweep("gradient-fed session snapshot", &text, |variant| {
        let Ok(snap) = snapshot::decode(variant) else {
            return;
        };
        if let Ok(mut restored) = Session::restore(snap) {
            let _ = restored.measure(restored.step(), 0.5, &next);
        }
    });
}

#[test]
fn stats_fed_session_snapshots_never_panic() {
    let dim = 64;
    let spec = session_spec("stats-fed", dim);
    let mut rng = Pcg32::seed(64);
    let mut session = Session::new(spec.clone()).unwrap();
    let mut moments = GradVariance::new(yellowfin_config(spec.value).beta);
    for step in 0..20 {
        let grads = gradient(&mut rng, dim, step);
        let sumsq = reduce::sumsq(&grads);
        session
            .measure_swept(step as u64, rng.uniform(), sumsq, |scale| {
                moments.observe_scaled(&grads, scale, 1);
                moments.variance()
            })
            .unwrap();
    }
    let next = gradient(&mut rng, dim, 20);
    let (sumsq, var_sum) = (reduce::sumsq(&next), moments.variance());
    let text = snapshot::encode(&session.snapshot());
    assert!(text.contains("\nmoments none\n"));
    sweep("stats-fed session snapshot", &text, |variant| {
        let Ok(snap) = snapshot::decode(variant) else {
            return;
        };
        if let Ok(mut restored) = Session::restore(snap) {
            let _ = restored.measure_stats(restored.step(), 0.5, sumsq, var_sum);
        }
    });
}

#[test]
fn fleet_checkpoints_and_results_never_panic() {
    let mut opt = adaptive_yellowfin();
    let (params, grads) = trained(&mut opt);
    let ckpt = TrainCheckpoint {
        step: 20,
        base_lr: 0.1,
        params: params.clone(),
        losses: vec![0.5, 0.25, f32::NAN],
        metrics: vec![(10, 0.75), (20, 0.875)],
        opt_state: opt.checkpoint_state().unwrap(),
    };
    sweep(
        "fleet checkpoint",
        &codec::encode_checkpoint(&ckpt),
        |variant| {
            let Ok(mut ckpt) = codec::decode_checkpoint(variant) else {
                return;
            };
            let mut restored = YellowFin::default();
            if restored.restore_checkpoint(&ckpt.opt_state).is_ok() {
                restored.step(&mut ckpt.params, &grads);
            }
        },
    );
    let result = RunResult {
        losses: ckpt.losses,
        metrics: ckpt.metrics,
        final_params: params,
    };
    sweep("fleet result", &codec::encode_result(&result), |variant| {
        let _ = codec::decode_result(variant);
    });
}

#[test]
fn remote_tuner_checkpoints_never_panic() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        snapshot_dir: None,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut remote =
        RemoteTuner::connect(server.local_addr(), session_spec("remote", DIM)).unwrap();
    trained(&mut remote);
    let text = remote.checkpoint_state().unwrap();
    // Restore only: a step would talk to the server.
    sweep("remote tuner checkpoint", &text, |variant| {
        let _ = remote.restore_checkpoint(variant);
    });
    let _ = remote.detach();
}
