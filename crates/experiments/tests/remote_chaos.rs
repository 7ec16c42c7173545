//! [`RemoteTuner`] under live network failure: the acceptance tests for
//! the graceful-degradation contract, and for resuming a served trainer
//! from its checkpoint.
//!
//! Three regimes, one invariant. Whether the fault schedule eventually
//! reconnects (chaos proxy), never reconnects (server drained away), or
//! reconnects to a *restarted* server resuming from snapshots, the
//! parameter trajectory a trainer walks must be bitwise identical to
//! the same tuner run in process — the shadow session is an exact twin,
//! not an approximation, so even steps served degraded keep the bits.
//! A trainer that restarts from its checkpoint on a fresh tuner keeps
//! the bits too.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::time::Duration;
use yellowfin::YellowFin;
use yf_experiments::serve_client::{RemoteTuner, RemoteTunerConfig};
use yf_experiments::task::TrainTask;
use yf_experiments::trainer::{train, train_resumable, RunConfig, TrainEvent};
use yf_optim::Optimizer;
use yf_serve::{
    Authority, Backoff, ChaosProxy, ChaosSpec, ClientConfig, FilterSpec, OpenSpec, ServeConfig,
    Server,
};
use yf_tensor::rng::Pcg32;

const DIM: usize = 16;

/// Wide-open authority: the served stream is the raw tuner output, so
/// in-process YellowFin is the exact bitwise reference.
fn spec(name: &str) -> OpenSpec {
    let mut spec = OpenSpec {
        session: name.to_string(),
        optimizer: "yellowfin".to_string(),
        value: 1.0,
        dim: DIM,
        authority: Authority::default(),
        filter: FilterSpec::default(),
    };
    spec.authority.max_lr_step = 1e9;
    spec.authority.max_momentum_step = 1.0;
    spec.authority.lr_max = 1e9;
    spec
}

/// Deadlines and budgets tightened from their multi-second production
/// defaults so outages resolve in test time.
fn fast_cfg() -> RemoteTunerConfig {
    RemoteTunerConfig {
        client: ClientConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_millis(300),
            write_timeout: Duration::from_millis(500),
        },
        backoff: Backoff {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(50),
        },
        degrade_after: Duration::from_millis(600),
        resync_limit: 4096,
        probe_cap: 4,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("yf-remote-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Steps both tuners over the same gradient stream, asserting bitwise
/// parameter parity at every step.
fn lockstep(
    remote: &mut RemoteTuner,
    local: &mut dyn Optimizer,
    p_remote: &mut [f32],
    p_local: &mut [f32],
    rng: &mut Pcg32,
    steps: std::ops::Range<usize>,
    context: &str,
) {
    for step in steps {
        let grads: Vec<f32> = (0..DIM).map(|_| rng.uniform() - 0.5).collect();
        remote.step(p_remote, &grads);
        local.step(p_local, &grads);
        for (i, (a, b)) in p_remote.iter().zip(p_local.iter()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{context}: step {step}, param {i}"
            );
        }
    }
}

#[test]
fn eventually_reconnecting_chaos_keeps_the_trajectory_bitwise() {
    // Dropped connection, blackholed replies, duplicated frames — every
    // fault clears on reconnect, the server stays alive throughout, so
    // every verdict is ultimately served (or replayed) by the server:
    // zero degraded steps and zero flipped bits.
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut chaos = ChaosSpec::parse("drop:6,blackhole:14:s2c,duplicate:20").unwrap();
    chaos.delay = Duration::from_millis(20);
    let proxy = ChaosProxy::start(server.local_addr(), chaos).unwrap();

    let mut remote =
        RemoteTuner::connect_with(proxy.local_addr(), spec("chaos-reconnect"), fast_cfg()).unwrap();
    let mut local = yf_serve::registry::build_optimizer("yellowfin", 1.0).unwrap();
    let mut rng = Pcg32::seed(71);
    let mut p_remote = vec![0.5f32; DIM];
    let mut p_local = p_remote.clone();
    lockstep(
        &mut remote,
        &mut *local,
        &mut p_remote,
        &mut p_local,
        &mut rng,
        0..30,
        "reconnecting chaos",
    );
    assert_eq!(
        remote.degraded_steps(),
        0,
        "an eventually-reconnecting schedule never needs the shadow"
    );
    assert!(!remote.degraded());
    let _ = remote.detach().unwrap();
}

#[test]
fn a_permanently_unreachable_server_degrades_and_training_completes() {
    // The server goes away for good mid-run. Training must complete on
    // the shadow tuner — flagged degraded, never hanging — and the
    // shadow being an exact twin, the bits still match the reference.
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut remote =
        RemoteTuner::connect_with(server.local_addr(), spec("chaos-gone"), fast_cfg()).unwrap();
    let mut local = yf_serve::registry::build_optimizer("yellowfin", 1.0).unwrap();
    let mut rng = Pcg32::seed(72);
    let mut p_remote = vec![0.5f32; DIM];
    let mut p_local = p_remote.clone();

    lockstep(
        &mut remote,
        &mut *local,
        &mut p_remote,
        &mut p_local,
        &mut rng,
        0..10,
        "pre-outage",
    );
    assert_eq!(remote.degraded_steps(), 0);

    // Drain: sessions unload, the listener closes, reconnects refuse.
    server.drain();
    server.wait();

    lockstep(
        &mut remote,
        &mut *local,
        &mut p_remote,
        &mut p_local,
        &mut rng,
        10..25,
        "post-outage",
    );
    assert!(
        remote.degraded(),
        "steps served by the shadow must be flagged"
    );
    assert!(
        remote.degraded_steps() >= 10,
        "most post-outage steps are shadow-served, got {}",
        remote.degraded_steps()
    );
    assert_eq!(remote.next_step(), 25, "training ran to completion");
    // No live connection to detach through.
    assert!(remote.detach().is_err());
}

#[test]
fn a_restarted_server_is_rejoined_by_probe_and_replay_bitwise() {
    // Full lifecycle: live → outage (degraded on the shadow, probing at
    // widening step gaps) → a fresh server process resumes the session
    // from snapshots → a probe finds it, replays the buffered
    // measurements, and the link goes live again. Bits never flip.
    let dir = temp_dir("restart");
    let server1 = Server::start(ServeConfig {
        snapshot_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    // Reserve the restart port up front so both addresses are known to
    // the tuner; the reserved listener never answers, so probes against
    // it stay transient failures until the real server takes the port.
    let reserve = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr2 = reserve.local_addr().unwrap();
    let addrs: Vec<SocketAddr> = vec![server1.local_addr(), addr2];

    let mut remote =
        RemoteTuner::connect_with(&addrs[..], spec("chaos-restart"), fast_cfg()).unwrap();
    let mut local = yf_serve::registry::build_optimizer("yellowfin", 1.0).unwrap();
    let mut rng = Pcg32::seed(73);
    let mut p_remote = vec![0.5f32; DIM];
    let mut p_local = p_remote.clone();

    lockstep(
        &mut remote,
        &mut *local,
        &mut p_remote,
        &mut p_local,
        &mut rng,
        0..8,
        "pre-outage",
    );

    // Drain unloads every session, whose state is on disk already,
    // then the server goes away.
    server1.drain();
    server1.wait();

    // Degraded stretch: probes at steps 9 and 11 fail (the reserved
    // port accepts but never replies), widening the probe gap.
    lockstep(
        &mut remote,
        &mut *local,
        &mut p_remote,
        &mut p_local,
        &mut rng,
        8..13,
        "degraded",
    );
    assert!(remote.degraded());
    let degraded_so_far = remote.degraded_steps();
    assert!(degraded_so_far >= 4, "got {degraded_so_far}");

    // The replacement server takes the reserved port over the same
    // snapshot directory.
    drop(reserve);
    let server2 = Server::start(ServeConfig {
        addr: addr2.to_string(),
        snapshot_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .unwrap();

    // The next scheduled probe resyncs: buffered measurements replay in
    // order and the link goes live; later steps are server-served.
    lockstep(
        &mut remote,
        &mut *local,
        &mut p_remote,
        &mut p_local,
        &mut rng,
        13..30,
        "post-restart",
    );
    assert!(
        !remote.degraded(),
        "the tuner must be live again after the restart"
    );
    assert!(
        remote.degraded_steps() > degraded_so_far.saturating_sub(1) && remote.degraded_steps() < 22,
        "degradation must end once the probe resyncs, got {}",
        remote.degraded_steps()
    );
    let _ = remote.detach().unwrap();
    drop(server2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A noisy quadratic whose minibatch is a pure function of the step.
struct Quadratic;

impl TrainTask for Quadratic {
    fn dim(&self) -> usize {
        DIM
    }

    fn init_params(&self) -> Vec<f32> {
        vec![0.5; DIM]
    }

    fn loss_grad_at(&mut self, params: &[f32], step: u64) -> (f32, Vec<f32>) {
        let mut rng = Pcg32::seed(1000 + step);
        let curvature = |i: usize| 1.0 + 0.25 * i as f32;
        let loss = params
            .iter()
            .enumerate()
            .map(|(i, &p)| 0.5 * curvature(i) * p * p)
            .sum();
        let grads = params
            .iter()
            .enumerate()
            .map(|(i, &p)| curvature(i) * p + 0.1 * (rng.uniform() - 0.5))
            .collect();
        (loss, grads)
    }

    fn validate(&mut self, _params: &[f32]) -> f64 {
        0.0
    }

    fn metric_name(&self) -> &'static str {
        "none"
    }

    fn lower_is_better(&self) -> bool {
        true
    }
}

#[test]
fn a_checkpointed_remote_trainer_resumes_on_a_fresh_tuner_bitwise() {
    // A served trainer checkpoints at step 20, takes one more step and
    // detaches. A fresh tuner restored from the checkpoint trains steps
    // 20-40 — its first measurement is answered from the session's
    // cached verdict — and the run equals uninterrupted in-process
    // YellowFin bit for bit, with no step served degraded.
    let dir = temp_dir("resume");
    let server = Server::start(ServeConfig {
        snapshot_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let want = train(
        &mut Quadratic,
        &mut YellowFin::new(yf_serve::registry::yellowfin_config(1.0)),
        &RunConfig::plain(40),
    );

    let mut first =
        RemoteTuner::connect_with(server.local_addr(), spec("resume"), fast_cfg()).unwrap();
    let mut checkpoint = None;
    train_resumable(
        &mut Quadratic,
        &mut first,
        &RunConfig::plain(21),
        None,
        20,
        |event| {
            if let TrainEvent::Checkpoint(c) = event {
                checkpoint = Some(c.clone());
            }
        },
    )
    .unwrap();
    assert_eq!(first.degraded_steps(), 0);
    let _ = first.detach().unwrap();
    let checkpoint = checkpoint.expect("a served trainer checkpoints");
    assert_eq!(checkpoint.step, 20);

    let mut second =
        RemoteTuner::connect_with(server.local_addr(), spec("resume"), fast_cfg()).unwrap();
    assert_eq!(second.next_step(), 21, "the session persisted step 20 too");
    let got = train_resumable(
        &mut Quadratic,
        &mut second,
        &RunConfig::plain(40),
        Some(checkpoint),
        0,
        |_| {},
    )
    .unwrap();
    assert_eq!(got.losses.len(), 40);
    for (i, (a, b)) in got.final_params.iter().zip(&want.final_params).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "param {i}");
    }
    for (i, (a, b)) in got.losses.iter().zip(&want.losses).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "loss {i}");
    }
    assert_eq!(second.degraded_steps(), 0);
    let _ = second.detach().unwrap();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unrestored_tuner_on_a_resumed_session_panics_naming_the_fix() {
    // A tuner opened on a session past step 0 holds no gradient moments:
    // its first step must fail loudly and say how to resume, not stream
    // measurements the session could not reproduce.
    let dir = temp_dir("unrestored");
    let server = Server::start(ServeConfig {
        snapshot_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut rng = Pcg32::seed(74);
    let mut params = vec![0.5f32; DIM];
    let mut first =
        RemoteTuner::connect_with(server.local_addr(), spec("unrestored"), fast_cfg()).unwrap();
    for _ in 0..5 {
        let grads: Vec<f32> = (0..DIM).map(|_| rng.uniform() - 0.5).collect();
        first.step(&mut params, &grads);
    }
    let _ = first.detach().unwrap();

    let mut second =
        RemoteTuner::connect_with(server.local_addr(), spec("unrestored"), fast_cfg()).unwrap();
    assert_eq!(second.next_step(), 5);
    let grads: Vec<f32> = (0..DIM).map(|_| rng.uniform() - 0.5).collect();
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        second.step(&mut params, &grads);
    }))
    .expect_err("an unrestored mid-stream tuner must not step");
    let message = panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .unwrap_or_default();
    assert!(message.contains("restore_checkpoint"), "{message}");
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_server_that_diverges_from_the_shadow_is_abandoned_and_the_bits_hold() {
    // Tuner `c` resumes tuner `a`'s checkpoint on a session that another
    // trainer drove with other gradients, so the server's verdicts differ
    // from the shadow's. The shadow and the local moments are the
    // consistent pair: `c` abandons the server and keeps stepping exactly
    // as `a` does against its own session.
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut a = RemoteTuner::connect_with(addr, spec("diverge-a"), fast_cfg()).unwrap();
    let mut b = RemoteTuner::connect_with(addr, spec("diverge-b"), fast_cfg()).unwrap();
    let (mut rng_a, mut rng_b) = (Pcg32::seed(75), Pcg32::seed(76));
    let mut p_a = vec![0.5f32; DIM];
    let mut p_b = p_a.clone();
    for _ in 0..10 {
        let g_a: Vec<f32> = (0..DIM).map(|_| rng_a.uniform() - 0.5).collect();
        let g_b: Vec<f32> = (0..DIM).map(|_| rng_b.uniform() - 0.5).collect();
        a.step(&mut p_a, &g_a);
        b.step(&mut p_b, &g_b);
    }
    let checkpoint = a.checkpoint_state().expect("a served trainer checkpoints");
    // `b` hangs up without closing, so its session stays hosted at step 10.
    drop(b);

    let mut c = RemoteTuner::connect_with(addr, spec("diverge-b"), fast_cfg()).unwrap();
    assert_eq!(c.next_step(), 10);
    c.restore_checkpoint(&checkpoint).unwrap();
    let mut p_c = p_a.clone();
    for step in 10..20 {
        let grads: Vec<f32> = (0..DIM).map(|_| rng_a.uniform() - 0.5).collect();
        a.step(&mut p_a, &grads);
        c.step(&mut p_c, &grads);
        for (i, (x, y)) in p_a.iter().zip(&p_c).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "step {step}, param {i}");
        }
    }
    assert_eq!(a.degraded_steps(), 0);
    assert_eq!(c.degraded_steps(), 10, "the diverged server serves no step");
    assert!(c.detach().is_err(), "the server was abandoned");
}
