//! Chaos matrix for the serve protocol: a [`ChaosProxy`] sits between
//! client and server and injects one reproducible fault schedule per
//! test — delays, dropped connections, blackholes, corrupted frames,
//! duplicates, and mixes — while the client reconnects and replays.
//!
//! The headline contract under test: for any fault schedule that
//! eventually lets the client reconnect, the served [`Hyper`] stream is
//! **bitwise identical** to the fault-free in-process reference. The
//! pieces that make that true (deadlines, the one-step idempotent
//! replay window, takeover fencing, stale-reply skipping) are each
//! pinned individually in `serve_robustness.rs`; here they run as a
//! system against live faults.
//!
//! The `env_selected_chaos_preserves_the_trajectory` case reads
//! `YF_CHAOS` so CI can sweep the fault matrix without recompiling; it
//! skips (passes) when the knob is unset.

use std::time::Duration;
use yf_serve::{
    Authority, ChaosProxy, ChaosSpec, Client, ClientConfig, FilterSpec, MeasureReply, OpenSpec,
    Outcome, ServeConfig, Server, Session,
};
use yf_tensor::rng::Pcg32;

const DIM: usize = 12;
const FRAMES: usize = 40;

fn spec(name: &str) -> OpenSpec {
    OpenSpec {
        session: name.to_string(),
        optimizer: "yellowfin".to_string(),
        value: 0.1,
        dim: DIM,
        authority: Authority::default(),
        filter: FilterSpec::default(),
    }
}

/// Deterministic measurement stream with occasional exploding gradients
/// so filter rejections are part of the replayed trajectory.
fn stream(seed: u64) -> Vec<(f32, Vec<f32>)> {
    let mut rng = Pcg32::seed_stream(seed, 0x5e);
    (0..FRAMES)
        .map(|i| {
            let scale = if i % 13 == 12 { 1e7 } else { 1.0 };
            let loss = rng.uniform();
            let grads = (0..DIM).map(|_| scale * (rng.uniform() - 0.5)).collect();
            (loss, grads)
        })
        .collect()
}

fn reference(open: &OpenSpec, frames: &[(f32, Vec<f32>)]) -> Vec<Outcome> {
    let mut session = Session::new(open.clone()).unwrap();
    frames
        .iter()
        .enumerate()
        .map(|(i, (loss, grads))| session.measure(i as u64, *loss, grads).unwrap())
        .collect()
}

fn assert_reply(reply: &MeasureReply, want: &Outcome, context: &str) {
    match (reply, want) {
        (
            MeasureReply::Tuned { hyper, clamped },
            Outcome::Tuned {
                hyper: w,
                clamped: wc,
            },
        ) => {
            assert_eq!(hyper.lr.to_bits(), w.lr.to_bits(), "{context}: lr");
            assert_eq!(
                hyper.momentum.to_bits(),
                w.momentum.to_bits(),
                "{context}: momentum"
            );
            assert_eq!(
                hyper.grad_scale.to_bits(),
                w.grad_scale.to_bits(),
                "{context}: grad_scale"
            );
            assert_eq!(clamped, wc, "{context}: clamped");
        }
        (MeasureReply::Rejected { reason }, Outcome::Rejected { reason: w }) => {
            assert_eq!(reason, w, "{context}: rejection reason");
        }
        (got, want) => panic!("{context}: got {got:?}, reference says {want:?}"),
    }
}

/// Client deadlines tight enough that a blackholed reply degrades into
/// a fast reconnect instead of a ten-second stall.
fn tight_deadlines() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_secs(2),
        read_timeout: Duration::from_millis(400),
        write_timeout: Duration::from_secs(2),
    }
}

/// Drives one full session through a chaos proxy armed with `chaos`,
/// reconnecting (through the proxy) and replaying on every transport
/// failure, and asserts the served stream is bitwise identical to the
/// fault-free reference.
fn trajectory_survives(chaos: &str, seed: u64) {
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut chaos_spec = ChaosSpec::parse(chaos).unwrap();
    chaos_spec.delay = Duration::from_millis(30);
    let proxy = ChaosProxy::start(server.local_addr(), chaos_spec).unwrap();
    let cfg = tight_deadlines();

    let open = spec(&format!("chaos-{seed}"));
    let frames = stream(seed);
    let want = reference(&open, &frames);

    let mut client = Client::connect_with(proxy.local_addr(), &cfg).unwrap();
    assert_eq!(client.open(open.clone()).unwrap(), 0);
    for (step, (loss, grads)) in frames.iter().enumerate() {
        let mut budget = 50;
        let reply = loop {
            match client.measure(&open.session, step as u64, *loss, grads) {
                Ok(reply) => break reply,
                Err(e) => {
                    budget -= 1;
                    assert!(budget > 0, "step {step}: fault never cleared ({e})");
                    // Reconnect through the proxy and re-open; the
                    // server may already have applied this step (reply
                    // lost in flight), in which case the re-send below
                    // is answered from the idempotent cache.
                    std::thread::sleep(Duration::from_millis(20));
                    let Ok(mut next) = Client::connect_with(proxy.local_addr(), &cfg) else {
                        continue;
                    };
                    match next.open(open.clone()) {
                        Ok(at) => {
                            assert!(
                                at == step as u64 || at == step as u64 + 1,
                                "step {step}: server re-opened at {at}"
                            );
                            client = next;
                        }
                        Err(_) => continue,
                    }
                }
            }
        };
        assert_reply(&reply, &want[step], &format!("chaos {chaos:?} step {step}"));
    }
    client.close_session(&open.session).unwrap();
    drop(proxy);
}

#[test]
fn delays_in_both_directions_are_pure_latency() {
    trajectory_survives("delay:5,delay:12:s2c", 1001);
}

#[test]
fn a_dropped_connection_reconnects_and_replays_bitwise() {
    trajectory_survives("drop:7", 1002);
}

#[test]
fn duplicated_frames_in_both_directions_never_double_advance() {
    // c2s duplicate: the server answers the replay from its idempotent
    // cache; s2c duplicate: the client skips the stale extra reply.
    trajectory_survives("duplicate:6,duplicate:19:s2c", 1003);
}

#[test]
fn corrupted_frames_in_both_directions_are_survivable() {
    // A corrupted request draws an error frame (nothing applied); a
    // corrupted reply poisons the connection and forces a reconnect.
    trajectory_survives("corrupt:8,corrupt:21:s2c", 1004);
}

#[test]
fn a_blackholed_reply_stream_times_out_into_a_reconnect() {
    // No EOF, no error — replies just stop. The read deadline turns the
    // stall into a reconnect, and takeover fencing evicts the wedged
    // attachment server-side.
    trajectory_survives("blackhole:10:s2c", 1005);
}

#[test]
fn a_blackholed_request_stream_times_out_into_a_reconnect() {
    trajectory_survives("blackhole:9", 1006);
}

#[test]
fn mixed_chaos_still_replays_to_the_reference_bits() {
    trajectory_survives("drop:4,duplicate:11,delay:17:s2c,corrupt:26", 1007);
}

#[test]
fn env_selected_chaos_preserves_the_trajectory() {
    // CI sweeps the matrix by exporting YF_CHAOS (see the serve
    // robustness job); unset, the case is a cheap pass.
    let Some(chaos) = std::env::var("YF_CHAOS").ok().filter(|s| !s.is_empty()) else {
        return;
    };
    trajectory_survives(&chaos, 1010);
}
