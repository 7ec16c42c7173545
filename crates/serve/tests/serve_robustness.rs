//! Robustness matrix for the serve subsystem: concurrency parity,
//! SIGKILL durability, protocol abuse, and backpressure shedding.
//!
//! The load-bearing contract is determinism: every hosted session is a
//! pure function of its spec and measurement stream, so each test
//! compares served [`Hyper`] streams bitwise against an in-process
//! [`Session`] replaying the same frames.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;
use yellowfin::measurements::GradVariance;
use yf_serve::registry::yellowfin_config;
use yf_serve::{
    snapshot, Authority, Client, ClientConfig, ClientError, FilterSpec, MeasureReply, OpenSpec,
    Outcome, ServeConfig, Server, ServerFrame, Session,
};
use yf_tensor::reduce;
use yf_tensor::rng::Pcg32;
use yf_wire::fsio;

const DIM: usize = 16;
const OPTIMIZERS: [&str; 4] = ["yellowfin", "momentum", "adam", "rmsprop"];

fn spec(name: &str, optimizer: &str) -> OpenSpec {
    OpenSpec {
        session: name.to_string(),
        optimizer: optimizer.to_string(),
        value: 0.1,
        dim: DIM,
        authority: Authority::default(),
        filter: FilterSpec::default(),
    }
}

/// A deterministic per-session measurement stream, with an occasional
/// exploding gradient so the quality filter's rejections are part of
/// the replayed trajectory.
fn stream(seed: u64, frames: usize) -> Vec<(f32, Vec<f32>)> {
    let mut rng = Pcg32::seed_stream(seed, 0x5e);
    (0..frames)
        .map(|i| {
            let scale = if i % 13 == 12 { 1e7 } else { 1.0 };
            let loss = rng.uniform();
            let grads = (0..DIM).map(|_| scale * (rng.uniform() - 0.5)).collect();
            (loss, grads)
        })
        .collect()
}

/// The uninterrupted in-process reference for one session.
fn reference(open: &OpenSpec, frames: &[(f32, Vec<f32>)]) -> Vec<Outcome> {
    let mut session = Session::new(open.clone()).unwrap();
    frames
        .iter()
        .enumerate()
        .map(|(i, (loss, grads))| session.measure(i as u64, *loss, grads).unwrap())
        .collect()
}

/// The `measure_stats` payloads `(loss, sumsq, var_sum)` a client holding
/// its own gradient moments sends for `frames`: a local stats-fed shadow
/// session gates each frame and only then sweeps it into the moments.
fn stats_stream(open: &OpenSpec, frames: &[(f32, Vec<f32>)]) -> Vec<(f32, f64, f64)> {
    let mut shadow = Session::new(open.clone()).unwrap();
    let mut moments = GradVariance::new(yellowfin_config(open.value).beta);
    frames
        .iter()
        .enumerate()
        .map(|(i, (loss, grads))| {
            let sumsq = reduce::tree_reduce(&reduce::block_sumsq(grads));
            let mut var_sum = 0.0;
            shadow
                .measure_swept(i as u64, *loss, sumsq, |scale| {
                    moments.observe_scaled(grads, scale, 1);
                    var_sum = moments.variance();
                    var_sum
                })
                .unwrap();
            (*loss, sumsq, var_sum)
        })
        .collect()
}

/// Sends frame `step` of a session as a gradient frame, or as the stats
/// frame of `stats` when the session is stats-fed.
fn send_frame(
    client: &mut Client,
    session: &str,
    step: usize,
    frames: &[(f32, Vec<f32>)],
    stats: Option<&[(f32, f64, f64)]>,
) -> MeasureReply {
    match stats {
        Some(stats) => {
            let (loss, sumsq, var_sum) = stats[step];
            client.measure_stats(session, step as u64, loss, sumsq, var_sum)
        }
        None => client.measure(session, step as u64, frames[step].0, &frames[step].1),
    }
    .unwrap()
}

fn reply_matches(reply: &MeasureReply, want: &Outcome, context: &str) {
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

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("yf-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn eight_concurrent_sessions_serve_bitwise_reference_streams() {
    // Eight clients stream interleaved frames into one server; every
    // session's served stream must match its in-process reference
    // bit-for-bit despite the shared compute permits and concurrent
    // combine calls. Each optimizer runs in two of the sessions.
    let dir = temp_dir("concurrent");
    let server = Server::start(ServeConfig {
        snapshot_dir: Some(dir.clone()),
        permits: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let handles: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let open = spec(&format!("c{i}"), OPTIMIZERS[i / 2 % OPTIMIZERS.len()]);
                let frames = stream(100 + i as u64, 50);
                let want = reference(&open, &frames);
                let mut client = Client::connect_with(addr, &ClientConfig::default()).unwrap();
                assert_eq!(client.open(open.clone()).unwrap(), 0);
                for (step, (loss, grads)) in frames.iter().enumerate() {
                    let reply = client
                        .measure(&open.session, step as u64, *loss, grads)
                        .unwrap();
                    reply_matches(&reply, &want[step], &format!("session c{i} step {step}"));
                }
                client.close_session(&open.session).unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn spawn_server_bin(dir: &std::path::Path) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_yf-serve"))
        .env("YF_SERVE_ADDR", "127.0.0.1:0")
        .env("YF_SERVE_SNAPSHOT_DIR", dir)
        .env("YF_NUM_THREADS", "2")
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .unwrap();
    let mut line = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut line)
        .unwrap();
    let addr = line
        .trim()
        .rsplit(' ')
        .next()
        .expect("listen line ends with the address")
        .to_string();
    assert!(
        line.starts_with("yf-serve listening on "),
        "unexpected banner: {line:?}"
    );
    (child, addr)
}

#[test]
fn sigkilled_server_resumes_every_session_bitwise() {
    // The acceptance bar: 8 concurrent sessions, the server SIGKILL'd
    // mid-stream, restarted from its snapshot directory — and every
    // resumed session's subsequent Hyper stream is bitwise identical to
    // an uninterrupted run. The two yellowfin sessions k0 and k4 are fed
    // measure_stats frames, and must resume just as the gradient-fed
    // sessions do.
    const TOTAL: usize = 60;
    const BEFORE_KILL: usize = 25;
    let dir = temp_dir("sigkill");
    std::fs::create_dir_all(&dir).unwrap();
    let (mut child, addr) = spawn_server_bin(&dir);

    // Phase 1: stream the first chunk of every session concurrently.
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let open = spec(&format!("k{i}"), OPTIMIZERS[i % OPTIMIZERS.len()]);
                let frames = stream(200 + i as u64, TOTAL);
                let stats = (i % 4 == 0).then(|| stats_stream(&open, &frames));
                let mut client = Client::connect(addr.as_str()).unwrap();
                assert_eq!(client.open(open.clone()).unwrap(), 0);
                for step in 0..BEFORE_KILL {
                    send_frame(&mut client, &open.session, step, &frames, stats.as_deref());
                }
                // No close: the connection dies with the server.
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // SIGKILL mid-stream: no drain, no flush, nothing graceful. Every
    // acknowledged measurement was durable before its reply, so each
    // session's snapshot plus its log is complete up to step
    // BEFORE_KILL — and the log holds frames, so the restart replays it.
    child.kill().unwrap();
    child.wait().unwrap();
    for i in 0..8 {
        let log = std::fs::metadata(dir.join(format!("k{i}.log"))).unwrap();
        assert!(log.len() > 0, "session k{i} was killed mid-log");
    }

    // Phase 2: a fresh server process over the same snapshot directory.
    let (mut child, addr) = spawn_server_bin(&dir);
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let open = spec(&format!("k{i}"), OPTIMIZERS[i % OPTIMIZERS.len()]);
                let frames = stream(200 + i as u64, TOTAL);
                let stats = (i % 4 == 0).then(|| stats_stream(&open, &frames));
                let want = reference(&open, &frames);
                let mut client = Client::connect(addr.as_str()).unwrap();
                let resume = client.open(open.clone()).unwrap();
                assert_eq!(
                    resume, BEFORE_KILL as u64,
                    "session k{i} must resume exactly where it was acknowledged"
                );
                for (step, want) in want.iter().enumerate().skip(resume as usize) {
                    let reply =
                        send_frame(&mut client, &open.session, step, &frames, stats.as_deref());
                    reply_matches(&reply, want, &format!("resumed session k{i} step {step}"));
                }
                client.close_session(&open.session).unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    child.kill().unwrap();
    child.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_append_answers_with_an_error_and_the_reopen_replays_bitwise() {
    // A measurement whose log append fails must not be acknowledged:
    // the client gets an error frame, the session is unloaded, and a
    // re-open resumes from the last durable step, from which the
    // replayed stream matches the reference bitwise.
    let dir = temp_dir("append-fail");
    let server = Server::start(ServeConfig {
        snapshot_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let open = spec("append", "yellowfin");
    let frames = stream(55, 20);
    let want = reference(&open, &frames);
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.open(open.clone()).unwrap(), 0);
    for (step, want) in want.iter().enumerate().take(6) {
        let reply = send_frame(&mut client, "append", step, &frames, None);
        reply_matches(&reply, want, &format!("step {step}"));
    }
    // A re-open replays the log, and the re-opened log syncs its
    // directory before its first append writes: with the directory
    // moved away, that sync — and so the append of step 6 — fails.
    client.close_session("append").unwrap();
    assert_eq!(client.open(open.clone()).unwrap(), 6);
    let moved = dir.with_extension("moved");
    let _ = std::fs::remove_dir_all(&moved);
    std::fs::rename(&dir, &moved).unwrap();
    match client.measure("append", 6, frames[6].0, &frames[6].1) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("log append failed"), "{msg}"),
        other => panic!("an unlogged measurement must not be acknowledged, got {other:?}"),
    }
    std::fs::rename(&moved, &dir).unwrap();
    assert_eq!(
        client.open(open).unwrap(),
        6,
        "the re-open resumes at the last durable step"
    );
    for (step, want) in want.iter().enumerate().skip(6) {
        let reply = send_frame(&mut client, "append", step, &frames, None);
        reply_matches(&reply, want, &format!("replayed step {step}"));
    }
    client.close_session("append").unwrap();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_compaction_cut_short_before_emptying_the_log_resumes_bitwise() {
    // A compaction seals the new snapshot and then empties the log. A
    // crash between the two leaves a snapshot at step 12 beside a log
    // of frames below it, which the re-open must skip, not re-apply.
    let dir = temp_dir("compaction");
    let server = Server::start(ServeConfig {
        snapshot_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let open = spec("gap", "yellowfin");
    let frames = stream(66, 30);
    let stats = stats_stream(&open, &frames);
    let want = reference(&open, &frames);
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.open(open.clone()).unwrap(), 0);
    for step in 0..11 {
        send_frame(&mut client, "gap", step, &frames, Some(&stats));
    }
    client.close_session("gap").unwrap();
    assert!(std::fs::metadata(dir.join("gap.log")).unwrap().len() > 0);
    let mut ahead = Session::new(open.clone()).unwrap();
    for (step, &(loss, sumsq, var_sum)) in stats.iter().enumerate().take(12) {
        ahead
            .measure_stats(step as u64, loss, sumsq, var_sum)
            .unwrap();
    }
    fsio::write_sealed(
        &dir.join("gap.session"),
        &snapshot::encode(&ahead.snapshot()),
    )
    .unwrap();
    assert_eq!(client.open(open).unwrap(), 12);
    for (step, want) in want.iter().enumerate().skip(12) {
        let reply = send_frame(&mut client, "gap", step, &frames, Some(&stats));
        reply_matches(
            &reply,
            want,
            &format!("step {step} after the cut compaction"),
        );
    }
    client.close_session("gap").unwrap();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_out_of_range_snapshot_draws_an_error_at_open_and_the_server_stays_healthy() {
    // A sealed snapshot whose gate block holds a window the gate cannot
    // be built with must be refused at open with an error frame. A panic
    // there would poison the session table, and with it every later
    // ping, open and drain.
    let dir = temp_dir("out-of-range");
    std::fs::create_dir_all(&dir).unwrap();
    let frames = stream(77, 3);
    let bad = spec("bad-gate", "yellowfin");
    let mut sealed = Session::new(bad.clone()).unwrap();
    for (step, (loss, grads)) in frames.iter().enumerate() {
        sealed.measure(step as u64, *loss, grads).unwrap();
    }
    let text = snapshot::encode(&sealed.snapshot());
    let text = text.replace("\nwindow_width 20\n", "\nwindow_width 0\n");
    assert!(text.contains("\nwindow_width 0\n"));
    fsio::write_sealed(&dir.join("bad-gate.session"), &text).unwrap();
    let server = Server::start(ServeConfig {
        snapshot_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    match client.open(bad) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("window_width"), "{msg}"),
        other => panic!("expected an error frame, got {other:?}"),
    }
    // New connections are still served: a ping, then another session.
    let mut fresh = Client::connect(server.local_addr()).unwrap();
    fresh.ping(7).unwrap();
    let mut other = Client::connect(server.local_addr()).unwrap();
    let healthy = spec("healthy", "yellowfin");
    let want = reference(&healthy, &frames);
    assert_eq!(other.open(healthy).unwrap(), 0);
    for (step, want) in want.iter().enumerate() {
        let reply = send_frame(&mut other, "healthy", step, &frames, None);
        reply_matches(&reply, want, &format!("healthy step {step}"));
    }
    assert_eq!(other.drain().unwrap(), 1);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dropped_connection_detaches_sessions_and_reconnect_resumes() {
    // A client that vanishes (no close frame) must not strand its
    // session: the server detaches it with a snapshot and a later
    // connection resumes it bit-exactly.
    let dir = temp_dir("reconnect");
    let server = Server::start(ServeConfig {
        snapshot_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let open = spec("drop", "yellowfin");
    let frames = stream(777, 40);
    let want = reference(&open, &frames);

    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.open(open.clone()).unwrap(), 0);
    for (step, (loss, grads)) in frames.iter().enumerate().take(18) {
        client.measure("drop", step as u64, *loss, grads).unwrap();
    }
    drop(client); // hang up without closing the session

    // The server detaches on reader EOF; retry until the session is
    // re-openable (attached sessions refuse a second connection).
    let mut client = Client::connect(addr).unwrap();
    let mut resume = None;
    for _ in 0..100 {
        match client.open(open.clone()) {
            Ok(step) => {
                resume = Some(step);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    let resume = resume.expect("session must detach after the connection drops");
    assert_eq!(resume, 18);
    for (step, (loss, grads)) in frames.iter().enumerate().skip(18) {
        let reply = client.measure("drop", step as u64, *loss, grads).unwrap();
        reply_matches(&reply, &want[step], &format!("reconnected step {step}"));
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicated_measure_frames_are_answered_idempotently() {
    // A network that duplicates frames (or a client re-sending after a
    // lost reply) must not double-advance the session: the re-sent
    // previous step is answered from the cached verdict, bitwise equal
    // to the first reply, and the trajectory continues unperturbed.
    let server = Server::start(ServeConfig::default()).unwrap();
    let stream_tcp = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream_tcp.try_clone().unwrap());
    let mut writer = stream_tcp;
    let mut send = |frame: &yf_serve::ClientFrame| {
        writeln!(writer, "{}", frame.to_line()).unwrap();
        writer.flush().unwrap();
    };
    let recv = |reader: &mut BufReader<TcpStream>| -> ServerFrame {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        ServerFrame::from_line(line.trim_end()).unwrap()
    };

    let open = spec("dup", "yellowfin");
    let frames = stream(31, 6);
    let want = reference(&open, &frames);
    send(&yf_serve::ClientFrame::Open { spec: open });
    assert!(matches!(
        recv(&mut reader),
        ServerFrame::Opened { step: 0, .. }
    ));

    let measure = |step: usize| yf_serve::ClientFrame::Measure {
        session: "dup".to_string(),
        step: step as u64,
        loss: frames[step].0,
        grads: frames[step].1.clone(),
    };
    send(&measure(0));
    let first = recv(&mut reader);
    // The same frame again: answered from the cache, not re-processed.
    send(&measure(0));
    let replayed = recv(&mut reader);
    assert_eq!(first, replayed, "replayed verdict must be bitwise cached");
    // The replay window is one step deep (the client keeps at most one
    // frame in flight): once step 1 advances the session, a duplicate
    // of step 0 is answered with an error — but still never applied.
    send(&measure(1));
    let second = recv(&mut reader);
    send(&measure(0));
    assert!(
        matches!(recv(&mut reader), ServerFrame::Error { .. }),
        "a two-back duplicate falls outside the replay window"
    );
    match (&second, &want[1]) {
        (ServerFrame::Tuned { step, .. }, _) => assert_eq!(*step, 1),
        (ServerFrame::Rejected { step, .. }, _) => assert_eq!(*step, 1),
        (other, w) => panic!("step 1: got {other:?}, want {w:?}"),
    }
    // The rest of the stream still matches the uninterrupted reference.
    for (step, want) in want.iter().enumerate().skip(2) {
        send(&measure(step));
        match (recv(&mut reader), want) {
            (
                ServerFrame::Tuned { hyper, clamped, .. },
                Outcome::Tuned {
                    hyper: w,
                    clamped: wc,
                },
            ) => {
                assert_eq!(hyper.lr.to_bits(), w.lr.to_bits(), "step {step}");
                assert_eq!(clamped, *wc, "step {step}");
            }
            (ServerFrame::Rejected { .. }, Outcome::Rejected { .. }) => {}
            (other, w) => panic!("step {step}: got {other:?}, want {w:?}"),
        }
    }
}

#[test]
fn a_second_open_takes_the_session_over_and_fences_the_old_writer() {
    // A client behind a blackholed connection never sees EOF, so the
    // server may still consider its session attached when the client's
    // replacement connection re-opens it. The newest open wins: the old
    // connection's frames are fenced off with an error (never applied to
    // the session) and the new connection proceeds in lockstep.
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    let open = spec("fence", "momentum");
    let frames = stream(97, 10);
    let want = reference(&open, &frames);

    let mut a = Client::connect(addr).unwrap();
    assert_eq!(a.open(open.clone()).unwrap(), 0);
    for (step, (loss, grads)) in frames.iter().enumerate().take(4) {
        a.measure("fence", step as u64, *loss, grads).unwrap();
    }

    // B takes over while A still holds its (stale) attachment.
    let mut b = Client::connect(addr).unwrap();
    assert_eq!(b.open(open.clone()).unwrap(), 4, "takeover resumes at 4");

    // A's next frame must be fenced, not double-drive the session.
    let (loss, grads) = &frames[4];
    match a.measure("fence", 4, *loss, grads) {
        Err(yf_serve::ClientError::Server(msg)) => {
            assert!(msg.contains("taken over"), "unexpected fence error: {msg}")
        }
        Ok(reply) => panic!("fenced writer must error, got {reply:?}"),
        Err(other) => panic!("expected a server error, got {other}"),
    }

    // B's stream continues bitwise on the reference trajectory.
    for (step, (loss, grads)) in frames.iter().enumerate().skip(4) {
        let reply = b.measure("fence", step as u64, *loss, grads).unwrap();
        reply_matches(&reply, &want[step], &format!("takeover step {step}"));
    }
    b.close_session("fence").unwrap();
}

#[test]
fn malformed_frames_answer_with_an_error_and_the_connection_survives() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    let mut roundtrip = |line: &str| -> ServerFrame {
        writeln!(writer, "{line}").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        ServerFrame::from_line(reply.trim_end()).unwrap()
    };

    for garbage in [
        "this is not json",
        "{\"type\":\"measure\"}",
        "{\"type\":\"warp\",\"session\":\"x\"}",
        "{\"type\":\"open\",\"session\":\"\",\"optimizer\":\"sgd\",\"value\":\"3dcccccd\",\"dim\":\"4\"}",
    ] {
        match roundtrip(garbage) {
            ServerFrame::Error { .. } => {}
            other => panic!("expected an error frame for {garbage:?}, got {other:?}"),
        }
    }
    // Sizes are the peer's choice, so an open must not allocate by
    // them: each of these is answered, one way or the other, without
    // aborting the server or poisoning its session registry.
    for (i, (dim, window)) in [(1 << 40, 20), (1 << 62, 20), (DIM, 1 << 40), (DIM, 1 << 61)]
        .into_iter()
        .enumerate()
    {
        let mut open = spec(&format!("huge-{i}"), "yellowfin");
        open.dim = dim;
        open.filter.window = window;
        let line = yf_serve::ClientFrame::Open { spec: open }.to_line();
        match roundtrip(&line) {
            ServerFrame::Opened { .. } | ServerFrame::Error { .. } => {}
            other => panic!("expected opened or error for {line:?}, got {other:?}"),
        }
    }
    // The connection is still serviceable after every rejected frame.
    match roundtrip("{\"type\":\"ping\",\"token\":41}") {
        ServerFrame::Pong { token } => assert_eq!(token, 41),
        other => panic!("expected pong, got {other:?}"),
    }
    // A line that is not UTF-8 is answered like any malformed frame,
    // and the ping behind it still gets its pong.
    writer
        .write_all(b"\xff\xfe not utf8\n{\"type\":\"ping\",\"token\":42}\n")
        .unwrap();
    writer.flush().unwrap();
    let mut next = || {
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        ServerFrame::from_line(reply.trim_end()).unwrap()
    };
    match next() {
        ServerFrame::Error { message, .. } => assert!(message.contains("UTF-8"), "{message}"),
        other => panic!("expected an error frame for a non-UTF-8 line, got {other:?}"),
    }
    match next() {
        ServerFrame::Pong { token } => assert_eq!(token, 42),
        other => panic!("expected pong, got {other:?}"),
    }
    // And the server still hosts new sessions on new connections.
    let open = spec("after-abuse", "yellowfin");
    let frames = crate::stream(9, 1);
    let want = reference(&open, &frames);
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.open(open).unwrap(), 0);
    let reply = client
        .measure("after-abuse", 0, frames[0].0, &frames[0].1)
        .unwrap();
    reply_matches(&reply, &want[0], "measure after the oversized opens");
}

#[test]
fn an_open_asking_for_the_binary_dialect_gets_a_plain_opened_and_json_service() {
    // A client built when the server still spoke a binary dialect asks
    // for it with "wire":"binary" in its open. Its negotiation reads a
    // plain opened as "JSON only", so that is exactly what it must get,
    // and its JSON measurements are served bitwise like any others.
    let server = Server::start(ServeConfig::default()).unwrap();
    let stream_tcp = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream_tcp.try_clone().unwrap());
    let mut writer = stream_tcp;
    let open = spec("legacy", "yellowfin");
    let line = yf_serve::ClientFrame::Open { spec: open.clone() }.to_line();
    let line = line.strip_suffix('}').unwrap();
    writeln!(writer, "{line},\"wire\":\"binary\"}}").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert_eq!(
        reply,
        "{\"type\":\"opened\",\"session\":\"legacy\",\"step\":0}\n"
    );

    let frames = stream(17, 3);
    let want = reference(&open, &frames);
    for (step, (loss, grads)) in frames.iter().enumerate() {
        let measure = yf_serve::ClientFrame::Measure {
            session: "legacy".to_string(),
            step: step as u64,
            loss: *loss,
            grads: grads.clone(),
        };
        writeln!(writer, "{}", measure.to_line()).unwrap();
        reply.clear();
        reader.read_line(&mut reply).unwrap();
        let got = match ServerFrame::from_line(reply.trim_end()).unwrap() {
            ServerFrame::Tuned {
                step: t,
                hyper,
                clamped,
                ..
            } if t == step as u64 => MeasureReply::Tuned { hyper, clamped },
            other => panic!("step {step}: expected a hyper frame, got {other:?}"),
        };
        reply_matches(&got, &want[step], &format!("legacy client step {step}"));
    }
}

#[test]
fn slow_readers_are_shed_and_the_server_stays_healthy() {
    // A client that writes frames but never reads replies must be
    // disconnected once its bounded outbound queue fills — not allowed
    // to wedge a compute permit or grow an unbounded buffer.
    let server = Server::start(ServeConfig {
        outbound_queue: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();

    let slow = TcpStream::connect(addr).unwrap();
    slow.set_nodelay(true).unwrap();
    let mut writer = slow.try_clone().unwrap();
    let ping = "{\"type\":\"ping\",\"token\":7}\n";
    let mut shed = false;
    for _ in 0..2_000_000 {
        if writer.write_all(ping.as_bytes()).is_err() {
            shed = true;
            break;
        }
    }
    assert!(shed, "the unread connection must eventually be shed");

    // The server survives the shedding and serves new clients.
    let mut client = Client::connect(addr).unwrap();
    client.ping(9).unwrap();
    let open = spec("after-shed", "momentum");
    assert_eq!(client.open(open).unwrap(), 0);
    let (loss, grads) = &stream(5, 1)[0];
    assert!(matches!(
        client.measure("after-shed", 0, *loss, grads).unwrap(),
        MeasureReply::Tuned { .. }
    ));
}
