//! serve-remote: one trainer steps through a `RemoteTuner` against a
//! `yf-serve` subprocess that hosts 48 idle sessions besides its own.

use crate::inproc::step_rows;
use crate::quad::Quadratic;
use crate::report::{mean, mib, proc_status_kb, Report, Steal};
use crate::trace::{OptProbe, TaskProbe, Tracer};
use crate::train::{self, non_finite, same_bits, Timed};
use crate::{maybe_break, settle, setup_metric, Args, DirGuard, NetTimer, SETUP_REPS};
use std::cell::RefCell;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use yellowfin::YellowFin;
use yf_experiments::serve_client::{RemoteTuner, RemoteTunerConfig};
use yf_experiments::task::TrainTask;
use yf_experiments::trainer::{train_resumable, RunConfig, RunResult};
use yf_serve::{
    snapshot, Authority, Client, ClientConfig, ClientFrame, FilterSpec, OpenSpec, Outcome, Session,
};
use yf_wire::fsio;

const DIM: usize = 4096;
const IDLE_SESSIONS: usize = 48;
/// Nominal steps per second on the reference 2-core host.
const RATE: f64 = 190.0;

/// The session spec of `remote_tuner_steps_bitwise_like_the_in_process_tuner`:
/// an authority envelope wide enough that every tuned value passes
/// unclamped, so the served stream equals in-process YellowFin.
fn spec(session: &str) -> OpenSpec {
    OpenSpec {
        session: session.to_string(),
        optimizer: "yellowfin".to_string(),
        value: 1.0,
        dim: DIM,
        authority: Authority {
            max_lr_step: 1e9,
            max_momentum_step: 1.0,
            lr_max: 1e9,
            ..Authority::default()
        },
        filter: FilterSpec::default(),
    }
}

/// A running `yf-serve`; killed and reaped on drop.
struct ServerProc {
    child: Child,
    addr: SocketAddr,
}

impl ServerProc {
    /// Starts the server with only the address and snapshot directory
    /// set, and waits for it to print its address.
    fn start(bin: &Path, snapshot_dir: &Path) -> ServerProc {
        let mut child = Command::new(bin)
            .env("YF_SERVE_ADDR", "127.0.0.1:0")
            .env("YF_SERVE_SNAPSHOT_DIR", snapshot_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .unwrap_or_else(|e| panic!("starting {}: {e}", bin.display()));
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("yf-serve listening on ")
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => ServerProc { child, addr },
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                panic!("yf-serve did not announce its address (got {line:?})");
            }
        }
    }

    fn rss_kb(&self) -> Option<u64> {
        proc_status_kb(Some(self.child.id()), "VmRSS")
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What set-up leaves for the timed phase. Field order is drop order:
/// the clients hang up before the server is killed, and the snapshot
/// directory goes last.
struct Ready {
    remote: RemoteTuner,
    ping: Option<Client>,
    task: Quadratic,
    server: ServerProc,
    session_state_kb: f64,
    dir: DirGuard,
}

fn set_up(args: &Args, rep: usize) -> Ready {
    let dir = args.scratch(&format!("serve{rep}"));
    let snapshots = dir.path().join("snapshots");
    std::fs::create_dir_all(&snapshots).expect("creating snapshot directory");
    let server = ServerProc::start(&args.serve_bin, &snapshots);
    let rss_start = server.rss_kb();
    let mut task = Quadratic::new(args.seed, DIM);
    let (_, grads) = task.loss_grad_at(&task.init_params(), 0);
    {
        let mut idle = Client::connect_with(server.addr, &ClientConfig::default())
            .expect("connecting the idle-session client");
        for i in 0..IDLE_SESSIONS {
            let name = format!("idle-{i}");
            idle.open(spec(&name)).expect("opening an idle session");
            idle.measure(&name, 0, 0.0, &grads)
                .expect("feeding an idle session");
        }
    }
    let mut ping = Client::connect_with(server.addr, &ClientConfig::default())
        .expect("connecting the ping client");
    // The ping orders the read below after the idle client's hang-up.
    ping.ping(0).expect("ping");
    let grown = match (rss_start, server.rss_kb()) {
        (Some(a), Some(b)) => b as f64 - a as f64,
        _ => f64::NAN,
    };
    let remote =
        RemoteTuner::connect_with(server.addr, spec("trainer"), RemoteTunerConfig::default())
            .expect("connecting the trainer");
    Ready {
        remote,
        ping: args.trace.then_some(ping),
        task,
        server,
        session_state_kb: grown / IDLE_SESSIONS as f64,
        dir,
    }
}

/// In-process YellowFin on the same task and seed, with a local session
/// fed the measurement stream the remote tuner sends (the trainer never
/// sets a loss, so the frames carry 0): its result and the number of
/// measurements the session rejects.
fn reference(seed: u64, iters: usize) -> (RunResult, u64) {
    let mut session = Session::new(spec("trainer")).expect("valid spec");
    let mut rejected = 0;
    let tracer = Tracer::new();
    let task = Box::new(Quadratic::new(seed, DIM));
    let mut tap = TaskProbe::new(task, &tracer, "task.grad").with_tap(|step, _, g| {
        if !matches!(session.measure(step, 0.0, g), Ok(Outcome::Tuned { .. })) {
            rejected += 1;
        }
    });
    let mut opt = YellowFin::new(Default::default());
    let result = train_resumable(
        &mut tap,
        &mut opt,
        &RunConfig::plain(iters),
        None,
        0,
        |_| {},
    )
    .expect("fresh runs cannot fail to resume");
    drop(tap);
    (result, rejected)
}

pub fn run(args: &Args, report: &mut Report) {
    let iters = args.steps(RATE, 20);
    settle();
    let mut setups = Vec::new();
    let mut ready = None;
    for rep in 0..SETUP_REPS {
        // The previous set-up's server stops before the next starts.
        drop(ready.take());
        let t0 = NetTimer::start();
        ready = Some(set_up(args, rep));
        setups.push(t0.net_s());
    }
    let mut ready = ready.expect("at least one set-up");
    setup_metric(report, &setups);
    settle();

    let steal = Steal::start();
    let timed = train::run(
        &mut ready.task,
        &mut ready.remote,
        iters,
        0,
        |_| {},
        None,
        |_| {},
    );
    let server_kb = ready.server.rss_kb();
    step_rows(report, &timed, steal.share());
    let last = f64::from(*timed.result.losses.last().expect("steps ran"));
    report.metric("final_loss", last, iters);
    report.metric("server_rss_mb", mib(server_kb), 1);
    report.metric("peak_rss_mb", mib(proc_status_kb(None, "VmHWM")), 1);

    let (want, rejected) = reference(args.seed, iters);
    let degraded = ready.remote.degraded_steps();
    let bad = non_finite(&timed.result.losses);
    let params = maybe_break(
        timed.result.final_params.clone(),
        args.break_check && !args.trace,
    );
    report.check(
        "remote steps equal in-process YellowFin",
        same_bits(&params, &want.final_params),
        format!("{DIM} final parameters after {iters} steps, bitwise"),
    );
    report.check(
        "no degraded or rejected steps",
        degraded == 0 && rejected == 0,
        format!("{degraded} degraded, {rejected} rejected"),
    );
    report.attempted += iters as u64;
    report.failed += degraded + rejected + bad;

    if args.trace {
        // The replay doubles each step's work; half the steps keep the
        // traced run as long as the untraced one.
        let half = (iters / 2).max(1);
        let (want, _) = reference(args.seed, half);
        traced(args, report, &mut ready, &timed, &want, half);
    }
}

/// The traced run: a second trainer session on the same server, with
/// the step's measure frame replayed after each step through the public
/// functions the server calls.
fn traced(
    args: &Args,
    report: &mut Report,
    ready: &mut Ready,
    untraced: &Timed,
    want: &RunResult,
    iters: usize,
) {
    let tracer = Tracer::new();
    let name = "trainer-traced";
    let remote =
        RemoteTuner::connect_with(ready.server.addr, spec(name), RemoteTunerConfig::default())
            .expect("connecting the traced trainer");
    let mut opt = OptProbe::new(Box::new(remote), &tracer);
    let captured: RefCell<Vec<f32>> = RefCell::new(Vec::new());
    let task = Box::new(Quadratic::new(args.seed, DIM));
    let mut probe = TaskProbe::new(task, &tracer, "task.grad").with_tap(|_, _, g| {
        let mut buf = captured.borrow_mut();
        buf.clear();
        buf.extend_from_slice(g);
    });
    let mut session = Session::new(spec(name)).expect("valid spec");
    let ping = ready
        .ping
        .as_mut()
        .expect("traced set-up opens a ping client");
    let snap_path = ready.dir.path().join("replay.snap");
    let mut frame_bytes = 0usize;
    let mut snap_bytes = 0usize;
    let mut rejected = 0u64;
    let timed = train::run(
        &mut probe,
        &mut opt,
        iters,
        0,
        |_| {},
        Some(&tracer),
        |step| {
            let frame = ClientFrame::Measure {
                session: name.to_string(),
                step,
                loss: 0.0,
                grads: std::mem::take(&mut *captured.borrow_mut()),
            };
            let line = tracer.time("wire.encode", "remote.step", || frame.to_line());
            frame_bytes = line.len();
            let decoded = tracer.time("wire.decode", "remote.step", || {
                ClientFrame::from_line(&line)
            });
            let Ok(ClientFrame::Measure { grads, .. }) = decoded else {
                panic!("measure frame did not decode");
            };
            let out = tracer.time("serve.session_measure", "remote.step", || {
                session.measure(step, 0.0, &grads)
            });
            if !matches!(out, Ok(Outcome::Tuned { .. })) {
                rejected += 1;
            }
            let snap = tracer.time("serve.snapshot_encode", "remote.step", || {
                snapshot::encode(&session.snapshot())
            });
            snap_bytes = snap.len();
            tracer
                .time("fsio.write_sealed", "remote.step", || {
                    fsio::write_sealed(&snap_path, &snap)
                })
                .expect("writing the replay snapshot");
            tracer
                .time("serve.ping_rtt", "remote.step", || ping.ping(step + 1))
                .expect("ping");
            *captured.borrow_mut() = grads;
        },
    );
    drop(probe);
    let degraded = opt.inner.degraded_steps();
    let params = maybe_break(timed.result.final_params.clone(), args.break_check);
    report.check(
        "traced remote steps equal in-process YellowFin",
        same_bits(&params, &want.final_params),
        format!("{DIM} final parameters after {iters} steps, bitwise"),
    );
    report.check(
        "no degraded or rejected traced steps",
        degraded == 0 && rejected == 0,
        format!("{degraded} degraded, {rejected} rejected"),
    );
    report.attempted += iters as u64;
    report.failed += degraded + rejected + non_finite(&timed.result.losses);

    train::layer_rows(report, &tracer, &timed);
    train::overhead_row(report, &timed, untraced);
    let steps = iters as u64;
    let per = |n: &str| mean(&tracer.per_step_us(n, steps));
    let remote = report.value("core.combine_us");
    let parts = [
        ("wire.encode_us", per("wire.encode")),
        ("wire.decode_us", per("wire.decode")),
        ("serve.session_measure_us", per("serve.session_measure")),
        ("serve.snapshot_encode_us", per("serve.snapshot_encode")),
        ("fsio.write_sealed_us", per("fsio.write_sealed")),
        ("serve.ping_rtt_us", per("serve.ping_rtt")),
    ];
    let mut accounted = 0.0;
    for (metric, v) in parts {
        report.metric(metric, v, iters);
        // The trainer's shadow session runs the same measure as the
        // server's, so it counts twice on the step's path.
        accounted += if metric == "serve.session_measure_us" {
            2.0 * v
        } else {
            v
        };
    }
    report.metric("remote.step_us", remote, iters);
    report.metric("serve.unaccounted_us", remote - accounted, iters);
    report.metric("wire.measure_frame_bytes", frame_bytes as f64, iters);
    report.metric("serve.snapshot_bytes", snap_bytes as f64, iters);
    report.metric(
        "serve.session_state_kb",
        ready.session_state_kb,
        IDLE_SESSIONS,
    );
    if let Err(e) = tracer.write_jsonl(&args.trace_path()) {
        eprintln!("yf-benchmark: writing trace: {e}");
    }
}
