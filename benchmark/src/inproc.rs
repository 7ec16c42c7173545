//! resnet-train and tuner-wide: `train_resumable` with `YellowFin`, in
//! process.

use crate::model;
use crate::quad::Quadratic;
use crate::report::{live_rss_kb, median, mib, percentile, proc_status_kb, Report, Steal};
use crate::trace::{OptProbe, TaskProbe, Tracer};
use crate::train::{self, non_finite, same_bits, Timed};
use crate::{maybe_break, settle, setup_metric, Args, NetTimer, SETUP_REPS};
use std::time::Instant;
use yellowfin::YellowFin;
use yf_experiments::task::TrainTask;
use yf_experiments::workloads;
use yf_optim::Optimizer;

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    /// The fig8 CIFAR10-like ResNet.
    Resnet,
    /// The noisy quadratic at 2^20 parameters.
    Tuner,
}

/// Nominal steps per second on the reference 2-core host; a run's step
/// count is sized from it and `--seconds`.
const RESNET_RATE: f64 = 380.0;
const TUNER_RATE: f64 = 150.0;
const TUNER_DIM: usize = 1 << 20;
/// resnet-train trains many short runs back to back, each on its own
/// seed: the loss of one long run falls towards 0 and differs by a
/// factor of 20 between seeds, while the mean over many 100-step runs
/// moves by about 1%.
const RESNET_RUN: usize = 100;
/// Steps of the throwaway run that warms the pool, the allocator and
/// the code before the timed phase.
const WARMUP: usize = 20;

/// `(runs, steps per run)`.
fn plan(kind: Kind, args: &Args) -> (usize, usize) {
    match kind {
        Kind::Resnet => ((args.steps(RESNET_RATE, 0) / RESNET_RUN).max(1), RESNET_RUN),
        Kind::Tuner => (1, args.steps(TUNER_RATE, 20)),
    }
}

fn run_seed(args: &Args, run: usize) -> u64 {
    args.seed.wrapping_mul(1_000_003).wrapping_add(run as u64)
}

/// The task of run `run`; with a tracer, wrapped so its layers are
/// timed (resnet-train on the rebuilt model).
fn build<'t>(
    kind: Kind,
    args: &Args,
    run: usize,
    tracer: Option<&'t Tracer>,
) -> Box<dyn TrainTask + 't> {
    let seed = run_seed(args, run);
    match (kind, tracer) {
        (Kind::Resnet, None) => workloads::cifar10_like(seed),
        (Kind::Resnet, Some(t)) => Box::new(model::cifar10(seed, t)),
        (Kind::Tuner, None) => Box::new(Quadratic::new(seed, TUNER_DIM)),
        (Kind::Tuner, Some(t)) => Box::new(TaskProbe::new(
            Box::new(Quadratic::new(seed, TUNER_DIM)),
            t,
            "task.grad",
        )),
    }
}

fn optimizer() -> YellowFin {
    YellowFin::new(Default::default())
}

/// resnet-train: the mean over runs of each run's mean loss over its
/// last tenth of steps. Quadratic: the loss at the last step.
fn final_loss(kind: Kind, losses: &[f32], steps: usize) -> f64 {
    let tail = match kind {
        Kind::Resnet => (steps / 10).max(1),
        Kind::Tuner => 1,
    };
    let tails: Vec<f64> = losses
        .chunks(steps)
        .flat_map(|run| &run[run.len() - tail..])
        .map(|&l| f64::from(l))
        .collect();
    tails.iter().sum::<f64>() / tails.len() as f64
}

/// The step rows of a timed phase over which the host stole `steal`
/// (a [`Steal`] share), all net of that steal. The wall-clock figures
/// are printed beside them.
pub fn step_rows(report: &mut Report, timed: &Timed, steal: f64) {
    let net = timed.net_ms();
    let n = net.len();
    report.metric(
        "train_steps_per_s",
        n as f64 / (timed.wall_s * (1.0 - steal)),
        n,
    );
    report.metric("step_p50_ms", median(&net), n);
    report.metric("step_p90_ms", percentile(&net, 90.0), n);
    println!(
        "# wall clock, steal included: {:.2} steps/s, p50 {:.4} ms, p90 {:.4} ms; host steal {:.1}%",
        n as f64 / timed.wall_s,
        median(&timed.step_ms),
        percentile(&timed.step_ms, 90.0),
        100.0 * steal
    );
}

/// Trains `runs` runs of `steps` steps back to back. The first run's task and
/// optimizer come from set-up; later runs build their own, which is
/// part of training them. With a tracer, runs are traced, resnet-train
/// on rebuilt models. `rss_kb` receives this process's VmRSS while the
/// last run's tuner is still alive.
fn train_runs<'t>(
    kind: Kind,
    args: &Args,
    (runs, steps): (usize, usize),
    first: (Box<dyn TrainTask + 't>, YellowFin),
    tracer: Option<&'t Tracer>,
    rss_kb: &mut Option<u64>,
) -> Timed {
    let start = Instant::now();
    let mut first = Some(first);
    let mut all: Option<Timed> = None;
    for run in 0..runs {
        let (mut task, opt) = first
            .take()
            .unwrap_or_else(|| (build(kind, args, run, tracer), optimizer()));
        let timed = match tracer {
            None => {
                let mut opt = opt;
                train::run(task.as_mut(), &mut opt, steps, 0, |_| {}, None, |_| {})
            }
            Some(t) => {
                t.set_base((run * steps) as u64);
                let mut opt = OptProbe::new(Box::new(opt) as Box<dyn Optimizer>, t);
                train::run(task.as_mut(), &mut opt, steps, 0, |_| {}, Some(t), |_| {})
            }
        };
        if run + 1 == runs {
            *rss_kb = live_rss_kb();
        }
        match all.as_mut() {
            None => all = Some(timed),
            Some(a) => a.append(timed),
        }
    }
    let mut all = all.expect("at least one run");
    all.wall_s = start.elapsed().as_secs_f64();
    all
}

pub fn run(kind: Kind, args: &Args, report: &mut Report) {
    let (runs, steps) = plan(kind, args);
    settle();
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        drop(ready.take());
        let t0 = NetTimer::start();
        {
            let mut task = build(kind, args, 0, None);
            let mut opt = optimizer();
            train::run(task.as_mut(), &mut opt, WARMUP, 0, |_| {}, None, |_| {});
        }
        ready = Some((build(kind, args, 0, None), optimizer()));
        setups.push(t0.net_s());
    }
    setup_metric(report, &setups);
    settle();

    let mut rss_kb = None;
    let ready = ready.expect("at least one set-up");
    let steal = Steal::start();
    let timed = train_runs(kind, args, (runs, steps), ready, None, &mut rss_kb);
    step_rows(report, &timed, steal.share());
    let n = timed.step_ms.len();
    report.metric(
        "final_loss",
        final_loss(kind, &timed.result.losses, steps),
        n,
    );
    // The tuner runs in this process, so this process holds its state.
    report.metric("server_rss_mb", mib(rss_kb), 1);
    let losses = maybe_break(timed.result.losses.clone(), args.break_check && !args.trace);
    let bad = non_finite(&losses);
    report.check("losses are finite", bad == 0, format!("{bad} non-finite"));
    report.attempted += losses.len() as u64;
    report.failed += bad;

    if args.trace {
        // Half the work: the trace costs a second pass over the steps.
        let half = match kind {
            Kind::Resnet => ((runs / 2).max(1), steps),
            Kind::Tuner => (1, (steps / 2).max(1)),
        };
        traced(kind, args, report, &timed, half);
    }
    report.metric("peak_rss_mb", mib(proc_status_kb(None, "VmHWM")), 1);
}

/// The traced run: the first `planned` runs and steps again, with every
/// layer call wrapped. Its losses must equal the untraced run's bitwise.
fn traced(kind: Kind, args: &Args, report: &mut Report, untraced: &Timed, planned: (usize, usize)) {
    if kind == Kind::Resnet {
        let check = Tracer::new();
        let ok = model::check_rebuild(
            &mut model::cifar10(run_seed(args, 0), &check),
            build(kind, args, 0, None).as_mut(),
        );
        report.check("rebuilt model matches loss_grad_at", ok, "step 0, bitwise");
    }
    let tracer = Tracer::new();
    let first = (build(kind, args, 0, Some(&tracer)), optimizer());
    let timed = train_runs(kind, args, planned, first, Some(&tracer), &mut None);
    let losses = maybe_break(timed.result.losses.clone(), args.break_check);
    let prefix = &untraced.result.losses[..losses.len().min(untraced.result.losses.len())];
    report.check(
        "traced run equals untraced run",
        same_bits(&losses, prefix),
        format!("{} losses, bitwise", losses.len()),
    );
    let bad = non_finite(&losses);
    report.attempted += losses.len() as u64;
    report.failed += bad;
    train::layer_rows(report, &tracer, &timed);
    train::overhead_row(report, &timed, untraced);
    if let Err(e) = tracer.write_jsonl(&args.trace_path()) {
        eprintln!("yf-benchmark: writing trace: {e}");
    }
}
