//! lstm-sweep: `fleet::run_fleet` with the default `FleetConfig` over
//! the fig5 char-LSTM, and one of its cells replayed in process.

use crate::model;
use crate::report::{live_rss_kb, mean, median, mib, percentile, proc_status_kb, Report};
use crate::trace::{OptProbe, Tracer};
use crate::train::{self, non_finite, Timed};
use crate::{maybe_break, settle, setup_metric, Args, NetTimer, SETUP_REPS};
use std::path::Path;
use std::process::Command;
use yf_experiments::fleet::{
    checkpoint_path, codec, fsio, registry, result_path, run_fleet, FleetConfig, FleetSpec,
};
use yf_experiments::task::TrainTask;
use yf_optim::Optimizer;

/// Steps per cell for each second of `--seconds`: each of the two
/// workers runs two cells at ~550 steps/s on the reference host.
const CELL_RATE: f64 = 275.0;
const WARMUP: usize = 20;
/// The replayed cell: the first lr factor with the first seed.
const REPLAYED: usize = 0;

fn spec(args: &Args) -> FleetSpec {
    let base = args.seed.wrapping_mul(2);
    FleetSpec {
        task: "ts".to_string(),
        opt: "yellowfin".to_string(),
        values: vec![1.0, 0.5],
        seeds: vec![base, base.wrapping_add(1)],
        iters: args.steps(CELL_RATE, 40),
        eval_every: 0,
        window: 20,
    }
}

fn build_cell(spec: &FleetSpec) -> (Box<dyn TrainTask>, Box<dyn Optimizer>) {
    let task = registry::task_builder(&spec.task).expect("registered task");
    let opt = registry::opt_builder(&spec.opt).expect("registered optimizer");
    (task(spec.seeds[REPLAYED]), opt(spec.values[REPLAYED]))
}

/// Kills any process a failed sweep left behind, whichever thread of
/// this process spawned it.
struct Reaper;

impl Drop for Reaper {
    fn drop(&mut self) {
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return;
        };
        for task in tasks.flatten() {
            let Ok(list) = std::fs::read_to_string(task.path().join("children")) else {
                continue;
            };
            for pid in list.split_whitespace() {
                let _ = Command::new("kill").args(["-KILL", pid]).status();
            }
        }
    }
}

/// Replays the cell the way a fleet worker runs it, sealing a
/// checkpoint every `checkpoint_every` steps into `dir`. With a tracer,
/// the checkpoint's encode and sealed write are spans.
fn replay(
    spec: &FleetSpec,
    dir: &Path,
    task: &mut dyn TrainTask,
    opt: &mut dyn Optimizer,
    tracer: Option<&Tracer>,
) -> (Timed, usize) {
    let path = checkpoint_path(dir, REPLAYED);
    let mut bytes = 0;
    let timed = train::run(
        task,
        opt,
        spec.iters,
        FleetConfig::default().checkpoint_every,
        |ckpt| {
            let start = tracer.map_or(0, |t| t.now());
            let encoded = codec::encode_checkpoint(ckpt);
            bytes = encoded.len();
            let write = || fsio::write_sealed(&path, &encoded).expect("sealing a checkpoint");
            match tracer {
                Some(t) => {
                    t.time("fsio.write_sealed", "fleet.checkpoint", write);
                    t.record("fleet.checkpoint", "trainer.step", start, t.now());
                }
                None => write(),
            }
        },
        tracer,
        |_| {},
    );
    (timed, bytes)
}

fn sealed_result_matches(dir: &Path, timed: &Timed, brk: bool) -> bool {
    let mut result = timed.result.clone();
    result.losses = maybe_break(result.losses, brk);
    fsio::read_sealed(&result_path(dir, REPLAYED))
        .is_ok_and(|text| text == codec::encode_result(&result))
}

pub fn run(args: &Args, report: &mut Report) {
    let _reaper = Reaper;
    let spec = spec(args);
    let cells = spec.values.len() * spec.seeds.len();
    let cfg = FleetConfig::default();
    settle();
    let mut setups = Vec::new();
    let mut ready = None;
    for rep in 0..SETUP_REPS {
        drop(ready.take());
        let t0 = NetTimer::start();
        let dir = args.scratch(&format!("fleet{rep}"));
        let (mut task, mut opt) = build_cell(&spec);
        train::run(task.as_mut(), opt.as_mut(), WARMUP, 0, |_| {}, None, |_| {});
        ready = Some(dir);
        setups.push(t0.net_s());
    }
    let dir = ready.expect("at least one set-up");
    setup_metric(report, &setups);
    settle();

    let t0 = NetTimer::start();
    let fleet = run_fleet(&spec, &cfg, &dir.path().join("sweep"), &args.worker_bin)
        .unwrap_or_else(|e| panic!("sweep failed: {e}"));
    let (sweep_s, steal) = t0.read();
    let sweep_dir = dir.path().join("sweep");
    let steps = cells * spec.iters;
    report.metric(
        "train_steps_per_s",
        steps as f64 / (sweep_s * (1.0 - steal)),
        steps,
    );
    println!(
        "# wall clock, steal included: {:.2} steps/s; host steal {:.1}%",
        steps as f64 / sweep_s,
        100.0 * steal
    );
    let last = fleet.outcome.best_curve.last().copied().unwrap_or(f64::NAN);
    report.metric("final_loss", last, fleet.outcome.best_curve.len());
    report.attempted += (fleet.executed_cells as u64) + u64::from(fleet.retries);
    report.failed += u64::from(fleet.retries);
    report.check(
        "no retried cells",
        fleet.retries == 0,
        format!(
            "{} retries over {} cells",
            fleet.retries, fleet.executed_cells
        ),
    );

    // The replay is the single-worker baseline, and its step times are
    // the in-process step times of the sweep's model.
    let (mut task, mut opt) = build_cell(&spec);
    let replay_dir = args.scratch("replay");
    let (timed, _) = replay(&spec, replay_dir.path(), task.as_mut(), opt.as_mut(), None);
    // The workers are gone; the replay's tuner is the one this process
    // hosts, and it is still alive here.
    report.metric("server_rss_mb", mib(live_rss_kb()), 1);
    drop((task, opt));
    let net = timed.net_ms();
    report.metric("step_p50_ms", median(&net), net.len());
    report.metric("step_p90_ms", percentile(&net, 90.0), net.len());
    report.check(
        "replayed cell equals the fleet's sealed result",
        sealed_result_matches(&sweep_dir, &timed, args.break_check && !args.trace),
        format!("cell {REPLAYED}, {} steps, bitwise", spec.iters),
    );
    let bad = non_finite(&timed.result.losses);
    report.check("losses are finite", bad == 0, format!("{bad} non-finite"));

    if args.trace {
        traced(
            args,
            report,
            &spec,
            &sweep_dir,
            replay_dir.path(),
            &timed,
            sweep_s,
        );
        let journal = std::fs::read_to_string(sweep_dir.join("journal.jsonl")).unwrap_or_default();
        let events = journal.lines().filter(|l| !l.trim().is_empty()).count();
        report.metric("fleet.journal_events", events as f64, 1);
    }
    report.metric("peak_rss_mb", mib(proc_status_kb(None, "VmHWM")), 1);
}

/// The traced replay of the same cell, on the rebuilt model.
fn traced(
    args: &Args,
    report: &mut Report,
    spec: &FleetSpec,
    sweep_dir: &Path,
    replay_dir: &Path,
    untraced: &Timed,
    sweep_s: f64,
) {
    let tracer = Tracer::new();
    let check = Tracer::new();
    let (mut reference, _) = build_cell(spec);
    let ok = model::check_rebuild(
        &mut model::ts(spec.seeds[REPLAYED], &check),
        reference.as_mut(),
    );
    report.check("rebuilt model matches loss_grad_at", ok, "step 0, bitwise");
    let mut task = model::ts(spec.seeds[REPLAYED], &tracer);
    let mut opt = OptProbe::new(build_cell(spec).1, &tracer);
    let (timed, bytes) = replay(spec, replay_dir, &mut task, &mut opt, Some(&tracer));
    report.check(
        "traced replay equals the fleet's sealed result",
        sealed_result_matches(sweep_dir, &timed, args.break_check),
        format!("cell {REPLAYED}, {} steps, bitwise", spec.iters),
    );
    report.attempted += spec.iters as u64;
    report.failed += non_finite(&timed.result.losses);
    train::layer_rows(report, &tracer, &timed);
    train::overhead_row(report, &timed, untraced);

    let spans = tracer.spans();
    let span_us = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e3)
            .collect()
    };
    let checkpoints = span_us("fleet.checkpoint");
    report.metric("fleet.checkpoint_us", mean(&checkpoints), checkpoints.len());
    report.metric("fleet.checkpoint_bytes", bytes as f64, checkpoints.len());
    let writes = span_us("fsio.write_sealed");
    report.metric("fsio.write_sealed_us", mean(&writes), writes.len());
    let cells = (spec.values.len() * spec.seeds.len()) as f64;
    let workers = FleetConfig::default().workers as f64;
    report.metric("fleet.sweep_s", sweep_s, 1);
    report.metric("fleet.cell_s", untraced.wall_s, 1);
    report.metric(
        "fleet.overhead_share",
        1.0 - (cells * untraced.wall_s / workers) / sweep_s,
        1,
    );
    if let Err(e) = tracer.write_jsonl(&args.trace_path()) {
        eprintln!("yf-benchmark: writing trace: {e}");
    }
}
