//! One timed `train_resumable` run, and the per-layer rows of a traced
//! one.

use crate::report::{mean, Report, Steal};
use crate::trace::Tracer;
use std::time::{Duration, Instant};
use yf_experiments::task::TrainTask;
use yf_experiments::trainer::{train_resumable, RunConfig, RunResult, TrainCheckpoint, TrainEvent};
use yf_optim::Optimizer;
use yf_tensor::parallel;

pub struct Timed {
    pub result: RunResult,
    /// Wall time of the `train_resumable` call.
    pub wall_s: f64,
    /// Wall time between consecutive `TrainEvent::Step` callbacks, with
    /// the clock stopped while `after_step` runs.
    pub step_ms: Vec<f64>,
    /// Pool fan-outs the trainer thread published in each step.
    pub fanouts: Vec<u64>,
    /// The ~250 ms windows the steps fall in, as `(first step, host
    /// steal share over the window)` ([`Steal`]).
    pub windows: Vec<(usize, f64)>,
}

/// How often the step loop samples host steal.
const STEAL_WINDOW: Duration = Duration::from_millis(250);

impl Timed {
    /// Step times net of host steal. Each window's stolen time, its
    /// steal share of its wall time, comes off its slowest steps first
    /// ([`level_down`]): the hypervisor takes whole time slices, so
    /// stolen time lands on the steps it lengthened.
    pub fn net_ms(&self) -> Vec<f64> {
        let mut out = self.step_ms.clone();
        for (i, &(first, share)) in self.windows.iter().enumerate() {
            let end = self.windows.get(i + 1).map_or(out.len(), |w| w.0);
            level_down(&mut out[first..end], share);
        }
        out
    }

    /// Appends a later run: its steps follow ours, and its final
    /// parameters replace ours.
    pub fn append(&mut self, later: Timed) {
        self.result.losses.extend(later.result.losses);
        self.result.final_params = later.result.final_params;
        self.wall_s += later.wall_s;
        let offset = self.step_ms.len();
        self.windows.extend(
            later
                .windows
                .iter()
                .map(|&(first, share)| (first + offset, share)),
        );
        self.step_ms.extend(later.step_ms);
        self.fanouts.extend(later.fanouts);
    }
}

/// Trains `iters` steps. With a tracer, each step is recorded as a
/// `trainer.step` span; `after_step` runs after each step's span closes
/// and before the next one opens, so its work never counts as step
/// time.
pub fn run(
    task: &mut dyn TrainTask,
    opt: &mut dyn Optimizer,
    iters: usize,
    checkpoint_every: usize,
    mut on_checkpoint: impl FnMut(&TrainCheckpoint),
    tracer: Option<&Tracer>,
    mut after_step: impl FnMut(u64),
) -> Timed {
    let mut step_ms = Vec::with_capacity(iters);
    let mut fanouts = Vec::with_capacity(iters);
    let start = Instant::now();
    let mut last = start;
    let mut last_ns = tracer.map_or(0, |t| t.now());
    let mut last_fanouts = parallel::fanout_count();
    let mut windows = Vec::new();
    let mut window = (start, Steal::start(), 0);
    let result = train_resumable(
        task,
        opt,
        &RunConfig::plain(iters),
        None,
        checkpoint_every,
        |event| match event {
            TrainEvent::Step(step) => {
                let now = Instant::now();
                step_ms.push((now - last).as_secs_f64() * 1e3);
                let f = parallel::fanout_count();
                fanouts.push(f - last_fanouts);
                last_fanouts = f;
                last = now;
                if now - window.0 >= STEAL_WINDOW {
                    windows.push((window.2, window.1.share()));
                    window = (now, Steal::start(), step_ms.len());
                }
                if let Some(t) = tracer {
                    t.record("trainer.step", "", last_ns, t.now());
                    after_step(step);
                    last = Instant::now();
                    last_ns = t.now();
                }
            }
            TrainEvent::Checkpoint(ckpt) => on_checkpoint(ckpt),
        },
    )
    .expect("fresh runs cannot fail to resume");
    if window.2 < step_ms.len() {
        windows.push((window.2, window.1.share()));
    }
    Timed {
        result,
        wall_s: start.elapsed().as_secs_f64(),
        step_ms,
        fanouts,
        windows,
    }
}

/// Takes `share` of the steps' total time off them: first off the
/// slowest steps, levelling them to a common height no lower than the
/// median step, and whatever is left evenly off every step (a host that
/// steals that much slows every step, not a few).
fn level_down(steps: &mut [f64], share: f64) {
    if steps.is_empty() || share <= 0.0 {
        return;
    }
    let total: f64 = steps.iter().sum();
    let stolen = share * total;
    let floor = crate::report::median(steps);
    let mut sorted = steps.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    // The height h at which the time above h equals `stolen`.
    let mut above = 0.0;
    let mut height = floor;
    for (k, &t) in sorted.iter().enumerate() {
        above += t;
        let h = (above - stolen) / (k + 1) as f64;
        if h >= sorted.get(k + 1).copied().unwrap_or(f64::NEG_INFINITY) {
            height = h.max(floor);
            break;
        }
    }
    for t in steps.iter_mut() {
        *t = t.min(height);
    }
    let left: f64 = steps.iter().sum();
    let rest = stolen - (total - left);
    if rest > 0.0 {
        let scale = 1.0 - rest / left;
        for t in steps.iter_mut() {
            *t *= scale;
        }
    }
}

/// The trainer and optimizer rows of a traced run: each is a per-step
/// mean in µs, and `trainer.step_us` = `model.loss_grad_us` +
/// `task.grad_us` + `optim.step_us` + `trainer.unaccounted_us`;
/// `optim.step_us` = measure + combine + apply + dispatch.
///
/// The optimizer call is everything from the end of the gradient span
/// to the step callback: the trainer calls nothing else in between.
pub fn layer_rows(report: &mut Report, tracer: &Tracer, timed: &Timed) {
    let steps = timed.step_ms.len() as u64;
    let n = steps as usize;
    let spans = tracer.spans();
    let mut grad_end = vec![0u64; n];
    let mut step_span = vec![(0u64, 0u64); n];
    for s in &spans {
        if s.step >= steps {
            continue;
        }
        match s.name {
            "model.loss_grad" | "task.grad" => grad_end[s.step as usize] = s.end,
            "trainer.step" => step_span[s.step as usize] = (s.start, s.end),
            _ => {}
        }
    }
    let step: Vec<f64> = step_span
        .iter()
        .map(|&(a, b)| (b - a) as f64 / 1e3)
        .collect();
    let optim: Vec<f64> = step_span
        .iter()
        .zip(&grad_end)
        .map(|(&(_, end), &g)| end.saturating_sub(g) as f64 / 1e3)
        .collect();
    let per = |name: &str| mean(&tracer.per_step_us(name, steps));
    let model = per("model.loss_grad");
    let task = per("task.grad");
    let measure = per("optim.measure");
    let combine = per("core.combine");
    let apply = per("optim.apply");
    let (step, optim) = (mean(&step), mean(&optim));
    report.metric("trainer.step_us", step, n);
    report.metric("model.loss_grad_us", model, n);
    report.metric("data.batch_us", per("data.batch"), n);
    report.metric("nn.forward_us", per("nn.forward"), n);
    report.metric("autograd.backward_us", per("autograd.backward"), n);
    report.metric("task.grad_us", task, n);
    report.metric("optim.step_us", optim, n);
    report.metric("optim.measure_us", measure, n);
    report.metric("core.combine_us", combine, n);
    report.metric("optim.apply_us", apply, n);
    report.metric("optim.dispatch_us", optim - measure - combine - apply, n);
    report.metric("trainer.unaccounted_us", step - model - task - optim, n);
    let fanouts: Vec<f64> = timed.fanouts.iter().map(|&f| f as f64).collect();
    report.metric("tensor.fanouts_per_step", mean(&fanouts), n);
}

/// `trace.overhead_share`: the traced run's mean step over the untraced
/// run's, less one.
pub fn overhead_row(report: &mut Report, traced: &Timed, untraced: &Timed) {
    let t = mean(&traced.step_ms);
    let u = mean(&untraced.step_ms);
    report.metric("trace.overhead_share", t / u - 1.0, traced.step_ms.len());
}

/// Bitwise equality of two loss sequences.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Counts non-finite losses.
pub fn non_finite(losses: &[f32]) -> u64 {
    losses.iter().filter(|l| !l.is_finite()).count() as u64
}
