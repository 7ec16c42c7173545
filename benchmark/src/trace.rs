//! In-memory spans around the benchmark's own calls into each layer,
//! and the forwarding wrappers that record them.
//!
//! A span is `(name, parent, step, start, end)` in nanoseconds since the
//! tracer was created. Spans stay in memory until the run ends and are
//! then written out as JSON lines. Nothing here reaches inside the
//! library crates: the wrappers only time the public calls the trainer
//! makes through them.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use yf_experiments::task::TrainTask;
use yf_optim::{Hyper, Optimizer, ParamShard, StatsPartial};

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: &'static str,
    pub step: u64,
    pub start: u64,
    pub end: u64,
}

pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
    /// The trainer step the spans being recorded belong to. Pool
    /// workers read it while the trainer thread is parked in the same
    /// step, so it publishes nothing else: `Relaxed` suffices.
    step: AtomicU64,
    /// Steps of earlier runs traced by this tracer, so the step numbers
    /// of back-to-back runs do not collide.
    base: AtomicU64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
            step: AtomicU64::new(0),
            base: AtomicU64::new(0),
        }
    }

    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Marks the start of a run whose step 0 is the tracer's step
    /// `base`.
    pub fn set_base(&self, base: u64) {
        self.base.store(base, Ordering::Relaxed);
    }

    pub fn set_step(&self, step: u64) {
        let base = self.base.load(Ordering::Relaxed);
        self.step.store(base + step, Ordering::Relaxed);
    }

    pub fn record(&self, name: &'static str, parent: &'static str, start: u64, end: u64) {
        let step = self.step.load(Ordering::Relaxed);
        self.spans.lock().expect("span buffer").push(Span {
            name,
            parent,
            step,
            start,
            end,
        });
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&self, name: &'static str, parent: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let out = f();
        self.record(name, parent, start, self.now());
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer").clone()
    }

    /// Per-step wall time covered by spans named `name`, in µs: the
    /// envelope from the first start to the last end within each step,
    /// so shards running side by side on pool workers count once.
    /// Steps without such a span count as 0.
    pub fn per_step_us(&self, name: &str, steps: u64) -> Vec<f64> {
        let mut env: Vec<Option<(u64, u64)>> = vec![None; steps as usize];
        for s in self.spans.lock().expect("span buffer").iter() {
            if s.name != name || s.step >= steps {
                continue;
            }
            let slot = &mut env[s.step as usize];
            *slot = Some(match *slot {
                None => (s.start, s.end),
                Some((a, b)) => (a.min(s.start), b.max(s.end)),
            });
        }
        env.into_iter()
            .map(|e| e.map_or(0.0, |(a, b)| (b - a) as f64 / 1e3))
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in self.spans.lock().expect("span buffer").iter() {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"parent\":\"{}\",\"step\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.parent, s.step, s.start, s.end
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// A forwarding [`Optimizer`] that records the measure, combine and
/// apply phases of every step. Every call reaches `inner` unchanged, so
/// the trajectory is bitwise that of `inner` alone.
pub struct OptProbe<'t, O: Optimizer + ?Sized> {
    pub inner: Box<O>,
    tracer: &'t Tracer,
}

impl<'t, O: Optimizer + ?Sized> OptProbe<'t, O> {
    pub fn new(inner: Box<O>, tracer: &'t Tracer) -> Self {
        OptProbe { inner, tracer }
    }
}

impl<O: Optimizer + ?Sized> Optimizer for OptProbe<'_, O> {
    fn observe(&mut self, params: &[f32], grads: &[f32]) -> Hyper {
        let tracer = self.tracer;
        let inner = &mut self.inner;
        tracer.time("core.combine", "optim.step", || {
            inner.observe(params, grads)
        })
    }

    fn observe_shard(&self, shard: ParamShard, params: &[f32], grads: &[f32]) -> StatsPartial {
        self.tracer.time("optim.measure", "optim.step", || {
            self.inner.observe_shard(shard, params, grads)
        })
    }

    fn combine(
        &mut self,
        params: &[f32],
        grads: &[f32],
        partials: Vec<StatsPartial>,
        grad_scale: f32,
    ) -> Hyper {
        let tracer = self.tracer;
        let inner = &mut self.inner;
        tracer.time("core.combine", "optim.step", || {
            inner.combine(params, grads, partials, grad_scale)
        })
    }

    fn needs_observe_partials(&self) -> bool {
        self.inner.needs_observe_partials()
    }

    fn step_shard(&self, shard: ParamShard, params: &mut [f32], grads: &[f32], hyper: Hyper) {
        self.tracer.time("optim.apply", "optim.step", || {
            self.inner.step_shard(shard, params, grads, hyper)
        })
    }

    fn checkpoint_state(&self) -> Option<String> {
        self.inner.checkpoint_state()
    }

    fn restore_checkpoint(
        &mut self,
        text: &str,
    ) -> Result<(), yf_optim::checkpoint::OptStateError> {
        self.inner.restore_checkpoint(text)
    }

    fn learning_rate(&self) -> f32 {
        self.inner.learning_rate()
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.inner.set_learning_rate(lr)
    }

    fn is_self_tuning(&self) -> bool {
        self.inner.is_self_tuning()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Sees each `(step, loss, grad)` a [`TaskProbe`] passes on.
type Tap<'a> = Box<dyn FnMut(u64, f32, &[f32]) + 'a>;

/// A forwarding [`TrainTask`] that records each `loss_grad_at` as one
/// span named `name` and marks the step it belongs to. `tap` sees every
/// `(step, loss, grad)` inside the span (the serve workload copies the
/// step's measurement for its replay there).
pub struct TaskProbe<'t, 'a> {
    inner: Box<dyn TrainTask + 'a>,
    tracer: &'t Tracer,
    name: &'static str,
    tap: Option<Tap<'a>>,
}

impl<'t, 'a> TaskProbe<'t, 'a> {
    pub fn new(inner: Box<dyn TrainTask + 'a>, tracer: &'t Tracer, name: &'static str) -> Self {
        TaskProbe {
            inner,
            tracer,
            name,
            tap: None,
        }
    }

    pub fn with_tap(mut self, tap: impl FnMut(u64, f32, &[f32]) + 'a) -> Self {
        self.tap = Some(Box::new(tap));
        self
    }
}

impl TrainTask for TaskProbe<'_, '_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn init_params(&self) -> Vec<f32> {
        self.inner.init_params()
    }

    fn loss_grad_at(&mut self, params: &[f32], step: u64) -> (f32, Vec<f32>) {
        self.tracer.set_step(step);
        let start = self.tracer.now();
        let (loss, grad) = self.inner.loss_grad_at(params, step);
        if let Some(tap) = self.tap.as_mut() {
            tap(step, loss, &grad);
        }
        self.tracer
            .record(self.name, "trainer.step", start, self.tracer.now());
        (loss, grad)
    }

    fn fast_forward(&mut self, step: u64) {
        self.inner.fast_forward(step)
    }

    fn validate(&mut self, params: &[f32]) -> f64 {
        self.inner.validate(params)
    }

    fn metric_name(&self) -> &'static str {
        self.inner.metric_name()
    }

    fn lower_is_better(&self) -> bool {
        self.inner.lower_is_better()
    }
}
