//! Figure 4: total momentum vs target momentum.
//!
//! Left: synchronous YellowFin — measured total momentum equals the
//! algorithmic (target) value. Middle: 16 asynchronous workers running
//! open-loop YellowFin — total momentum exceeds the target
//! (asynchrony-induced momentum). Right: closed-loop YellowFin lowers
//! the algorithmic momentum until the measured total matches the target.

use yellowfin::{ClosedLoopYellowFin, TotalMomentumEstimator, YellowFinConfig};
use yf_async::RoundRobinSimulator;
use yf_bench::{scaled, yellowfin};
use yf_experiments::report;
use yf_experiments::task::TaskSource;
use yf_experiments::workloads::cifar100_like;
use yf_optim::Optimizer;

const WORKERS: usize = 16;

/// An optimizer wrapper that measures total momentum (Eq. 37) before
/// delegating, recording `(target, measured_total, algorithmic)` series.
struct Instrumented<O> {
    inner: O,
    estimator: TotalMomentumEstimator,
    series: Vec<(f64, f64)>, // (target, measured total)
    target_fn: fn(&O) -> f64,
}

impl<O: Optimizer> Instrumented<O> {
    fn new(inner: O, staleness: usize, target_fn: fn(&O) -> f64) -> Self {
        Instrumented {
            inner,
            estimator: TotalMomentumEstimator::new(staleness),
            series: Vec::new(),
            target_fn,
        }
    }
}

impl<O: Optimizer> Optimizer for Instrumented<O> {
    fn combine(
        &mut self,
        params: &[f32],
        grads: &[f32],
        partials: Vec<yf_optim::StatsPartial>,
        grad_scale: f32,
    ) -> yf_optim::Hyper {
        // The measure phase sees exactly the (pre-update params, applied
        // gradient) pair Eq. 37 needs — instrumentation composes with the
        // two-phase API without shadowing the update. Eq. 37 only uses
        // `lr * g`, so an enclosing scale folds into the learning rate.
        let lr = self.inner.learning_rate();
        if let Some(total) = self.estimator.observe(params, grads, lr * grad_scale) {
            self.series.push(((self.target_fn)(&self.inner), total));
        }
        self.inner.combine(params, grads, partials, grad_scale)
    }

    fn needs_observe_partials(&self) -> bool {
        self.inner.needs_observe_partials()
    }

    fn step_shard(
        &self,
        shard: yf_optim::ParamShard,
        params: &mut [f32],
        grads: &[f32],
        hyper: yf_optim::Hyper,
    ) {
        self.inner.step_shard(shard, params, grads, hyper);
    }

    fn learning_rate(&self) -> f32 {
        self.inner.learning_rate()
    }

    fn is_self_tuning(&self) -> bool {
        self.inner.is_self_tuning()
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.inner.set_learning_rate(lr);
    }

    fn name(&self) -> &'static str {
        "instrumented"
    }
}

fn smooth_pairs(series: &[(f64, f64)], w: usize) -> Vec<(usize, f64, f64)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + w <= series.len() {
        let t: f64 = series[i..i + w].iter().map(|p| p.0).sum::<f64>() / w as f64;
        let m: f64 = series[i..i + w].iter().map(|p| p.1).sum::<f64>() / w as f64;
        out.push((i, t, m));
        i += w;
    }
    out
}

fn print_panel(label: &str, series: &[(f64, f64)]) -> (f64, f64) {
    let w = (series.len() / 12).max(1);
    println!("# {label} (iter, target mu, measured total mu)");
    for (i, t, m) in smooth_pairs(series, w) {
        println!("{i}\t{}\t{}", report::fmt(t), report::fmt(m));
    }
    let tail = &series[series.len() / 2..];
    let avg_t = tail.iter().map(|p| p.0).sum::<f64>() / tail.len() as f64;
    let avg_m = tail.iter().map(|p| p.1).sum::<f64>() / tail.len() as f64;
    println!("tail averages: target = {avg_t:.3}, measured total = {avg_m:.3}\n");
    (avg_t, avg_m)
}

fn main() {
    println!("== Figure 4: total vs algorithmic momentum (CIFAR100-like ResNet) ==\n");
    let iters = scaled(700);

    // Left: synchronous YellowFin.
    let mut task = cifar100_like(5);
    let mut params = task.init_params();
    let mut opt = Instrumented::new(yellowfin(), 0, |o| o.momentum());
    for step in 0..iters {
        let (_, grad) = task.loss_grad_at(&params, step as u64);
        opt.step(&mut params, &grad);
    }
    let (t_sync, m_sync) = print_panel("synchronous YellowFin", &opt.series);

    // Middle: asynchronous open-loop YellowFin.
    let mut task = cifar100_like(5);
    let mut opt = Instrumented::new(yellowfin(), WORKERS - 1, |o| o.momentum());
    let mut sim = RoundRobinSimulator::new(WORKERS, task.init_params());
    for _ in 0..iters {
        let mut source = TaskSource::new(task.as_mut());
        sim.step(&mut source, &mut opt);
    }
    let (t_async, m_async) = print_panel("async (16 workers) open-loop YellowFin", &opt.series);

    // Right: closed-loop YellowFin.
    let mut task = cifar100_like(5);
    let mut cl = ClosedLoopYellowFin::new(YellowFinConfig::default(), WORKERS - 1, 0.01);
    let mut sim = RoundRobinSimulator::new(WORKERS, task.init_params());
    let mut cl_series = Vec::new();
    for _ in 0..iters {
        let mut source = TaskSource::new(task.as_mut());
        sim.step(&mut source, &mut cl);
        if let Some(total) = cl.total_momentum() {
            cl_series.push((cl.target_momentum(), total));
        }
    }
    let (t_cl, m_cl) = print_panel("async closed-loop YellowFin", &cl_series);
    println!(
        "closed-loop algorithmic momentum ended at {:.3} (below the target {:.3}, \
         compensating asynchrony)",
        cl.algorithmic_momentum(),
        cl.target_momentum()
    );

    println!("\nsummary (tail averages, target vs measured):");
    println!("  sync:        {t_sync:.3} vs {m_sync:.3}  (paper: equal)");
    println!("  async open:  {t_async:.3} vs {m_async:.3}  (paper: measured > target)");
    println!("  async closed:{t_cl:.3} vs {m_cl:.3}  (paper: closed loop re-matches target)");

    report::write_csv(
        "fig4_summary.csv",
        &["panel", "target_mu", "measured_total_mu"],
        &[
            vec!["sync".into(), report::fmt(t_sync), report::fmt(m_sync)],
            vec![
                "async_open".into(),
                report::fmt(t_async),
                report::fmt(m_async),
            ],
            vec!["async_closed".into(), report::fmt(t_cl), report::fmt(m_cl)],
        ],
    );
    println!("(wrote target/experiments/fig4_summary.csv)");
}
