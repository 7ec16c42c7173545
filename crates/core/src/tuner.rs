//! Algorithm 1: the YellowFin tuner wrapped around momentum SGD.

use crate::cubic::single_step;
use crate::ema::Ema;
use crate::measurements::{CurvatureRange, DistanceToOpt, GradVariance};
use yf_optim::clip::clip_scale;
use yf_optim::{Hyper, Optimizer, ParamShard, ShardedState, StatsPartial};
use yf_tensor::elementwise;

/// Gradient clipping policy (Section 3.3 / Appendix F).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClipMode {
    /// No clipping.
    None,
    /// Clip to a fixed, manually chosen global-norm threshold (the
    /// baseline in Table 1).
    Manual(f32),
    /// Adaptive clipping: threshold `sqrt(h_max)` from the curvature-range
    /// estimator, whose growth is limited per Eq. 35.
    Adaptive,
}

/// Configuration of [`YellowFin`]. The defaults are the constants the
/// paper fixes across *all* of its experiments (Section 5.1: "We fix the
/// parameters of Algorithm 1 in all experiments").
#[derive(Debug, Clone, PartialEq)]
pub struct YellowFinConfig {
    /// Smoothing for every running estimate (paper: 0.999).
    pub beta: f64,
    /// Sliding-window width for extremal curvatures (paper: 20).
    pub window: usize,
    /// Multiplier on the auto-tuned learning rate (Appendix J.4's
    /// "learning rate factor"; 1.0 = fully automatic).
    pub lr_factor: f64,
    /// Gradient clipping policy.
    pub clip: ClipMode,
    /// Slow start (Appendix E): use `min(lr_t, t * lr_t / (10 w))` so the
    /// first `10 w` steps are conservative while estimates warm up.
    pub slow_start: bool,
    /// If set, the momentum applied to the update is frozen at this value
    /// while the learning rate keeps auto-tuning — the ablation of
    /// Figure 9 (Appendix J.2).
    pub momentum_override: Option<f64>,
}

impl Default for YellowFinConfig {
    fn default() -> Self {
        YellowFinConfig {
            beta: 0.999,
            window: 20,
            lr_factor: 1.0,
            clip: ClipMode::None,
            slow_start: true,
            momentum_override: None,
        }
    }
}

/// YellowFin's scalar half: every piece of Algorithm 1's state except
/// the per-coordinate gradient moments.
///
/// The tuning decision reads the gradient through two numbers only: the
/// squared norm `Σg²` (curvature range, distance to optimum, clip
/// threshold) and the variance total `C` of [`GradVariance`]. The core
/// holds the curvature window, the distance EMAs, the μ/α EMAs with slow
/// start and the step count, and the last norm, so it is O(window) in
/// size whatever the model dimension. [`TunerCore::tune`] is its one
/// entry point; the vector half is a callback it runs once the clip
/// scale is known. [`YellowFin`] is a `TunerCore` plus a [`GradVariance`]
/// plus a velocity buffer, and a `yf-serve` session fed `measure_stats`
/// frames is a `TunerCore` alone.
///
/// # Example
///
/// ```
/// use yellowfin::measurements::GradVariance;
/// use yellowfin::{TunerCore, YellowFinConfig};
///
/// let cfg = YellowFinConfig::default();
/// let mut core = TunerCore::new(cfg.clone());
/// let mut moments = GradVariance::new(cfg.beta);
/// let g = [0.5f32, -1.0];
/// let sumsq = g.iter().map(|&v| f64::from(v) * f64::from(v)).sum();
/// let hyper = core.tune(sumsq, 1.0, |scale| {
///     moments.observe_scaled(&g, scale, 1);
///     moments.variance()
/// });
/// assert!(hyper.lr >= 0.0 && hyper.momentum >= 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct TunerCore {
    pub(crate) cfg: YellowFinConfig,
    pub(crate) curvature: CurvatureRange,
    pub(crate) distance: DistanceToOpt,
    pub(crate) mu_ema: Ema,
    pub(crate) lr_ema: Ema,
    pub(crate) step_count: u64,
    pub(crate) last_norm: Option<f64>,
}

impl TunerCore {
    /// A fresh core from a configuration.
    pub fn new(cfg: YellowFinConfig) -> Self {
        let limit_growth = cfg.clip == ClipMode::Adaptive;
        TunerCore {
            curvature: CurvatureRange::new(cfg.window, cfg.beta, limit_growth),
            distance: DistanceToOpt::new(cfg.beta),
            mu_ema: Ema::new(cfg.beta),
            lr_ema: Ema::new(cfg.beta),
            step_count: 0,
            last_norm: None,
            cfg,
        }
    }

    /// The configuration the core was built with.
    pub fn config(&self) -> &YellowFinConfig {
        &self.cfg
    }

    /// Tunes one step from the raw gradient's `sumsq = Σg²` and the
    /// scale `grad_scale` applied by enclosing middleware, and returns
    /// the step's [`Hyper`] (its `grad_scale` is the clip factor only).
    ///
    /// `sweep` is the vector half: it receives the total gradient scale
    /// (`grad_scale` × the clip factor, which depends only on state from
    /// before this step) and returns the variance total `C` after folding
    /// the scaled gradient into the moments. It runs exactly once.
    pub fn tune(&mut self, sumsq: f64, grad_scale: f32, sweep: impl FnOnce(f64) -> f64) -> Hyper {
        // 1. The norm the tuner sees includes the scale applied by
        // enclosing middleware.
        let norm_before = (f64::from(grad_scale) * sumsq.sqrt()) as f32;
        let threshold = self.clip_threshold();
        self.last_norm = Some(f64::from(norm_before));
        let internal_scale = clip_scale(norm_before, threshold);
        let clipped_norm = f64::from(norm_before).min(f64::from(threshold));

        // 2. Update the measurement oracles on the clipped gradient — the
        // clip factor rides into the variance sweep as a scale, so no
        // clipped copy of the gradient is ever materialized.
        let h_t = clipped_norm * clipped_norm;
        self.curvature.observe(h_t);
        let var_sum = sweep(f64::from(grad_scale) * f64::from(internal_scale));
        self.distance.observe(clipped_norm);

        // 3. Solve SingleStep and smooth the result.
        let sol = single_step(
            var_sum,
            self.distance.distance(),
            self.curvature.h_min(),
            self.curvature.h_max(),
        );
        self.mu_ema.update(sol.mu);
        self.lr_ema.update(sol.lr);
        self.step_count += 1;

        // The apply phase re-scales the raw gradient by the clip factor
        // (the enclosing middleware folds `grad_scale` in on its own), so
        // shards stay self-contained.
        Hyper {
            lr: self.effective_lr() as f32,
            momentum: self.momentum() as f32,
            grad_scale: internal_scale,
        }
    }

    fn clip_threshold(&self) -> f32 {
        match self.cfg.clip {
            ClipMode::None => f32::INFINITY,
            ClipMode::Manual(t) => t,
            ClipMode::Adaptive => {
                if self.curvature.is_initialized() {
                    // h is a squared gradient norm, so sqrt(h_max) bounds
                    // the gradient norm itself.
                    self.curvature.h_max().sqrt() as f32
                } else {
                    f32::INFINITY
                }
            }
        }
    }

    fn momentum(&self) -> f64 {
        match self.cfg.momentum_override {
            Some(m) => m,
            None if self.mu_ema.is_initialized() => self.mu_ema.value(),
            None => 0.0,
        }
    }

    fn tuned_lr(&self) -> f64 {
        if self.lr_ema.is_initialized() {
            self.lr_ema.value()
        } else {
            0.0
        }
    }

    fn effective_lr(&self) -> f64 {
        let lr = self.tuned_lr() * self.cfg.lr_factor;
        if self.cfg.slow_start {
            let warm = self.step_count as f64 / (10.0 * self.cfg.window as f64);
            lr.min(lr * warm)
        } else {
            lr
        }
    }
}

/// The YellowFin optimizer (Algorithm 1).
///
/// Measures curvature range, gradient variance and distance-to-optimum
/// from each minibatch gradient, solves `SingleStep` in closed form, and
/// applies a Polyak momentum SGD update with the smoothed `(mu_t,
/// alpha_t)`.
///
/// The paper's *measure → tune → apply* structure maps directly onto the
/// sharded two-phase [`Optimizer`] API. The measure phase is a partial
/// reduction: the default `observe_shard` contributes per-block Σg² sums
/// for its gradient slice, and `combine` folds them with a fixed-order tree into
/// the global norm and hands it to the [`TunerCore`], whose callback is
/// the fused, parallel, clip-scaled [`GradVariance`] sweep (no gradient
/// copy is made anywhere). The core runs the `SingleStep` solve and
/// folds the clip factor into [`Hyper::grad_scale`]. `step_shard` is
/// then the generic per-shard momentum update, so both phases
/// parallelize and shard like any baseline optimizer while the measured
/// statistics stay bitwise identical for every shard count.
///
/// # Example
///
/// ```
/// use yellowfin::{YellowFin, YellowFinConfig, ClipMode};
/// use yf_optim::Optimizer;
///
/// let mut opt = YellowFin::new(YellowFinConfig {
///     clip: ClipMode::Adaptive,
///     ..Default::default()
/// });
/// let mut x = vec![1.0f32];
/// for _ in 0..100 {
///     let g = vec![2.0 * x[0]];
///     opt.step(&mut x, &g);
/// }
/// assert!(opt.momentum() >= 0.0 && opt.momentum() < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct YellowFin {
    pub(crate) core: TunerCore,
    pub(crate) variance: GradVariance,
    pub(crate) velocity: ShardedState,
    pub(crate) dim: Option<usize>,
}

impl Default for YellowFin {
    fn default() -> Self {
        YellowFin::new(YellowFinConfig::default())
    }
}

impl YellowFin {
    /// Creates a tuner from a configuration.
    pub fn new(cfg: YellowFinConfig) -> Self {
        YellowFin {
            variance: GradVariance::new(cfg.beta),
            core: TunerCore::new(cfg),
            velocity: ShardedState::new(1),
            dim: None,
        }
    }

    /// The momentum currently applied to updates.
    pub fn momentum(&self) -> f64 {
        self.core.momentum()
    }

    /// The smoothed auto-tuned learning rate (before slow start and
    /// `lr_factor`).
    pub fn tuned_lr(&self) -> f64 {
        self.core.tuned_lr()
    }

    /// The learning rate that the *next* update would use (slow start and
    /// `lr_factor` included).
    pub fn effective_lr(&self) -> f64 {
        self.core.effective_lr()
    }

    /// Latest measurement snapshot `(h_min, h_max, C, D)`, if warmed up.
    pub fn measurements(&self) -> Option<(f64, f64, f64, f64)> {
        let core = &self.core;
        if !core.curvature.is_initialized() {
            return None;
        }
        Some((
            core.curvature.h_min(),
            core.curvature.h_max(),
            self.variance.variance(),
            core.distance.distance(),
        ))
    }

    /// Number of steps taken.
    pub fn steps(&self) -> u64 {
        self.core.step_count
    }

    /// The gradient norm observed at the last step, before clipping.
    pub fn last_grad_norm(&self) -> Option<f64> {
        self.core.last_norm
    }
}

impl Optimizer for YellowFin {
    fn combine(
        &mut self,
        params: &[f32],
        grads: &[f32],
        partials: Vec<StatsPartial>,
        grad_scale: f32,
    ) -> Hyper {
        let dim = *self.dim.get_or_insert(params.len());
        assert_eq!(params.len(), grads.len(), "yellowfin: length mismatch");
        assert_eq!(dim, params.len(), "yellowfin: parameter count changed");

        // The global norm from the per-shard partial reductions; the
        // variance sweep parallelizes over as many chunks as the measure
        // fan-out used, and its result is thread-count invariant.
        let sumsq = StatsPartial::merge_sums(&partials, grads.len());
        let threads = partials.len().max(1);
        let variance = &mut self.variance;
        self.core.tune(sumsq, grad_scale, |scale| {
            variance.observe_scaled(grads, scale, threads);
            variance.variance()
        })
    }

    fn needs_observe_partials(&self) -> bool {
        true
    }

    fn step_shard(&self, shard: ParamShard, params: &mut [f32], grads: &[f32], hyper: Hyper) {
        shard.validate(params, grads);
        // 4. Momentum SGD update with the tuned values.
        self.velocity.with(shard, params.len(), |bufs| {
            let v = &mut bufs[0];
            if v.is_empty() {
                v.resize(params.len(), 0.0);
            }
            elementwise::momentum_step(
                params,
                v,
                grads,
                hyper.momentum,
                hyper.lr,
                false,
                hyper.grad_scale,
            );
        });
    }

    fn learning_rate(&self) -> f32 {
        self.effective_lr() as f32
    }

    fn set_learning_rate(&mut self, lr: f32) {
        // External schedules scale the auto-tuned rate via the factor.
        let tuned = self.tuned_lr();
        if tuned > 0.0 {
            self.core.cfg.lr_factor = f64::from(lr) / tuned;
        }
    }

    fn is_self_tuning(&self) -> bool {
        true
    }

    // The fleet-facing checkpoint surface rides the crate's existing
    // versioned tuner-state format (`save_state`/`restore_state`), which
    // already round-trips the full measurement + velocity state bit-exactly.
    fn checkpoint_state(&self) -> Option<String> {
        Some(self.save_state())
    }

    fn restore_checkpoint(
        &mut self,
        text: &str,
    ) -> Result<(), yf_optim::checkpoint::OptStateError> {
        *self = YellowFin::restore_state(text)?;
        Ok(())
    }

    fn name(&self) -> &'static str {
        "yellowfin"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grad_quadratic(x: &[f32], h: &[f32]) -> Vec<f32> {
        x.iter().zip(h).map(|(&x, &h)| h * x).collect()
    }

    #[test]
    fn converges_on_well_conditioned_quadratic() {
        let mut opt = YellowFin::default();
        let h = vec![1.0f32, 2.0];
        let mut x = vec![1.0f32, -1.0];
        for _ in 0..800 {
            let g = grad_quadratic(&x, &h);
            opt.step(&mut x, &g);
        }
        let dist = (x[0] * x[0] + x[1] * x[1]).sqrt();
        assert!(dist < 1e-2, "distance {dist}");
    }

    #[test]
    fn converges_on_ill_conditioned_quadratic() {
        let mut opt = YellowFin::default();
        let h = vec![0.1f32, 10.0];
        let mut x = vec![1.0f32, 1.0];
        for _ in 0..2000 {
            let g = grad_quadratic(&x, &h);
            opt.step(&mut x, &g);
        }
        let dist = (x[0] * x[0] + x[1] * x[1]).sqrt();
        assert!(dist < 5e-2, "distance {dist}");
    }

    #[test]
    fn momentum_and_lr_stay_in_valid_ranges() {
        let mut opt = YellowFin::default();
        let h = vec![1.0f32, 100.0];
        let mut x = vec![1.0f32, 1.0];
        for _ in 0..500 {
            let g = grad_quadratic(&x, &h);
            opt.step(&mut x, &g);
            let mu = opt.momentum();
            assert!((0.0..1.0).contains(&mu), "mu = {mu}");
            assert!(opt.effective_lr() >= 0.0 && opt.effective_lr().is_finite());
        }
    }

    #[test]
    fn slow_start_discounts_early_steps() {
        let cfg = YellowFinConfig::default();
        let mut opt = YellowFin::new(cfg);
        let mut x = vec![1.0f32];
        opt.step(&mut x, &[1.0]);
        // After 1 step with window 20: warm factor is 1/200.
        let full = opt.tuned_lr() * opt.core.cfg.lr_factor;
        let eff = opt.effective_lr();
        assert!(eff <= full / 100.0, "eff {eff} vs full {full}");
    }

    #[test]
    fn momentum_override_freezes_momentum_only() {
        let mut opt = YellowFin::new(YellowFinConfig {
            momentum_override: Some(0.4),
            ..Default::default()
        });
        let mut x = vec![1.0f32, 1.0];
        for _ in 0..100 {
            let g = grad_quadratic(&x, &[1.0, 10.0]);
            opt.step(&mut x, &g);
        }
        assert_eq!(opt.momentum(), 0.4);
        assert!(opt.tuned_lr() > 0.0, "lr keeps tuning");
    }

    #[test]
    fn adaptive_clipping_tames_gradient_spikes() {
        // A stream with occasional 1e4x spikes must not destroy the
        // iterate when adaptive clipping is on.
        let mut opt = YellowFin::new(YellowFinConfig {
            clip: ClipMode::Adaptive,
            ..Default::default()
        });
        let mut x = vec![1.0f32];
        for t in 0..500 {
            let spike = if t % 97 == 96 { 1e4 } else { 1.0 };
            let g = vec![x[0] * spike];
            opt.step(&mut x, &g);
            assert!(x[0].is_finite(), "diverged at step {t}");
        }
        assert!(x[0].abs() < 1.0);
    }

    #[test]
    fn survives_adversarial_gradient_streams() {
        // NaN-free behavior on zero, tiny, huge and alternating gradients.
        let mut opt = YellowFin::new(YellowFinConfig {
            clip: ClipMode::Adaptive,
            ..Default::default()
        });
        let mut x = vec![0.5f32, -0.5];
        let streams: Vec<Vec<f32>> = vec![
            vec![0.0, 0.0],
            vec![1e-20, -1e-20],
            vec![1e10, 1e10],
            vec![-1e10, 1e10],
            vec![0.0, 1.0],
        ];
        for t in 0..200 {
            let g = streams[t % streams.len()].clone();
            opt.step(&mut x, &g);
            assert!(x.iter().all(|v| v.is_finite()), "step {t}: {x:?}");
            assert!(opt.momentum().is_finite());
            assert!(opt.effective_lr().is_finite());
        }
    }

    #[test]
    fn lr_factor_scales_linearly() {
        // Feed both tuners the *same* pre-recorded gradient stream so the
        // measurements coincide; the effective lr must then scale exactly
        // with the factor.
        let run = |factor: f64| {
            let mut opt = YellowFin::new(YellowFinConfig {
                lr_factor: factor,
                slow_start: false,
                ..Default::default()
            });
            let mut x = vec![0.0f32];
            for t in 0..50 {
                let g = vec![1.0 + 0.3 * ((t as f32) * 0.7).sin()];
                opt.step(&mut x, &g);
            }
            opt.effective_lr()
        };
        let base = run(1.0);
        let doubled = run(2.0);
        assert!((doubled / base - 2.0).abs() < 1e-6, "{doubled} vs {base}");
    }

    #[test]
    #[should_panic(expected = "parameter count changed")]
    fn dimension_change_panics() {
        let mut opt = YellowFin::default();
        opt.step(&mut [0.0], &[1.0]);
        opt.step(&mut [0.0, 0.0], &[1.0, 1.0]);
    }
}
