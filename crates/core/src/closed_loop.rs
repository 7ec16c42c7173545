//! Closed-loop YellowFin for asynchronous training (Section 4,
//! Algorithm 5, Appendix G).
//!
//! Under asynchrony with staleness `tau`, the system exhibits *total*
//! momentum `mu_T` larger than the algorithmic momentum, per the dynamics
//! model `E[x_{t+1} - x_t] = mu_T E[x_t - x_{t-1}] - alpha E grad f(x_t)`
//! (Eq. 16). Closed-loop YellowFin measures `mu_T` on the running system
//! with the robust median estimator of Eq. 37 and steers the algorithmic
//! momentum with a negative feedback loop so the *measured total*
//! momentum matches the target chosen by the tuner.

use crate::tuner::{YellowFin, YellowFinConfig};
use std::collections::VecDeque;
use yf_optim::{Hyper, Optimizer, ParamShard, ShardedState, StatsPartial};
use yf_tensor::parallel::{self, Par};

/// The total-momentum estimator of Eq. 37:
///
/// ```text
/// mu_T ≈ median_i ( x_{t-tau} - x_{t-tau-1} + alpha * g_{t-1} )_i
///                 / ( x_{t-tau-1} - x_{t-tau-2} )_i
/// ```
///
/// where `g_{t-1}` is the (stale) gradient applied at the previous update
/// — it was computed on the snapshot `x_{t-tau-1}`, which is exactly why
/// `tau`-stale model values appear in the ratio. The estimator feeds one
/// measurement per step; coordinates whose denominator is numerically
/// zero (or whose ratio is non-finite) are discarded before the median.
#[derive(Debug, Clone)]
pub struct TotalMomentumEstimator {
    staleness: usize,
    /// Snapshots x_t, newest last; needs tau + 3 entries.
    history: VecDeque<Vec<f32>>,
    prev_grad: Option<Vec<f32>>,
    prev_lr: f32,
    ratios: Vec<f32>,
}

impl TotalMomentumEstimator {
    /// Creates an estimator for a system with gradient `staleness` (0 for
    /// synchronous training).
    pub fn new(staleness: usize) -> Self {
        TotalMomentumEstimator {
            staleness,
            history: VecDeque::new(),
            prev_grad: None,
            prev_lr: 0.0,
            ratios: Vec::new(),
        }
    }

    /// Observes the state *before* the update at step `t`: the current
    /// parameters `x_t`, the stale gradient about to be applied, and the
    /// learning rate that will scale it. Returns the total-momentum
    /// estimate once enough history exists.
    pub fn observe(&mut self, params: &[f32], grad: &[f32], lr: f32) -> Option<f64> {
        self.history.push_back(params.to_vec());
        if self.history.len() > self.staleness + 3 {
            self.history.pop_front();
        }
        let estimate = self.estimate();
        self.prev_grad = Some(grad.to_vec());
        self.prev_lr = lr;
        estimate
    }

    fn estimate(&mut self) -> Option<f64> {
        // After pushing x_t the history holds [x_{t-tau-2}, .., x_t]
        // (newest last, tau + 3 entries when full): indices 2, 1, 0 are
        // x_{t-tau}, x_{t-tau-1}, x_{t-tau-2}. The gradient applied at
        // step t-1 (`prev_grad`) was computed on x_{t-tau-1}, which is
        // exactly the snapshot Eq. 37 pairs it with.
        if self.history.len() < self.staleness + 3 {
            return None;
        }
        let g = self.prev_grad.as_ref()?;
        let x2 = &self.history[2]; // x_{t-tau}
        let x1 = &self.history[1]; // x_{t-tau-1}
        let x0 = &self.history[0]; // x_{t-tau-2}
        self.ratios.clear();
        for i in 0..x2.len() {
            let denom = x1[i] - x0[i];
            if denom.abs() < 1e-12 {
                continue;
            }
            let numer = x2[i] - x1[i] + self.prev_lr * g[i];
            let r = numer / denom;
            if r.is_finite() {
                self.ratios.push(r);
            }
        }
        if self.ratios.is_empty() {
            return None;
        }
        let mid = self.ratios.len() / 2;
        self.ratios
            .select_nth_unstable_by(mid, |a, b| a.total_cmp(b));
        Some(f64::from(self.ratios[mid]))
    }

    /// Gradient staleness this estimator was built for.
    pub fn staleness(&self) -> usize {
        self.staleness
    }
}

/// Algorithm 5: closed-loop YellowFin.
///
/// Runs the ordinary tuner to obtain the *target* momentum `mu*` and the
/// learning rate, measures total momentum with
/// [`TotalMomentumEstimator`], and adjusts the applied (algorithmic)
/// momentum by `mu += gamma * (mu* - mu_T)` each step.
///
/// The update itself is the position-form momentum step of Algorithm 5,
/// line 3: `x_t = x_{t-1} + mu (x_{t-1} - x_{t-2}) - alpha g`.
///
/// Two-phase mapping: `combine` runs the estimator, the tuner's
/// measurement/solve phase (targets only — the tuner applies nothing),
/// and the feedback law; `step_shard` is the position-form update with
/// per-shard previous-parameter state.
#[derive(Debug, Clone)]
pub struct ClosedLoopYellowFin {
    tuner: YellowFin,
    estimator: TotalMomentumEstimator,
    gamma: f64,
    mu: f64,
    last_total: Option<f64>,
    /// Per-shard previous parameters for the position-form update. A
    /// shard's buffer is seeded with the parameters themselves on its
    /// first step (which then degenerates to plain gradient descent, as
    /// in Algorithm 5's warmup).
    prev_params: ShardedState,
}

impl ClosedLoopYellowFin {
    /// Creates a closed-loop tuner for a system with gradient `staleness`
    /// (Section 5.2 uses 15 = 16 workers - 1) and feedback gain
    /// `gamma` (Algorithm 5 uses 0.01).
    pub fn new(cfg: YellowFinConfig, staleness: usize, gamma: f64) -> Self {
        ClosedLoopYellowFin {
            tuner: YellowFin::new(cfg),
            estimator: TotalMomentumEstimator::new(staleness),
            gamma,
            mu: 0.0,
            last_total: None,
            prev_params: ShardedState::new(1),
        }
    }

    /// The algorithmic momentum currently applied (may go negative to
    /// compensate asynchrony-induced momentum, as in Figure 4).
    pub fn algorithmic_momentum(&self) -> f64 {
        self.mu
    }

    /// The tuner's target momentum `mu*`.
    pub fn target_momentum(&self) -> f64 {
        self.tuner.momentum()
    }

    /// The most recent total-momentum measurement, if available.
    pub fn total_momentum(&self) -> Option<f64> {
        self.last_total
    }

    /// The learning rate the tuner selected.
    pub fn tuned_lr(&self) -> f64 {
        self.tuner.effective_lr()
    }
}

impl Optimizer for ClosedLoopYellowFin {
    fn combine(
        &mut self,
        params: &[f32],
        grads: &[f32],
        partials: Vec<StatsPartial>,
        grad_scale: f32,
    ) -> Hyper {
        assert_eq!(params.len(), grads.len(), "closed-loop: length mismatch");
        // Measure total momentum from the pre-update state. Eq. 37 only
        // ever uses the product `lr * g`, so an enclosing middleware's
        // gradient scale folds into the recorded learning rate instead of
        // a scaled gradient copy.
        let lr = self.tuner.effective_lr() as f32;
        if let Some(mu_t) = self.estimator.observe(params, grads, lr * grad_scale) {
            self.last_total = Some(mu_t);
        }

        // Run the tuner's measure/solve phase on the Σg² partials to
        // produce mu* and alpha (the Eq. 37 estimator above needs whole
        // snapshots, not reductions); its open-loop momentum update is
        // never applied to the model (the position-form update below
        // replaces it).
        self.tuner.combine(params, grads, partials, grad_scale);

        // Negative feedback on the algorithmic momentum.
        if let Some(mu_total) = self.last_total {
            self.mu += self.gamma * (self.tuner.momentum() - mu_total);
            self.mu = self.mu.clamp(-0.9, 0.999);
        } else {
            self.mu = self.tuner.momentum();
        }

        // Per Algorithm 5 the applied gradient is the raw one; clipping
        // only shapes the tuner's measurements. (Enclosing middleware
        // folds its own grad_scale into the returned Hyper.)
        Hyper::new(self.tuner.effective_lr() as f32, self.mu as f32)
    }

    fn needs_observe_partials(&self) -> bool {
        true
    }

    fn step_shard(&self, shard: ParamShard, params: &mut [f32], grads: &[f32], hyper: Hyper) {
        shard.validate(params, grads);
        let (lr, mu) = (hyper.lr, hyper.momentum);
        // Position-form momentum update (Algorithm 5, line 3).
        self.prev_params.with(shard, params.len(), |bufs| {
            let prev = &mut bufs[0];
            if prev.is_empty() {
                prev.extend_from_slice(params);
                for (p, &g) in params.iter_mut().zip(grads) {
                    *p -= lr * hyper.grad_scale * g;
                }
            } else {
                for i in 0..params.len() {
                    let x = params[i];
                    params[i] += mu * (x - prev[i]) - lr * hyper.grad_scale * grads[i];
                    prev[i] = x;
                }
            }
        });
    }

    fn learning_rate(&self) -> f32 {
        self.tuner.learning_rate()
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.tuner.set_learning_rate(lr);
    }

    fn is_self_tuning(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "closed-loop-yellowfin"
    }
}

/// Closed-loop momentum control for **Adam** — the extension sketched in
/// the paper's Discussion ("we also believe that our closed-loop momentum
/// control mechanism in Section 4 could accelerate other adaptive methods
/// in asynchronous-parallel settings").
///
/// Adam's first-moment coefficient β1 plays the role of momentum; under
/// asynchrony the *system's* total momentum exceeds it. This controller
/// measures total momentum with the same Eq. 37 estimator and adjusts β1
/// by `gamma * (target - measured)` each step, clamped to Adam's valid
/// range.
#[derive(Debug, Clone)]
pub struct ClosedLoopAdam {
    lr: f32,
    beta1: f64,
    beta2: f32,
    target: f64,
    gamma: f64,
    estimator: TotalMomentumEstimator,
    last_total: Option<f64>,
    /// First moment, per shard (apply-phase state).
    m: ShardedState,
    /// Second moment, whole-vector: the measure phase needs it to build
    /// the effective (preconditioned) gradient Eq. 37 is fed, so it is
    /// updated in `combine` and only *read* by `step_shard`.
    v: Vec<f32>,
    /// Reusable effective-gradient buffer for the Eq. 37 estimator — kept
    /// across steps so the measure phase performs no per-step allocation.
    effective: Vec<f32>,
    t: u64,
}

impl ClosedLoopAdam {
    /// Creates the controller: `target` is the desired total momentum
    /// (e.g. the synchronous-optimal β1 = 0.9), `staleness` the gradient
    /// delay, `gamma` the feedback gain.
    pub fn new(lr: f32, target: f64, staleness: usize, gamma: f64) -> Self {
        ClosedLoopAdam {
            lr,
            beta1: target,
            beta2: 0.999,
            target,
            gamma,
            estimator: TotalMomentumEstimator::new(staleness),
            last_total: None,
            m: ShardedState::new(1),
            v: Vec::new(),
            effective: Vec::new(),
            t: 0,
        }
    }

    /// The β1 currently applied.
    pub fn beta1(&self) -> f64 {
        self.beta1
    }

    /// The most recent total-momentum measurement.
    pub fn total_momentum(&self) -> Option<f64> {
        self.last_total
    }
}

impl Optimizer for ClosedLoopAdam {
    fn combine(
        &mut self,
        params: &[f32],
        grads: &[f32],
        _partials: Vec<StatsPartial>,
        grad_scale: f32,
    ) -> Hyper {
        assert_eq!(params.len(), grads.len(), "closed-loop adam: lengths");
        if self.v.is_empty() {
            self.v = vec![0.0; params.len()];
        }
        assert_eq!(
            self.v.len(),
            params.len(),
            "optimizer: parameter count changed between steps ({} -> {})",
            self.v.len(),
            params.len()
        );
        self.t += 1;
        let b1 = self.beta1 as f32;
        let bc1 = 1.0 - b1.powi(self.t.min(i32::MAX as u64) as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t.min(i32::MAX as u64) as i32);

        // Update the second moment first: Adam's step at time t is
        // x_{t+1} - x_t = beta1' (x_t - x_{t-1}) - lr e_t with the
        // *effective* gradient e_t = (1 - beta1) g_t / (bc1 (sqrt(v^) +
        // eps)), so Eq. 37 must be fed e_t, not g_t (an SGD-form
        // correction would mis-measure the preconditioned system). The
        // sweep is elementwise, so it fans out over the worker pool and an
        // enclosing middleware's grad_scale folds in per element; the
        // effective-gradient buffer is reused across steps.
        self.effective.resize(params.len(), 0.0);
        let (beta2, lr) = (self.beta2, self.lr);
        let threads = parallel::threads_for(params.len());
        parallel::chunks_mut2(
            &mut self.v,
            1,
            &mut self.effective,
            1,
            Par::threads(threads),
            |first, vc, ec| {
                for (i, (v, e)) in vc.iter_mut().zip(ec.iter_mut()).enumerate() {
                    let g = grad_scale * grads[first + i];
                    *v = beta2 * *v + (1.0 - beta2) * g * g;
                    let v_hat = *v / bc2;
                    *e = (1.0 - b1) * g / (bc1 * (v_hat.sqrt() + 1e-8));
                }
            },
        );
        if let Some(total) = self.estimator.observe(params, &self.effective, lr) {
            self.last_total = Some(total);
            self.beta1 += self.gamma * (self.target - total);
            self.beta1 = self.beta1.clamp(-0.95, 0.999);
        }
        // The applied β1 is the pre-feedback value, exactly as before the
        // split: the adjusted β1 takes effect from the next step.
        Hyper::new(self.lr, b1)
    }

    fn step_shard(&self, shard: ParamShard, params: &mut [f32], grads: &[f32], hyper: Hyper) {
        shard.validate(params, grads);
        let b1 = hyper.momentum;
        let bc1 = 1.0 - b1.powi(self.t.min(i32::MAX as u64) as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t.min(i32::MAX as u64) as i32);
        self.m.with(shard, params.len(), |bufs| {
            let m = &mut bufs[0];
            if m.is_empty() {
                m.resize(params.len(), 0.0);
            }
            for i in 0..params.len() {
                let g = hyper.grad_scale * grads[i];
                m[i] = b1 * m[i] + (1.0 - b1) * g;
                let m_hat = m[i] / bc1;
                let v_hat = self.v[shard.offset + i] / bc2;
                params[i] -= hyper.lr * m_hat / (v_hat.sqrt() + 1e-8);
            }
        });
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn name(&self) -> &'static str {
        "closed-loop-adam"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synchronous momentum SGD has total momentum exactly mu: feed the
    /// estimator a trajectory generated with known (mu, lr) and check.
    #[test]
    fn estimator_recovers_known_momentum_synchronous() {
        let (mu, lr) = (0.6f32, 0.05f32);
        let mut est = TotalMomentumEstimator::new(0);
        let dim = 8;
        let mut rng = yf_tensor::rng::Pcg32::seed(7);
        let mut x: Vec<f32> = (0..dim).map(|_| rng.normal()).collect();
        let mut x_prev = x.clone();
        let mut last = None;
        for _ in 0..50 {
            let g: Vec<f32> = x.to_vec(); // f = |x|^2/2
            if let Some(m) = est.observe(&x, &g, lr) {
                last = Some(m);
            }
            let x_next: Vec<f32> = (0..dim)
                .map(|i| x[i] - lr * g[i] + mu * (x[i] - x_prev[i]))
                .collect();
            x_prev = x.clone();
            x = x_next;
        }
        let m = last.expect("estimator should warm up");
        assert!((m - f64::from(mu)).abs() < 1e-3, "estimated {m}, true {mu}");
    }

    /// "Asynchrony begets momentum" (Mitliagkas et al. 2016): running
    /// *plain SGD* (mu = 0) with stale gradients must register a strictly
    /// positive total momentum, while the same run with fresh gradients
    /// registers none.
    #[test]
    fn estimator_detects_asynchrony_induced_momentum() {
        let measure = |tau: usize| -> f64 {
            let (lr, dim) = (0.02f32, 6);
            let mut est = TotalMomentumEstimator::new(tau);
            let mut rng = yf_tensor::rng::Pcg32::seed(8);
            let mut xs: Vec<Vec<f32>> = vec![(0..dim).map(|_| 1.0 + rng.uniform()).collect()];
            let mut last = None;
            for t in 0..120 {
                let x = xs[t].clone();
                // Stale gradient of f = |x|^2 / 2: computed on x_{t - tau}.
                let g: Vec<f32> = xs[t.saturating_sub(tau)].clone();
                if let Some(m) = est.observe(&x, &g, lr) {
                    last = Some(m);
                }
                let x_next: Vec<f32> = (0..dim).map(|i| x[i] - lr * g[i]).collect();
                xs.push(x_next);
            }
            last.expect("estimator should warm up")
        };
        let sync = measure(0);
        let async_mu = measure(5);
        assert!(sync.abs() < 1e-3, "synchronous SGD total momentum {sync}");
        assert!(
            async_mu > 0.02,
            "stale gradients must induce momentum, got {async_mu}"
        );
    }

    #[test]
    fn estimator_needs_warmup() {
        let mut est = TotalMomentumEstimator::new(3);
        for t in 0..(3 + 3) {
            let x = vec![t as f32; 4];
            let g = vec![1.0f32; 4];
            let m = est.observe(&x, &g, 0.1);
            if t < 3 + 3 - 1 {
                assert!(m.is_none(), "too early at t={t}");
            }
        }
    }

    #[test]
    fn closed_loop_converges_synchronously() {
        let mut opt = ClosedLoopYellowFin::new(YellowFinConfig::default(), 0, 0.01);
        let h = [1.0f32, 4.0];
        let mut x = vec![1.0f32, -1.0];
        for _ in 0..1500 {
            let g: Vec<f32> = x.iter().zip(h.iter()).map(|(&x, &h)| h * x).collect();
            opt.step(&mut x, &g);
        }
        let dist = (x[0] * x[0] + x[1] * x[1]).sqrt();
        assert!(dist < 5e-2, "distance {dist}");
    }

    #[test]
    fn algorithmic_momentum_stays_clamped() {
        let mut opt = ClosedLoopYellowFin::new(YellowFinConfig::default(), 2, 0.5);
        let mut x = vec![1.0f32; 4];
        for t in 0..300 {
            let g: Vec<f32> = x.iter().map(|&v| v + (t as f32 * 0.37).sin()).collect();
            opt.step(&mut x, &g);
            let mu = opt.algorithmic_momentum();
            assert!((-0.9..=0.999).contains(&mu), "mu {mu}");
        }
    }

    #[test]
    fn closed_loop_adam_converges_synchronously() {
        let mut opt = ClosedLoopAdam::new(0.05, 0.9, 0, 0.01);
        let mut x = vec![1.0f32, -1.0];
        for _ in 0..600 {
            let g: Vec<f32> = x.to_vec();
            opt.step(&mut x, &g);
        }
        let dist = (x[0] * x[0] + x[1] * x[1]).sqrt();
        assert!(dist < 0.05, "distance {dist}");
    }

    #[test]
    fn closed_loop_adam_lowers_beta1_under_staleness() {
        // Under stale gradients the measured total momentum exceeds the
        // target, so the controller must push beta1 below it.
        let tau = 7;
        let mut opt = ClosedLoopAdam::new(0.05, 0.9, tau, 0.02);
        let dim = 16;
        let mut rng = yf_tensor::rng::Pcg32::seed(17);
        let mut xs: Vec<Vec<f32>> = vec![(0..dim).map(|_| 1.0 + rng.uniform()).collect()];
        for t in 0..400usize {
            let mut x = xs[t].clone();
            let stale = xs[t.saturating_sub(tau)].clone();
            opt.step(&mut x, &stale); // grad of |x|^2/2 at the stale snapshot
            xs.push(x);
        }
        assert!(
            opt.beta1() < 0.9,
            "beta1 should drop below the target: {}",
            opt.beta1()
        );
        assert!(opt.total_momentum().is_some());
        assert!(xs.last().unwrap().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn closed_loop_adam_beta1_stays_in_range() {
        let mut opt = ClosedLoopAdam::new(0.1, 0.9, 3, 0.5);
        let mut x = vec![1.0f32; 4];
        for t in 0..200 {
            let g: Vec<f32> = x.iter().map(|&v| v + (t as f32 * 0.7).cos()).collect();
            opt.step(&mut x, &g);
            assert!((-0.95..=0.999).contains(&opt.beta1()), "{}", opt.beta1());
        }
    }
}
