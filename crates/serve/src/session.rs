//! One hosted tuning session: optimizer, quality filter, authority
//! state, and the deterministic measure → tune → clamp pipeline.
//!
//! A session is a pure function of its spec and the measurement stream
//! it has processed: every frame advances the step counter exactly once
//! (accepted *or* rejected — rejections update the filter envelope, so
//! they are part of the trajectory), and each accepted frame runs the
//! same pipeline an in-process trainer would. That determinism is the
//! whole restart story — resume from a snapshot, replay the measurement
//! stream from the snapshot's step, and the served [`Hyper`] stream is
//! bitwise identical to an uninterrupted run. The server's own restart
//! is the same: it restores a session's last sealed snapshot and replays
//! the logged frames through [`Session::measure`] and
//! [`Session::measure_stats`].
//!
//! ## Two feeds for YellowFin
//!
//! YellowFin's tuning decision reads the gradient only through `Σg²`
//! and the variance total `C`, so a `yellowfin` session holds the
//! scalar [`TunerCore`] and, only when it is fed gradients, the vector
//! [`GradVariance`]:
//!
//! - **gradient frames** ([`Session::measure`]): the session computes
//!   `Σg²`, and after the gate admits the frame sweeps the gradient into
//!   its own moments, which it allocates on its first gradient frame;
//! - **stats frames** ([`Session::measure_stats`]): the client owns the
//!   moments and sends `(step, loss, Σg², C)`; the session stores
//!   O(window) state whatever the model dimension.
//!
//! Both feeds run one scalar path — gate first, then
//! [`TunerCore::tune`] — so they serve the same bits. A session takes
//! one feed for its whole life: a stats frame to a session that has
//! taken gradient frames, or the reverse, is an error that leaves it
//! untouched. The six baseline optimizers read per-coordinate gradients
//! and take gradient frames only.

use crate::filter::QualityFilter;
use crate::proto::OpenSpec;
use crate::registry::{build_optimizer, yellowfin_config};
use crate::snapshot::SessionSnapshot;
use yellowfin::measurements::GradVariance;
use yellowfin::TunerCore;
use yf_optim::checkpoint::check_len;
use yf_optim::{Hyper, Optimizer};
use yf_tensor::reduce;

/// The server's verdict on one measurement.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Accepted: the authority-clamped hyperparameters for this step.
    Tuned { hyper: Hyper, clamped: bool },
    /// Rejected by the quality filter; the step still advanced.
    Rejected { reason: String },
}

/// What a session tunes with.
enum Tuner {
    /// A baseline optimizer, fed gradient frames through its `observe`.
    Baseline(Box<dyn Optimizer>),
    /// YellowFin's scalar half, plus its vector half once a gradient
    /// frame has arrived. `moments` is `None` on a stats-fed session.
    YellowFin {
        core: Box<TunerCore>,
        moments: Option<GradVariance>,
    },
}

/// One live tuning session.
pub struct Session {
    spec: OpenSpec,
    tuner: Tuner,
    filter: QualityFilter,
    step: u64,
    last: Option<Hyper>,
    /// The verdict on the most recent processed measurement, kept for
    /// idempotent replay: a client that lost the reply (reconnect,
    /// duplicated frame) re-sends step `step - 1` and gets this back
    /// without the session advancing — the key invariant that a retry
    /// can never double-advance a trajectory.
    last_outcome: Option<Outcome>,
}

impl Session {
    /// A fresh session from a validated spec.
    ///
    /// # Errors
    ///
    /// A human-readable reason (bad spec or unknown optimizer), relayed
    /// to the client as an `error` frame.
    pub fn new(spec: OpenSpec) -> Result<Session, String> {
        spec.validate()?;
        let tuner = if spec.optimizer == "yellowfin" {
            Tuner::YellowFin {
                core: Box::new(TunerCore::new(yellowfin_config(spec.value))),
                moments: None,
            }
        } else {
            Tuner::Baseline(
                build_optimizer(&spec.optimizer, spec.value)
                    .ok_or_else(|| format!("unknown optimizer {:?}", spec.optimizer))?,
            )
        };
        let filter = QualityFilter::new(spec.filter);
        Ok(Session {
            spec,
            tuner,
            filter,
            step: 0,
            last: None,
            last_outcome: None,
        })
    }

    /// The spec this session was opened with.
    pub fn spec(&self) -> &OpenSpec {
        &self.spec
    }

    /// The next measurement index this session expects.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Processes one gradient frame: screens it, feeds an accepted
    /// gradient to the optimizer, clamps the tuned proposal through the
    /// authority limits, and advances the step.
    ///
    /// Re-sending the immediately previous step (`self.step() - 1`) is
    /// idempotent: the cached verdict is returned and the session does
    /// not advance. That is exactly the frame a reconnecting client
    /// replays when the server processed its measurement but the reply
    /// was lost.
    ///
    /// # Errors
    ///
    /// Protocol errors (step or dimension mismatch, or a stats-fed
    /// session) that leave the session untouched — the client must
    /// resend the right frame.
    pub fn measure(&mut self, step: u64, loss: f32, grads: &[f32]) -> Result<Outcome, String> {
        if let Tuner::YellowFin { moments: None, .. } = self.tuner {
            if self.step > 0 {
                return Err("session is fed measure_stats frames, not gradients".to_string());
            }
        }
        if let Some(cached) = replay(self.step, &self.last_outcome, step)? {
            return Ok(cached);
        }
        if grads.len() != self.spec.dim {
            return Err(format!(
                "expected {} gradient elements, got {}",
                self.spec.dim,
                grads.len()
            ));
        }
        // The same blocked reduction the tuner's measure phase uses, so
        // the filter judges exactly the h = ||g||^2 the tuner sees.
        let sumsq = reduce::tree_reduce(&reduce::block_sumsq(grads));
        let judged = match &mut self.tuner {
            Tuner::Baseline(opt) => self.filter.admit(f64::from(loss), sumsq).map(|()| {
                // Registry optimizers read `params` only for its length,
                // so the gradient stands in for it: same bits, no copy.
                opt.observe(grads, grads)
            }),
            Tuner::YellowFin { core, moments } => {
                let beta = core.config().beta;
                let moments = moments.get_or_insert_with(|| GradVariance::new(beta));
                admit_and_tune(&mut self.filter, core, loss, sumsq, |scale| {
                    moments.observe_scaled(grads, scale, 1);
                    moments.variance()
                })
            }
        };
        Ok(self.record(judged))
    }

    /// Processes one stats frame: the scalar path of
    /// [`Session::measure`], with the client's `var_sum` (the variance
    /// total `C` of its own [`GradVariance`] after this step's sweep)
    /// in place of a sweep here. Replays are idempotent as for gradient
    /// frames.
    ///
    /// # Errors
    ///
    /// Protocol errors (step mismatch, a `var_sum` no sweep can produce,
    /// a baseline optimizer, or a session that has taken gradient
    /// frames) that leave the session untouched. A non-finite `sumsq`
    /// is not an error: the gate rejects it, as it does the norm of a
    /// non-finite gradient.
    pub fn measure_stats(
        &mut self,
        step: u64,
        loss: f32,
        sumsq: f64,
        var_sum: f64,
    ) -> Result<Outcome, String> {
        if !(var_sum.is_finite() && var_sum >= 0.0) {
            return Err(format!(
                "var_sum must be finite and non-negative, got {var_sum}"
            ));
        }
        self.measure_swept(step, loss, sumsq, |_| var_sum)
    }

    /// [`Session::measure_stats`] with the client's sweep deferred until
    /// the gate has admitted the measurement: `sweep` receives the total
    /// gradient scale (the clip factor) and returns `C`, and runs only on
    /// admission. A remote tuner's shadow session runs its one local
    /// sweep through here, so a rejected frame never touches the
    /// client's moments.
    ///
    /// # Errors
    ///
    /// As for [`Session::measure_stats`].
    pub fn measure_swept(
        &mut self,
        step: u64,
        loss: f32,
        sumsq: f64,
        sweep: impl FnOnce(f64) -> f64,
    ) -> Result<Outcome, String> {
        let Tuner::YellowFin { core, moments } = &mut self.tuner else {
            return Err(format!(
                "optimizer {:?} takes gradient frames, not measure_stats",
                self.spec.optimizer
            ));
        };
        if moments.is_some() {
            return Err("session is fed gradient frames, not measure_stats".to_string());
        }
        if let Some(cached) = replay(self.step, &self.last_outcome, step)? {
            return Ok(cached);
        }
        let judged = admit_and_tune(&mut self.filter, core, loss, sumsq, sweep);
        Ok(self.record(judged))
    }

    /// Clamps an admitted proposal, advances the step and caches the
    /// verdict.
    fn record(&mut self, judged: Result<Hyper, &'static str>) -> Outcome {
        let outcome = match judged {
            Err(reason) => Outcome::Rejected {
                reason: reason.to_string(),
            },
            Ok(tuned) => {
                let (hyper, clamped) = self.spec.authority.clamp(self.last, tuned);
                self.last = Some(hyper);
                Outcome::Tuned { hyper, clamped }
            }
        };
        self.step += 1;
        self.last_outcome = Some(outcome.clone());
        outcome
    }

    /// Captures the session's complete resumable state.
    pub fn snapshot(&self) -> SessionSnapshot {
        let (opt_state, moments) = match &self.tuner {
            Tuner::Baseline(opt) => (opt.checkpoint_state(), None),
            Tuner::YellowFin { core, moments } => (
                Some(core.save_state()),
                moments.as_ref().map(GradVariance::save_state),
            ),
        };
        SessionSnapshot {
            spec: self.spec.clone(),
            step: self.step,
            last: self.last,
            last_outcome: self.last_outcome.clone(),
            gate_state: self.filter.save_state(),
            opt_state,
            moments,
        }
    }

    /// Rebuilds a session from a snapshot; the continuation is bitwise
    /// identical to the session that wrote it, and it keeps the feed the
    /// snapshot records (gradient-fed when it has a moments block).
    ///
    /// # Errors
    ///
    /// A human-readable reason when the snapshot is internally
    /// inconsistent: its spec no longer validates, a state block fails
    /// to restore, its moments are not of the spec's dimension, a
    /// baseline snapshot carries moments, or its last served values lie
    /// outside the authority's bounds.
    pub fn restore(snap: SessionSnapshot) -> Result<Session, String> {
        let mut session = Session::new(snap.spec)?;
        if let Some(last) = snap.last {
            session.spec.authority.check_inside(last)?;
        }
        session.filter =
            QualityFilter::restore_state(&snap.gate_state).map_err(|e| e.to_string())?;
        match &mut session.tuner {
            Tuner::Baseline(opt) => {
                if snap.moments.is_some() {
                    return Err("a baseline optimizer has no gradient moments".to_string());
                }
                if let Some(text) = &snap.opt_state {
                    opt.restore_checkpoint(text).map_err(|e| e.to_string())?;
                }
            }
            Tuner::YellowFin { core, moments } => {
                let text = snap
                    .opt_state
                    .ok_or("yellowfin snapshot without tuner state")?;
                **core = TunerCore::restore_state(&text).map_err(|e| e.to_string())?;
                *moments = snap
                    .moments
                    .as_deref()
                    .map(GradVariance::restore_state)
                    .transpose()
                    .map_err(|e| e.to_string())?;
                let len = moments.as_ref().and_then(GradVariance::dim).unwrap_or(0);
                check_len("moments", len, Some(session.spec.dim)).map_err(|e| e.to_string())?;
            }
        }
        session.step = snap.step;
        session.last = snap.last;
        session.last_outcome = snap.last_outcome;
        Ok(session)
    }
}

/// The idempotent-replay and step checks shared by both feeds: the
/// cached verdict when `step` is the previous frame, `None` when it is
/// the expected one.
fn replay(next: u64, cached: &Option<Outcome>, step: u64) -> Result<Option<Outcome>, String> {
    if next > 0 && step == next - 1 {
        return match cached {
            Some(outcome) => Ok(Some(outcome.clone())),
            None => Err(format!(
                "step {step} was already processed and its verdict is gone (pre-upgrade snapshot)"
            )),
        };
    }
    if step != next {
        return Err(format!("expected step {next}, got {step}"));
    }
    Ok(None)
}

/// YellowFin's one scalar path: the gate judges `sumsq`, and only an
/// admitted measurement reaches the core (and so the sweep).
fn admit_and_tune(
    filter: &mut QualityFilter,
    core: &mut TunerCore,
    loss: f32,
    sumsq: f64,
    sweep: impl FnOnce(f64) -> f64,
) -> Result<Hyper, &'static str> {
    filter.admit(f64::from(loss), sumsq)?;
    Ok(core.tune(sumsq, 1.0, sweep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::Authority;
    use crate::filter::FilterSpec;
    use yf_tensor::rng::Pcg32;

    fn spec(optimizer: &str) -> OpenSpec {
        OpenSpec {
            session: "t".to_string(),
            optimizer: optimizer.to_string(),
            value: 0.1,
            dim: 8,
            authority: Authority::default(),
            filter: FilterSpec::default(),
        }
    }

    fn grad(rng: &mut Pcg32, dim: usize, scale: f32) -> Vec<f32> {
        (0..dim).map(|_| scale * (rng.uniform() - 0.5)).collect()
    }

    #[test]
    fn serves_the_same_hypers_as_an_in_process_tuner() {
        // A session with a wide-open authority envelope must relay the
        // raw `observe` stream bit-for-bit.
        let mut wide = spec("yellowfin");
        wide.value = 1.0;
        wide.authority.max_lr_step = 1e6;
        wide.authority.max_momentum_step = 1.0;
        wide.authority.lr_max = 1e6;
        let mut session = Session::new(wide.clone()).unwrap();
        let mut reference = build_optimizer("yellowfin", 1.0).unwrap();
        let zeros = vec![0.0f32; wide.dim];
        let mut rng = Pcg32::seed(7);
        for step in 0..40 {
            let g = grad(&mut rng, wide.dim, 1.0);
            let want = reference.observe(&zeros, &g);
            match session.measure(step, 0.5, &g).unwrap() {
                Outcome::Tuned { hyper, .. } => {
                    assert_eq!(hyper.lr.to_bits(), want.lr.to_bits(), "step {step}");
                    assert_eq!(hyper.momentum.to_bits(), want.momentum.to_bits());
                }
                Outcome::Rejected { reason } => panic!("step {step} rejected: {reason}"),
            }
        }
    }

    #[test]
    fn stats_fed_gradient_fed_and_in_process_tuners_agree_through_rejections() {
        // Four views of one seeded stream with 1e6 spikes the gate
        // rejects: a shadow that sweeps local moments after its gate
        // (the remote tuner's path), a server session fed the shadow's
        // stats frames, a gradient-fed session, and in-process YellowFin
        // fed the admitted gradients. The served streams must agree
        // bitwise, and a rejected frame must leave the moments alone.
        use yellowfin::measurements::GradVariance;
        use yellowfin::YellowFin;
        let mut wide = spec("yellowfin");
        wide.value = 1.0;
        wide.authority.max_lr_step = 1e6;
        wide.authority.max_momentum_step = 1.0;
        wide.authority.lr_max = 1e6;
        let mut shadow = Session::new(wide.clone()).unwrap();
        let mut by_stats = Session::new(wide.clone()).unwrap();
        let mut by_grads = Session::new(wide.clone()).unwrap();
        let mut moments = GradVariance::new(yellowfin_config(1.0).beta);
        let mut reference = YellowFin::new(yellowfin_config(1.0));
        let mut rng = Pcg32::seed(17);
        let mut rejected = 0;
        for step in 0..60 {
            let g = grad(&mut rng, wide.dim, if step % 11 == 10 { 1e6 } else { 1.0 });
            let sumsq = reduce::tree_reduce(&reduce::block_sumsq(&g));
            let before = moments.save_state();
            let mut var_sum = 0.0;
            let swept = shadow
                .measure_swept(step, 0.5, sumsq, |scale| {
                    moments.observe_scaled(&g, scale, 1);
                    var_sum = moments.variance();
                    var_sum
                })
                .unwrap();
            let served = by_stats.measure_stats(step, 0.5, sumsq, var_sum).unwrap();
            let fed = by_grads.measure(step, 0.5, &g).unwrap();
            assert_eq!(swept, served, "step {step}");
            assert_eq!(fed, served, "step {step}");
            match fed {
                Outcome::Rejected { .. } => {
                    rejected += 1;
                    assert_eq!(moments.save_state(), before, "step {step}");
                }
                Outcome::Tuned { hyper, .. } => {
                    let want = reference.observe(&g, &g);
                    assert_eq!(hyper.lr.to_bits(), want.lr.to_bits(), "step {step}");
                    assert_eq!(hyper.momentum.to_bits(), want.momentum.to_bits());
                    assert_eq!(hyper.grad_scale.to_bits(), want.grad_scale.to_bits());
                }
            }
        }
        assert_eq!(rejected, 5, "every spike is rejected");
    }

    #[test]
    fn a_session_takes_one_feed_and_baselines_take_gradients_only() {
        let g = [0.1f32; 8];
        let sumsq = reduce::tree_reduce(&reduce::block_sumsq(&g));
        let mut baseline = Session::new(spec("momentum")).unwrap();
        assert!(baseline.measure_stats(0, 0.5, sumsq, 0.0).is_err());
        assert_eq!(baseline.step(), 0);

        let mut by_grads = Session::new(spec("yellowfin")).unwrap();
        by_grads.measure(0, 0.5, &g).unwrap();
        let snap = by_grads.snapshot();
        assert!(by_grads.measure_stats(1, 0.5, sumsq, 0.0).is_err());
        assert_eq!(by_grads.snapshot(), snap, "a refused frame changes nothing");

        let mut by_stats = Session::new(spec("yellowfin")).unwrap();
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            assert!(by_stats.measure_stats(0, 0.5, sumsq, bad).is_err());
        }
        assert_eq!(by_stats.step(), 0, "a var_sum no sweep makes is refused");
        by_stats.measure_stats(0, 0.5, sumsq, 0.0).unwrap();
        let snap = by_stats.snapshot();
        assert!(
            snap.moments.is_none(),
            "a stats-fed session holds no moments"
        );
        assert!(by_stats.measure(1, 0.5, &g).is_err());
        assert_eq!(by_stats.snapshot(), snap, "a refused frame changes nothing");
        // The feed survives a snapshot round trip.
        let mut restored = Session::restore(snap).unwrap();
        assert!(restored.measure(1, 0.5, &g).is_err());
        assert!(restored.measure_stats(1, 0.5, sumsq, 0.0).is_ok());
    }

    #[test]
    fn step_and_dimension_mismatches_leave_the_session_untouched() {
        let mut s = Session::new(spec("momentum")).unwrap();
        assert!(s.measure(3, 0.5, &[0.1; 8]).is_err());
        assert!(s.measure(0, 0.5, &[0.1; 4]).is_err());
        assert_eq!(s.step(), 0, "failed frames must not advance the step");
        assert!(s.measure(0, 0.5, &[0.1; 8]).is_ok());
        assert_eq!(s.step(), 1);
    }

    #[test]
    fn replaying_the_previous_step_returns_the_cached_verdict_without_advancing() {
        let mut s = Session::new(spec("yellowfin")).unwrap();
        let mut rng = Pcg32::seed(5);
        let g0 = grad(&mut rng, 8, 1.0);
        let first = s.measure(0, 0.5, &g0).unwrap();
        assert_eq!(s.step(), 1);
        // A duplicated or replayed frame for step 0: same verdict, no
        // advance — even with different (late, mangled) payload bytes.
        let replay = s.measure(0, 9.9, &[0.0; 8]).unwrap();
        assert_eq!(replay, first);
        assert_eq!(s.step(), 1, "replay must not advance the session");
        // The trajectory continues exactly as if no replay happened,
        // and the replay cache survives a snapshot/restore cycle.
        let g1 = grad(&mut rng, 8, 1.0);
        let second = s.measure(1, 0.5, &g1).unwrap();
        let mut restored = Session::restore(s.snapshot()).unwrap();
        assert_eq!(restored.measure(1, 0.5, &g1).unwrap(), second);
        assert_eq!(restored.step(), 2);
        // Steps further back than the cache are still errors.
        assert!(restored.measure(0, 0.5, &g0).is_err());
    }

    #[test]
    fn rejected_measurements_advance_the_step() {
        let mut s = Session::new(spec("yellowfin")).unwrap();
        assert!(matches!(
            s.measure(0, f32::NAN, &[0.1; 8]).unwrap(),
            Outcome::Rejected { .. }
        ));
        assert_eq!(s.step(), 1);
        assert!(matches!(
            s.measure(1, 0.5, &[0.1; 8]).unwrap(),
            Outcome::Tuned { .. }
        ));
    }

    #[test]
    fn snapshot_resume_is_bitwise_identical() {
        for optimizer in ["yellowfin", "momentum", "adam"] {
            let mut a = Session::new(spec(optimizer)).unwrap();
            let mut rng = Pcg32::seed(11);
            let stream: Vec<Vec<f32>> = (0..60)
                .map(|i| grad(&mut rng, 8, if i % 13 == 12 { 1e6 } else { 1.0 }))
                .collect();
            for (i, g) in stream.iter().enumerate().take(25) {
                a.measure(i as u64, 0.5, g).unwrap();
            }
            let mut b = Session::restore(a.snapshot()).unwrap();
            assert_eq!(b.step(), 25);
            for (i, g) in stream.iter().enumerate().skip(25) {
                let x = a.measure(i as u64, 0.5, g).unwrap();
                let y = b.measure(i as u64, 0.5, g).unwrap();
                match (&x, &y) {
                    (Outcome::Tuned { hyper: hx, .. }, Outcome::Tuned { hyper: hy, .. }) => {
                        assert_eq!(hx.lr.to_bits(), hy.lr.to_bits(), "{optimizer} step {i}");
                        assert_eq!(hx.momentum.to_bits(), hy.momentum.to_bits());
                        assert_eq!(hx.grad_scale.to_bits(), hy.grad_scale.to_bits());
                    }
                    _ => assert_eq!(x, y, "{optimizer} step {i}"),
                }
            }
        }
    }

    #[test]
    fn restore_refuses_last_values_outside_the_bounds_and_moments_of_another_dim() {
        let mut s = Session::new(spec("yellowfin")).unwrap();
        let mut rng = Pcg32::seed(5);
        for step in 0..5 {
            s.measure(step, 0.5, &grad(&mut rng, 8, 1.0)).unwrap();
        }
        let snap = s.snapshot();
        assert!(Session::restore(snap.clone()).is_ok());
        let a = Authority::default();
        let last = snap.last.unwrap();
        for bad in [
            Hyper { lr: -1.0, ..last },
            Hyper { lr: 0.0, ..last },
            Hyper {
                lr: f32::NAN,
                ..last
            },
            Hyper {
                lr: a.lr_max * 2.0,
                ..last
            },
            Hyper {
                momentum: 1.0,
                ..last
            },
        ] {
            let mut bad_snap = snap.clone();
            bad_snap.last = Some(bad);
            let err = Session::restore(bad_snap).err().expect("refused");
            assert!(err.contains("bounds"), "{err}");
        }
        let mut other = Session::new(OpenSpec {
            dim: 4,
            ..spec("yellowfin")
        })
        .unwrap();
        other.measure(0, 0.5, &grad(&mut rng, 4, 1.0)).unwrap();
        let mut mixed = snap.clone();
        mixed.moments = other.snapshot().moments;
        let err = Session::restore(mixed).err().expect("refused");
        assert!(err.contains("dim 8"), "{err}");
    }

    #[test]
    fn authority_keeps_the_served_stream_inside_the_envelope() {
        let mut s = Session::new(spec("yellowfin")).unwrap();
        let a = Authority::default();
        let mut rng = Pcg32::seed(3);
        let mut prev: Option<Hyper> = None;
        for step in 0..50 {
            let g = grad(&mut rng, 8, 1.0);
            if let Outcome::Tuned { hyper, .. } = s.measure(step, 0.5, &g).unwrap() {
                assert!(hyper.lr >= a.lr_min && hyper.lr <= a.lr_max);
                assert!(hyper.momentum >= a.momentum_min && hyper.momentum <= a.momentum_max);
                if let Some(p) = prev {
                    assert!(hyper.lr <= p.lr * (1.0 + a.max_lr_step) * (1.0 + 1e-6));
                    assert!(hyper.momentum <= p.momentum + a.max_momentum_step + 1e-6);
                }
                prev = Some(hyper);
            }
        }
        assert!(prev.is_some(), "at least one measurement must be accepted");
    }
}
