//! One hosted tuning session: optimizer, quality filter, authority
//! state, and the deterministic measure → tune → clamp pipeline.
//!
//! A session is a pure function of its spec and the measurement stream
//! it has processed: every frame advances the step counter exactly once
//! (accepted *or* rejected — rejections update the filter envelope, so
//! they are part of the trajectory), and each accepted frame runs the
//! same sharded observe/combine pipeline an in-process trainer would.
//! That determinism is the whole restart story — resume from a
//! snapshot, replay the measurement stream from the snapshot's step,
//! and the served [`Hyper`] stream is bitwise identical to an
//! uninterrupted run.

use crate::filter::QualityFilter;
use crate::proto::OpenSpec;
use crate::registry::build_optimizer;
use crate::snapshot::SessionSnapshot;
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

/// One live tuning session.
pub struct Session {
    spec: OpenSpec,
    opt: Box<dyn Optimizer>,
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
        let opt = build_optimizer(&spec.optimizer, spec.value)
            .ok_or_else(|| format!("unknown optimizer {:?}", spec.optimizer))?;
        let filter = QualityFilter::new(spec.filter);
        Ok(Session {
            spec,
            opt,
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

    /// Processes one measurement: screens it, feeds accepted gradients
    /// through the optimizer's `observe`, clamps the tuned
    /// proposal through the authority limits, and advances the step.
    ///
    /// Re-sending the immediately previous step (`self.step() - 1`) is
    /// idempotent: the cached verdict is returned and the session does
    /// not advance. That is exactly the frame a reconnecting client
    /// replays when the server processed its measurement but the reply
    /// was lost.
    ///
    /// # Errors
    ///
    /// Protocol errors (step or dimension mismatch) that leave the
    /// session untouched — the client must resend the right frame.
    pub fn measure(&mut self, step: u64, loss: f32, grads: &[f32]) -> Result<Outcome, String> {
        if self.step > 0 && step == self.step - 1 {
            if let Some(outcome) = &self.last_outcome {
                return Ok(outcome.clone());
            }
            return Err(format!(
                "step {step} was already processed and its verdict is gone (pre-upgrade snapshot)"
            ));
        }
        if step != self.step {
            return Err(format!("expected step {}, got {step}", self.step));
        }
        if grads.len() != self.spec.dim {
            return Err(format!(
                "expected {} gradient elements, got {}",
                self.spec.dim,
                grads.len()
            ));
        }
        // The same blocked reduction the tuner uses internally, so the
        // filter judges exactly the h = ||g||^2 the tuner would see.
        let h = reduce::tree_reduce(&reduce::block_sumsq(grads));
        let outcome = match self.filter.admit(f64::from(loss), h) {
            Err(reason) => Outcome::Rejected {
                reason: reason.to_string(),
            },
            Ok(()) => {
                // Registry optimizers read `params` only for its length,
                // so the gradient stands in for it: same bits, no copy.
                let tuned = self.opt.observe(grads, grads);
                let (hyper, clamped) = self.spec.authority.clamp(self.last, tuned);
                self.last = Some(hyper);
                Outcome::Tuned { hyper, clamped }
            }
        };
        self.step += 1;
        self.last_outcome = Some(outcome.clone());
        Ok(outcome)
    }

    /// Captures the session's complete resumable state.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            spec: self.spec.clone(),
            step: self.step,
            last: self.last,
            last_outcome: self.last_outcome.clone(),
            gate_state: self.filter.save_state(),
            opt_state: self.opt.checkpoint_state(),
        }
    }

    /// Rebuilds a session from a snapshot; the continuation is bitwise
    /// identical to the session that wrote it.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the snapshot is internally
    /// inconsistent (its spec no longer validates, or a state block
    /// fails to restore).
    pub fn restore(snap: SessionSnapshot) -> Result<Session, String> {
        let mut session = Session::new(snap.spec)?;
        session.filter = QualityFilter::restore_state(&snap.gate_state)?;
        if let Some(text) = &snap.opt_state {
            session
                .opt
                .restore_checkpoint(text)
                .map_err(|e| e.to_string())?;
        }
        session.step = snap.step;
        session.last = snap.last;
        session.last_outcome = snap.last_outcome;
        Ok(session)
    }
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
