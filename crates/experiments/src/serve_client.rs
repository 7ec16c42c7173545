//! Training against a remote tuner: the `yf-serve` client library.
//!
//! [`RemoteTuner`] splits YellowFin across the network along its scalar
//! seam. The tuning decision reads the gradient only through `Σg²` and
//! the variance total `C`, so the trainer keeps the vector half — the
//! per-coordinate gradient moments ([`GradVariance`]) and the apply
//! velocity — and streams four scalars per step, `(step, loss, Σg², C)`,
//! as one `measure_stats` frame. The server's session runs the scalar
//! half ([`yellowfin::TunerCore`]), the quality gate and the authority
//! clamp, and logs one short record per step. The apply phase is a
//! plain Polyak [`MomentumSgd`] whose `step_shard` applies whatever
//! [`Hyper`] came back on the wire; since YellowFin's own apply phase is
//! the identical `momentum_step` kernel, a trainer driving a
//! [`RemoteTuner`] takes parameter steps bitwise identical to one
//! running the tuner in process. That replay is why only `yellowfin`
//! specs are accepted.
//!
//! Each step the tuner takes `Σg²` from the measure phase's partial
//! reductions, lets its shadow session's gate judge the measurement,
//! and only on admission sweeps the gradient into its moments — once —
//! with the clip scale the shadow's core reports. The resulting stats go
//! on the wire and into the replay buffer.
//!
//! # Surviving the network
//!
//! The tuner assumes the network will fail and is built to keep the
//! trajectory bit-exact anyway:
//!
//! - **Shadow session.** Every measurement also feeds a local,
//!   stats-fed [`Session`] built from the same spec. Sessions are
//!   deterministic pure functions of their measurement stream, so the
//!   shadow's verdicts are bitwise identical to the server's — it is a
//!   hot spare, not an approximation. It holds O(window) state, so it
//!   is always present. If the server's verdict ever differs from the
//!   shadow's, the shadow and the local moments are the consistent
//!   pair: the tuner abandons the server and the shadow serves.
//! - **Replay buffer + reconnect.** Measurements stay buffered until a
//!   server reply acknowledges them. On any transport failure the tuner
//!   reconnects (deadlines from [`ClientConfig`], the deterministic
//!   [`Backoff`] schedule), re-opens the session by name, and
//!   reconciles from the server's `opened{step}` replay point: already
//!   processed measurements whose replies were lost are re-sent and
//!   answered idempotently from the session's cached verdict, the rest
//!   replay in order, one lock-step round-trip each. Any fault
//!   schedule that eventually reconnects therefore yields a Hyper
//!   trajectory bitwise identical to the fault-free run.
//! - **Graceful degradation.** When the server stays unreachable past
//!   [`RemoteTunerConfig::degrade_after`], the tuner serves the
//!   shadow's verdicts instead of hanging; [`RemoteTuner::degraded`]
//!   flags those steps to the trainer and
//!   [`RemoteTuner::degraded_steps`] counts them. While degraded it
//!   probes for the server at exponentially spaced step counts and
//!   resyncs (replaying the buffer) when the server returns. If the
//!   buffer would exceed [`RemoteTunerConfig::resync_limit`], the
//!   server is abandoned and the shadow serves for good.
//!
//! # Resuming mid-stream
//!
//! [`Optimizer::checkpoint_state`] carries the moments, the shadow's
//! scalar state, the apply velocity and the step, so
//! [`crate::trainer::train_resumable`] checkpoints a served trainer like
//! any other. A tuner opened on a session already past step 0 has no
//! moments to measure with: restore the trainer's checkpoint into it
//! ([`Optimizer::restore_checkpoint`]) before its first step, or that
//! step panics naming the fix.
//!
//! Rejected measurements (the server's quality filter) come back as a
//! zero-learning-rate [`Hyper`] until the first accepted frame, or the
//! last served values afterwards — the trainer skips or repeats the
//! tuned update rather than applying a poisoned one.

use std::collections::VecDeque;
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::{Duration, Instant};
use yellowfin::measurements::GradVariance;
use yf_optim::checkpoint::{check_len, Fields, OptStateError, StateWriter};
use yf_optim::{Hyper, MomentumSgd, Optimizer, ParamShard, StatsPartial};
use yf_serve::registry::yellowfin_config;
use yf_serve::{
    snapshot, Backoff, Client, ClientConfig, ClientError, MeasureReply, OpenSpec, Outcome, Session,
};
use yf_tensor::{env, reduce};

/// Robustness policy for a [`RemoteTuner`].
/// [`RemoteTunerConfig::from_env`] layers the `YF_SERVE_CLIENT_*` knobs
/// over these defaults with the workspace's warn-and-default parsing.
#[derive(Debug, Clone, Copy)]
pub struct RemoteTunerConfig {
    /// Connect/read/write deadlines for every connection.
    pub client: ClientConfig,
    /// Reconnect schedule during an outage (deterministic, capped
    /// exponential).
    pub backoff: Backoff,
    /// How long one outage may block training before the shadow tuner
    /// takes over (`YF_SERVE_CLIENT_DEGRADE_MS`).
    pub degrade_after: Duration,
    /// Maximum buffered unacknowledged measurements; past this the
    /// server is abandoned and the shadow serves permanently
    /// (`YF_SERVE_CLIENT_RESYNC_LIMIT`).
    pub resync_limit: usize,
    /// Ceiling, in steps, between reconnect probes while degraded
    /// (`YF_SERVE_CLIENT_PROBE_CAP`).
    pub probe_cap: u64,
}

impl Default for RemoteTunerConfig {
    fn default() -> Self {
        RemoteTunerConfig {
            client: ClientConfig::default(),
            backoff: Backoff::default(),
            degrade_after: Duration::from_secs(10),
            resync_limit: 4096,
            probe_cap: 64,
        }
    }
}

impl RemoteTunerConfig {
    /// The defaults with every `YF_SERVE_CLIENT_*` override applied
    /// (hardened parsing: malformed values warn on stderr and fall
    /// back).
    pub fn from_env() -> RemoteTunerConfig {
        let mut cfg = RemoteTunerConfig {
            client: ClientConfig::from_env(),
            ..RemoteTunerConfig::default()
        };
        let ms = |raw: &str| raw.trim().parse::<u64>().ok().filter(|&n| n > 0);
        if let Some(n) = env::parse_with("YF_SERVE_CLIENT_BACKOFF_MS", ms) {
            cfg.backoff.base = Duration::from_millis(n);
        }
        if let Some(n) = env::parse_with("YF_SERVE_CLIENT_BACKOFF_CAP_MS", ms) {
            cfg.backoff.cap = Duration::from_millis(n);
        }
        if let Some(n) = env::parse_with("YF_SERVE_CLIENT_DEGRADE_MS", ms) {
            cfg.degrade_after = Duration::from_millis(n);
        }
        if let Some(n) = env::positive_usize("YF_SERVE_CLIENT_RESYNC_LIMIT") {
            cfg.resync_limit = n;
        }
        if let Some(n) = env::parse_with("YF_SERVE_CLIENT_PROBE_CAP", ms) {
            cfg.probe_cap = n;
        }
        cfg
    }
}

/// One not-yet-acknowledged measurement, kept for reconnect replay: the
/// payload of its `measure_stats` frame.
struct Measurement {
    step: u64,
    loss: f32,
    sumsq: f64,
    var_sum: f64,
}

/// The connection state machine.
enum Link {
    /// Connected; the session is attached and in lockstep.
    Live(Client),
    /// Outage past the degradation budget: the shadow serves while the
    /// tuner probes for the server at `probe_at`, widening `probe_gap`
    /// exponentially (capped) after each failed probe.
    Down { probe_at: u64, probe_gap: u64 },
    /// The server was abandoned (replay buffer overflow or an
    /// unrecoverable divergence); the shadow serves permanently.
    Abandoned,
}

/// Why one reconnect-and-resync attempt failed.
enum ResyncError {
    /// Worth retrying (connect refused, timeout, server error).
    Transient,
    /// The server can never again serve this trajectory (it is ahead of
    /// or behind anything we can replay); abandon it.
    Fatal(String),
}

/// An [`Optimizer`] whose scalar measure phase runs in a `yf-serve`
/// session, hardened against network failure. See the module docs for
/// the full robustness contract.
pub struct RemoteTuner {
    addrs: Vec<SocketAddr>,
    spec: OpenSpec,
    cfg: RemoteTunerConfig,
    link: Link,
    /// The local hot spare: a stats-fed deterministic twin of the
    /// server-side session.
    shadow: Session,
    /// YellowFin's vector half: the gradient moments, swept once per
    /// admitted step.
    moments: GradVariance,
    /// Measurements sent (or owed) to the server but not yet
    /// acknowledged by a reply. Length 1 in the live steady state; grows
    /// while degraded; drained by a resync.
    pending: VecDeque<Measurement>,
    step: u64,
    loss: f32,
    /// Local apply engine: holds the velocity state and applies the
    /// served [`Hyper`] with the same fused kernel YellowFin uses.
    apply: MomentumSgd,
    last: Hyper,
    degraded_now: bool,
    degraded_steps: u64,
}

/// The served values before the first accepted measurement: no update.
const NO_UPDATE: Hyper = Hyper {
    lr: 0.0,
    momentum: 0.0,
    grad_scale: 1.0,
};

impl RemoteTuner {
    /// Connects and opens (or resumes) the session described by `spec`,
    /// with the robustness policy from the environment
    /// ([`RemoteTunerConfig::from_env`]).
    ///
    /// # Errors
    ///
    /// As for [`RemoteTuner::connect_with`].
    pub fn connect(addr: impl ToSocketAddrs, spec: OpenSpec) -> Result<RemoteTuner, ClientError> {
        RemoteTuner::connect_with(addr, spec, RemoteTunerConfig::from_env())
    }

    /// Connects with an explicit robustness policy.
    ///
    /// # Errors
    ///
    /// [`ClientError::Unsupported`] for a spec naming an optimizer other
    /// than `yellowfin` (only YellowFin's apply step is the momentum step
    /// this tuner replays); transport failures, or the server's
    /// rejection reason.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        spec: OpenSpec,
        cfg: RemoteTunerConfig,
    ) -> Result<RemoteTuner, ClientError> {
        if spec.optimizer != "yellowfin" {
            return Err(ClientError::Unsupported(format!(
                "a remote tuner serves yellowfin only, not {:?}",
                spec.optimizer
            )));
        }
        let shadow = Session::new(spec.clone()).map_err(ClientError::Server)?;
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let mut client = Client::connect_with(&addrs[..], &cfg.client)?;
        let step = client.open(spec.clone())?;
        Ok(RemoteTuner {
            addrs,
            moments: GradVariance::new(yellowfin_config(spec.value).beta),
            spec,
            cfg,
            link: Link::Live(client),
            shadow,
            pending: VecDeque::new(),
            step,
            loss: 0.0,
            apply: MomentumSgd::new(0.0, 0.0),
            last: NO_UPDATE,
            degraded_now: false,
            degraded_steps: 0,
        })
    }

    /// The next measurement index the server expects — 0 for a fresh
    /// session, the replay point after a resume.
    pub fn next_step(&self) -> u64 {
        self.step
    }

    /// Feeds the current training loss into the next measurement (the
    /// server's quality filter screens it; the tuner itself is
    /// loss-free). Defaults to 0.0 when never called.
    pub fn set_loss(&mut self, loss: f32) {
        self.loss = loss;
    }

    /// Whether the *last* step was served by the local shadow tuner
    /// (server unreachable) rather than the server.
    pub fn degraded(&self) -> bool {
        self.degraded_now
    }

    /// Total steps served by the shadow tuner so far.
    pub fn degraded_steps(&self) -> u64 {
        self.degraded_steps
    }

    /// The most recently served hyperparameters.
    pub fn last_hyper(&self) -> Hyper {
        self.last
    }

    /// Detaches the session server-side (it stays resumable) and
    /// returns the underlying client for further protocol use.
    ///
    /// # Errors
    ///
    /// Transport failures, the server's rejection reason, or
    /// [`ClientError::Io`] with `NotConnected` when the tuner is
    /// degraded or abandoned (there is no live connection to detach
    /// through).
    pub fn detach(self) -> Result<Client, ClientError> {
        let session = self.spec.session;
        match self.link {
            Link::Live(mut client) => {
                client.close_session(&session)?;
                Ok(client)
            }
            Link::Down { .. } | Link::Abandoned => Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                format!("session {session:?} has no live server connection"),
            ))),
        }
    }

    /// This step's verdict: the server's when it answers and agrees with
    /// the shadow, the shadow's (flagged degraded) otherwise.
    fn tune(&mut self, step: u64, shadow: Outcome) -> Outcome {
        match self.server_verdict(step) {
            Some(served) if outcomes_match(&served, &shadow) => {
                self.degraded_now = false;
                served
            }
            Some(served) => {
                self.abandon(&format!(
                    "the server's verdict {served:?} diverged from the shadow's {shadow:?}"
                ));
                self.degraded_outcome(shadow)
            }
            None => self.degraded_outcome(shadow),
        }
    }

    /// The server's verdict for the current step, through whatever the
    /// link state demands: a live round-trip, a blocking reconnect loop
    /// on a fresh outage, or a scheduled probe while degraded. `None`
    /// when the shadow must serve the step.
    fn server_verdict(&mut self, step: u64) -> Option<Outcome> {
        let probe_gap = match &mut self.link {
            Link::Live(client) => {
                // One round-trip for the already-buffered current
                // measurement.
                let m = self
                    .pending
                    .back()
                    .expect("live tune always has the current measurement buffered");
                match client.measure_stats(&self.spec.session, m.step, m.loss, m.sumsq, m.var_sum) {
                    Ok(reply) => {
                        self.pending.clear();
                        return Some(reply_to_outcome(reply));
                    }
                    Err(e) => {
                        eprintln!(
                            "remote tuner ({}): step {step}: {e}; reconnecting",
                            self.spec.session
                        );
                        return self.fresh_outage(step);
                    }
                }
            }
            Link::Abandoned => return None,
            Link::Down { probe_at, .. } if step < *probe_at => return None,
            Link::Down { probe_gap, .. } => *probe_gap,
        };
        match self.try_resync() {
            Ok(out) => Some(out),
            Err(ResyncError::Fatal(reason)) => {
                self.abandon(&reason);
                None
            }
            Err(ResyncError::Transient) => {
                let gap = probe_gap.saturating_mul(2).min(self.cfg.probe_cap.max(1));
                self.link = Link::Down {
                    probe_at: step + gap,
                    probe_gap: gap,
                };
                None
            }
        }
    }

    /// A live connection just failed: retry with backoff until the
    /// degradation budget runs out, then hand over to the shadow.
    fn fresh_outage(&mut self, step: u64) -> Option<Outcome> {
        let budget = Instant::now() + self.cfg.degrade_after;
        let mut attempt = 0u32;
        loop {
            match self.try_resync() {
                Ok(out) => return Some(out),
                Err(ResyncError::Fatal(reason)) => {
                    self.abandon(&reason);
                    return None;
                }
                Err(ResyncError::Transient) => {}
            }
            let delay = self.cfg.backoff.delay(attempt);
            attempt += 1;
            if Instant::now() + delay >= budget {
                break;
            }
            std::thread::sleep(delay);
        }
        eprintln!(
            "remote tuner ({}): server unreachable for {:?}; degrading to the shadow tuner",
            self.spec.session, self.cfg.degrade_after
        );
        self.link = Link::Down {
            probe_at: step + 1,
            probe_gap: 1,
        };
        None
    }

    /// One reconnect attempt: dial, re-open the session by name, and
    /// reconcile from the server's `opened{step}` replay point by
    /// replaying the pending buffer in order. The reply to the newest
    /// (current) measurement becomes this step's verdict; on success the
    /// link is live and the buffer is drained.
    fn try_resync(&mut self) -> Result<Outcome, ResyncError> {
        let mut client = Client::connect_with(&self.addrs[..], &self.cfg.client)
            .map_err(|_| ResyncError::Transient)?;
        let server_step = client
            .open(self.spec.clone())
            .map_err(|_| ResyncError::Transient)?;
        let newest = self
            .pending
            .back()
            .expect("resync always has the current measurement buffered")
            .step;
        if server_step > newest + 1 {
            return Err(ResyncError::Fatal(format!(
                "server is at step {server_step}, ahead of this trainer's step {newest}: \
                 another client drove the session"
            )));
        }
        let oldest = self.pending.front().expect("non-empty buffer").step;
        if server_step < oldest {
            return Err(ResyncError::Fatal(format!(
                "server re-opened at step {server_step}, below the oldest buffered \
                 measurement {oldest}: its snapshots were lost and replay is impossible"
            )));
        }
        // Entries older than the session's idempotent-replay window
        // (everything before step `server_step - 1`) were acknowledged
        // in a previous life and can never be replayed; drop them. The
        // newest entry always stays: its reply is this step's verdict.
        while self.pending.len() > 1
            && self.pending.front().expect("non-empty buffer").step + 1 < server_step
        {
            self.pending.pop_front();
        }
        // Replay in order, lock-step; the last verdict — the newest
        // measurement's — is this step's outcome.
        let mut reply = None;
        for m in &self.pending {
            reply = Some(
                client
                    .measure_stats(&self.spec.session, m.step, m.loss, m.sumsq, m.var_sum)
                    .map_err(|_| ResyncError::Transient)?,
            );
        }
        let reply = reply.expect("resync always has the current measurement buffered");
        self.pending.clear();
        self.link = Link::Live(client);
        Ok(reply_to_outcome(reply))
    }

    /// Permanently gives up on the server; the shadow serves from here.
    fn abandon(&mut self, reason: &str) {
        eprintln!(
            "remote tuner ({}): {reason}; abandoning the server, the shadow tuner takes over",
            self.spec.session
        );
        self.link = Link::Abandoned;
        self.pending.clear();
    }

    /// Serves the shadow's verdict for a step the server did not.
    fn degraded_outcome(&mut self, shadow: Outcome) -> Outcome {
        self.degraded_now = true;
        self.degraded_steps += 1;
        shadow
    }
}

fn reply_to_outcome(reply: MeasureReply) -> Outcome {
    match reply {
        MeasureReply::Tuned { hyper, clamped } => Outcome::Tuned { hyper, clamped },
        MeasureReply::Rejected { reason } => Outcome::Rejected { reason },
    }
}

/// Bitwise verdict equality (float fields compared as bit patterns;
/// rejection reasons compare as rejections regardless of wording).
fn outcomes_match(a: &Outcome, b: &Outcome) -> bool {
    match (a, b) {
        (
            Outcome::Tuned {
                hyper: x,
                clamped: cx,
            },
            Outcome::Tuned {
                hyper: y,
                clamped: cy,
            },
        ) => {
            cx == cy
                && x.lr.to_bits() == y.lr.to_bits()
                && x.momentum.to_bits() == y.momentum.to_bits()
                && x.grad_scale.to_bits() == y.grad_scale.to_bits()
        }
        (Outcome::Rejected { .. }, Outcome::Rejected { .. }) => true,
        _ => false,
    }
}

/// First line of a [`RemoteTuner`] checkpoint. The apply engine's
/// checkpoint follows as a line-counted block, then the shadow's session
/// snapshot carrying the trainer's moments as its moments block.
const CHECKPOINT_HEADER: &str = "remote-tuner v1";

impl Optimizer for RemoteTuner {
    /// Judges the measurement on the shadow, sweeps an admitted gradient
    /// into the local moments, streams the stats to the server and
    /// returns the served (authority-clamped) hyperparameters; on an
    /// outage, reconnects with backoff and replays, or degrades to the
    /// shadow per the module contract.
    ///
    /// # Panics
    ///
    /// When the gradient's length is not the spec's `dim`, or when the
    /// tuner was opened on a session past step 0 and no checkpoint was
    /// restored into it: it has no moments to measure with.
    fn combine(
        &mut self,
        _params: &[f32],
        grads: &[f32],
        partials: Vec<StatsPartial>,
        grad_scale: f32,
    ) -> Hyper {
        assert_eq!(
            grads.len(),
            self.spec.dim,
            "remote tuner ({}): the session was opened for {} gradient elements",
            self.spec.session,
            self.spec.dim
        );
        let step = self.step;
        assert!(
            self.shadow.step() == step,
            "remote tuner ({}): the session is at step {step} but this tuner holds no \
             gradient moments for it; restore the trainer's checkpoint with \
             restore_checkpoint before the first step",
            self.spec.session
        );
        // Sessions tune with no middleware scale, so an enclosing
        // middleware's scale is applied to a copy of the gradient before
        // it is measured: the stats are those of the scaled gradient.
        let scaled: Vec<f32>;
        let (grads, sumsq) = if grad_scale == 1.0 {
            (grads, StatsPartial::merge_sums(&partials, grads.len()))
        } else {
            scaled = grads.iter().map(|&g| grad_scale * g).collect();
            let sumsq = reduce::tree_reduce(&reduce::block_sumsq(&scaled));
            (&scaled[..], sumsq)
        };
        let loss = self.loss;
        let threads = partials.len().max(1);
        let moments = &mut self.moments;
        let mut var_sum = 0.0;
        let shadow_out = self
            .shadow
            .measure_swept(step, loss, sumsq, |scale| {
                moments.observe_scaled(grads, scale, threads);
                var_sum = moments.variance();
                var_sum
            })
            .unwrap_or_else(|e| panic!("remote tuner shadow: {e}"));
        if !matches!(self.link, Link::Abandoned) {
            if self.pending.len() >= self.cfg.resync_limit {
                self.abandon(&format!(
                    "replay buffer hit its limit ({} measurements unacknowledged)",
                    self.cfg.resync_limit
                ));
            } else {
                self.pending.push_back(Measurement {
                    step,
                    loss,
                    sumsq,
                    var_sum,
                });
            }
        }
        let outcome = self.tune(step, shadow_out);
        self.step += 1;
        if let Outcome::Tuned { hyper, .. } = outcome {
            self.last = hyper;
        }
        self.last
    }

    fn needs_observe_partials(&self) -> bool {
        true
    }

    fn step_shard(&self, shard: ParamShard, params: &mut [f32], grads: &[f32], hyper: Hyper) {
        self.apply.step_shard(shard, params, grads, hyper);
    }

    /// The moments, the shadow's scalar state, the apply velocity and
    /// the step: everything a fresh tuner needs to continue this
    /// trajectory against the same server session.
    fn checkpoint_state(&self) -> Option<String> {
        let mut snap = self.shadow.snapshot();
        snap.moments = Some(self.moments.save_state());
        let mut w = StateWriter::header(CHECKPOINT_HEADER);
        w.counted("apply_lines", Some(&self.apply.checkpoint_state()?));
        w.text(&snapshot::encode(&snap));
        Some(w.finish())
    }

    /// Restores a [`RemoteTuner`] checkpoint. The server session may be
    /// at the checkpoint's step, or one past it (that step is answered
    /// from the session's cached verdict); a server at any other step
    /// cannot continue this trajectory, so the first step abandons it
    /// and the shadow serves.
    fn restore_checkpoint(&mut self, text: &str) -> Result<(), OptStateError> {
        let bad = |what: &str| OptStateError::new(format!("remote tuner checkpoint: {what}"));
        let mut f = Fields::new(text, CHECKPOINT_HEADER)?;
        let apply_text = f
            .block("apply_lines")?
            .ok_or_else(|| bad("no apply block"))?;
        let mut snap = snapshot::decode(&f.rest()?)?;
        if !snap.spec.matches(&self.spec) {
            return Err(bad("its session spec differs from this tuner's"));
        }
        snap.spec = self.spec.clone();
        let moments = snap
            .moments
            .take()
            .ok_or_else(|| bad("no gradient moments"))?;
        let moments = GradVariance::restore_state(&moments)?;
        let mut apply = MomentumSgd::new(0.0, 0.0);
        apply.restore_checkpoint(&apply_text)?;
        let dim = Some(self.spec.dim);
        check_len("moments", moments.dim().unwrap_or(0), dim)?;
        check_len("velocity", apply.velocity().len(), dim)?;
        let (step, last) = (snap.step, snap.last.unwrap_or(NO_UPDATE));
        self.shadow = Session::restore(snap).map_err(|e| bad(&e))?;
        self.moments = moments;
        self.apply = apply;
        self.step = step;
        self.last = last;
        self.pending.clear();
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.last.lr
    }

    fn set_learning_rate(&mut self, _lr: f32) {
        // The server's session owns the schedule; external decay must
        // not fight it (same contract as the in-process tuner).
    }

    fn is_self_tuning(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "remote-tuner"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yf_serve::{Authority, FilterSpec, ServeConfig, Server};
    use yf_tensor::rng::Pcg32;

    #[test]
    fn remote_tuner_steps_bitwise_like_the_in_process_tuner() {
        // A trainer driving a RemoteTuner (measure on the server, apply
        // local) must walk the exact parameter trajectory of the same
        // tuner run in process.
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            snapshot_dir: None,
            ..ServeConfig::default()
        })
        .unwrap();
        let dim = 24;
        let mut spec = OpenSpec {
            session: "remote-parity".to_string(),
            optimizer: "yellowfin".to_string(),
            value: 1.0,
            dim,
            authority: Authority::default(),
            filter: FilterSpec::default(),
        };
        // Wide-open authority: the served stream is the raw tuner
        // output, so in-process YellowFin is the exact reference.
        spec.authority.max_lr_step = 1e9;
        spec.authority.max_momentum_step = 1.0;
        spec.authority.lr_max = 1e9;
        let mut remote = RemoteTuner::connect(server.local_addr(), spec).unwrap();
        let mut local = yf_serve::registry::build_optimizer("yellowfin", 1.0).unwrap();

        let mut rng = Pcg32::seed(41);
        let mut p_remote = vec![0.5f32; dim];
        let mut p_local = p_remote.clone();
        for step in 0..30 {
            let grads: Vec<f32> = (0..dim).map(|_| rng.uniform() - 0.5).collect();
            remote.step(&mut p_remote, &grads);
            local.step(&mut p_local, &grads);
            for (i, (a, b)) in p_remote.iter().zip(&p_local).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "step {step}, param {i}");
            }
        }
        assert_eq!(remote.learning_rate(), local.learning_rate());
        assert_eq!(remote.degraded_steps(), 0);
        assert!(!remote.degraded());
        let _ = remote.detach().unwrap();
    }

    /// Format-freeze pin: a dim-16 remote tuner's checkpoint after 20
    /// seeded steps. A served trainer's checkpoints resume across builds
    /// only while these bytes stay the same.
    #[test]
    fn checkpoint_bytes_are_frozen() {
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            snapshot_dir: None,
            ..ServeConfig::default()
        })
        .unwrap();
        let dim = 16;
        let spec = OpenSpec {
            session: "pin-remote".to_string(),
            optimizer: "yellowfin".to_string(),
            value: 1.0,
            dim,
            authority: Authority::default(),
            filter: FilterSpec::default(),
        };
        let mut remote = RemoteTuner::connect(server.local_addr(), spec).unwrap();
        let mut rng = Pcg32::seed(20);
        let mut params: Vec<f32> = (0..dim).map(|_| rng.normal()).collect();
        for _ in 0..20 {
            remote.set_loss(rng.uniform());
            let grads: Vec<f32> = params.iter().map(|p| p + 0.1 * rng.normal()).collect();
            remote.step(&mut params, &grads);
        }
        let text = remote.checkpoint_state().unwrap();
        let fnv1a = crate::fleet::fsio::fnv1a(text.as_bytes());
        assert_eq!((text.len(), fnv1a), (3266, 0x7c42_2759_099a_49cc));
        let _ = remote.detach().unwrap();
    }

    #[test]
    fn only_yellowfin_specs_are_served() {
        // Refused before any connection is made: the port is never dialled.
        let spec = OpenSpec {
            session: "adam-remote".to_string(),
            optimizer: "adam".to_string(),
            value: 0.1,
            dim: 4,
            authority: Authority::default(),
            filter: FilterSpec::default(),
        };
        match RemoteTuner::connect_with("127.0.0.1:9", spec, RemoteTunerConfig::default()) {
            Err(ClientError::Unsupported(msg)) => assert!(msg.contains("adam"), "{msg}"),
            Err(other) => panic!("expected Unsupported, got {other}"),
            Ok(_) => panic!("an adam spec must be refused"),
        }
    }

    #[test]
    fn remote_tuner_config_env_knobs_use_hardened_parsing() {
        std::env::set_var("YF_SERVE_CLIENT_DEGRADE_MS", "1500");
        std::env::set_var("YF_SERVE_CLIENT_RESYNC_LIMIT", "not-a-count");
        std::env::set_var("YF_SERVE_CLIENT_PROBE_CAP", "8");
        let cfg = RemoteTunerConfig::from_env();
        assert_eq!(cfg.degrade_after, Duration::from_millis(1500));
        assert_eq!(
            cfg.resync_limit,
            RemoteTunerConfig::default().resync_limit,
            "malformed falls back"
        );
        assert_eq!(cfg.probe_cap, 8);
        std::env::remove_var("YF_SERVE_CLIENT_DEGRADE_MS");
        std::env::remove_var("YF_SERVE_CLIENT_RESYNC_LIMIT");
        std::env::remove_var("YF_SERVE_CLIENT_PROBE_CAP");
    }
}
