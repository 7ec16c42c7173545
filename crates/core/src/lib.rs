//! # YellowFin: automatic momentum and learning-rate tuning for SGD
//!
//! A faithful Rust implementation of *YellowFin and the Art of Momentum
//! Tuning* (Zhang & Mitliagkas, MLSYS 2019).
//!
//! YellowFin keeps momentum SGD's update rule (Polyak's heavy ball,
//! Eq. 1 of the paper) but removes its two hyperparameters. Every
//! iteration it:
//!
//! 1. measures, purely from minibatch gradients, the extremal curvatures
//!    `h_max`/`h_min` ([`measurements::CurvatureRange`]), the gradient
//!    variance `C` ([`measurements::GradVariance`]) and the distance to a
//!    local optimum `D` ([`measurements::DistanceToOpt`]);
//! 2. solves the one-step noisy-quadratic surrogate `SingleStep`
//!    (Eq. 15) in closed form ([`cubic::single_step`]) subject to the
//!    robust-region constraints of Lemma 3, producing a single momentum
//!    and learning rate for the whole model;
//! 3. smooths those with zero-debiased exponential averages and applies a
//!    momentum SGD step ([`tuner::YellowFin`]).
//!
//! The tuning decision reads the gradient only through `||g||^2` and the
//! variance total `C`, so [`YellowFin`] is split along that seam: the
//! scalar [`TunerCore`] (curvature window, distance and μ/α averages,
//! clip threshold) and the vector [`measurements::GradVariance`] (the
//! per-coordinate moments), joined by a velocity buffer. A served
//! session can run the core alone, fed four scalars per step.
//!
//! Optional extras from the paper: adaptive gradient clipping for
//! exploding-gradient objectives (§3.3, Appendix F) and the closed-loop
//! variant for asynchronous training that measures *total* momentum and
//! steers the algorithmic momentum with negative feedback (§4,
//! [`closed_loop::ClosedLoopYellowFin`]).
//!
//! The [`theory`] module contains the analytical objects of Sections 2-3
//! (momentum/variance operators, robust region, generalized condition
//! number) used by the tests and the Figure 2/3 regenerators.
//!
//! # Example
//!
//! ```
//! use yellowfin::YellowFin;
//! use yf_optim::Optimizer;
//!
//! // Minimize a quadratic with zero hand tuning.
//! let h = [1.0f32, 2.0];
//! let mut x = vec![1.0f32, 1.0];
//! let mut opt = YellowFin::default();
//! for _ in 0..800 {
//!     let grad: Vec<f32> = x.iter().zip(h.iter()).map(|(&x, &h)| h * x).collect();
//!     opt.step(&mut x, &grad);
//! }
//! assert!(x.iter().all(|v| v.abs() < 0.05));
//! ```

pub mod closed_loop;
pub mod cubic;
pub mod ema;
pub mod measurements;
pub mod state;
pub mod theory;
pub mod tuner;

pub use closed_loop::{ClosedLoopAdam, ClosedLoopYellowFin, TotalMomentumEstimator};
pub use measurements::OutlierGate;
pub use tuner::{ClipMode, TunerCore, YellowFin, YellowFinConfig};
