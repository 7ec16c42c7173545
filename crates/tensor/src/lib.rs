//! Dense tensor math for the YellowFin reproduction.
//!
//! This crate is the numerical substrate under everything else in the
//! workspace: a small, dependency-free dense `f32` tensor type with the
//! operations a CPU training stack needs (elementwise algebra, matrix
//! multiplication, reductions), a seeded [PCG32](rng::Pcg32) random number
//! generator so every experiment in the repository is bit-reproducible, and
//! the small-matrix spectral tools ([`linalg`]) used to *compute* the
//! momentum-operator spectral radii that the paper's Lemmas 3 and 6 reason
//! about. It also holds [`hex`], the one bit-exact float text codec every
//! wire frame, snapshot and checkpoint in the workspace writes through.
//!
//! # Example
//!
//! ```
//! use yf_tensor::{Tensor, rng::Pcg32};
//!
//! let mut rng = Pcg32::seed(7);
//! let a = Tensor::randn(&[2, 3], &mut rng);
//! let b = Tensor::randn(&[3, 4], &mut rng);
//! let c = a.matmul(&b);
//! assert_eq!(c.shape(), &[2, 4]);
//! ```

pub mod elementwise;
pub mod env;
pub mod gemm;
pub mod hex;
pub mod linalg;
pub mod parallel;
pub mod reduce;
pub mod rng;
mod scratch;
mod shape;
mod tensor;

pub use scratch::Scratch;
pub use shape::Shape;
pub use tensor::Tensor;
