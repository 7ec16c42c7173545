//! The benchmark's noisy quadratic: the model behind YellowFin's tuning
//! rule (paper §2), at any dimension, with almost no cost of its own.
//!
//! The loss is mean_i ½ h_i x_i², with the curvatures h_i on a fixed
//! log-spaced grid over [`H_MIN`, `H_MAX`] and every x_i starting at 1.
//! The gradient is (h_i x_i + noise_i) / √n: YellowFin reads curvature
//! from ‖g‖², and the 1/√n scale keeps ‖g‖² inside the curvature range
//! at every dimension, so the loss falls within a run. The noise is read
//! from a seeded table at a step-dependent offset, so each coordinate
//! sees a fresh draw every step without the task paying for a random
//! number per coordinate per step. Only the noise depends on the seed:
//! a fixed problem keeps the final loss steady across seeds, which the
//! benchmark's bounds need.

use yf_experiments::task::TrainTask;
use yf_tensor::rng::Pcg32;

const H_MIN: f32 = 0.01;
const H_MAX: f32 = 1.0;
/// Standard deviation of the gradient noise.
const SIGMA: f32 = 0.03;
/// Distinct offsets into the noise table.
const OFFSETS: usize = 4096;

pub struct Quadratic {
    curv: Vec<f32>,
    noise: Vec<f32>,
}

impl Quadratic {
    pub fn new(seed: u64, dim: usize) -> Quadratic {
        let ratio = H_MAX / H_MIN;
        let last = dim.saturating_sub(1).max(1) as f32;
        let curv = (0..dim)
            .map(|i| H_MIN * ratio.powf(i as f32 / last))
            .collect();
        let mut rng = Pcg32::seed_stream(seed, 0x9a);
        let mut noise = vec![0.0; dim + OFFSETS];
        rng.fill_normal(&mut noise);
        for n in &mut noise {
            *n *= SIGMA;
        }
        Quadratic { curv, noise }
    }
}

impl TrainTask for Quadratic {
    fn dim(&self) -> usize {
        self.curv.len()
    }

    fn init_params(&self) -> Vec<f32> {
        vec![1.0; self.curv.len()]
    }

    fn loss_grad_at(&mut self, params: &[f32], step: u64) -> (f32, Vec<f32>) {
        let offset = (step as usize).wrapping_mul(2_654_435_761) % OFFSETS;
        let noise = &self.noise[offset..offset + params.len()];
        let scale = 1.0 / (params.len() as f32).sqrt();
        let mut loss = 0.0f64;
        let grad = params
            .iter()
            .zip(&self.curv)
            .zip(noise)
            .map(|((&x, &h), &n)| {
                let hx = h * x;
                loss += f64::from(hx * x);
                (hx + n) * scale
            })
            .collect();
        ((0.5 * loss / params.len() as f64) as f32, grad)
    }

    fn validate(&mut self, _params: &[f32]) -> f64 {
        unreachable!("benchmark runs never validate")
    }

    fn metric_name(&self) -> &'static str {
        "loss"
    }

    fn lower_is_better(&self) -> bool {
        true
    }
}
