//! Zero-debiased exponential moving averages.
//!
//! Appendix E of the paper: "We applied zero-debias to all the exponential
//! average quantities involved in our estimators." Zero-debias (Kingma &
//! Ba, 2014) divides a conventionally-initialized-at-zero EMA by
//! `1 - beta^t`, removing the cold-start bias entirely — the reported
//! value after one update is exactly the first observation.

/// A scalar exponential moving average with zero-debiasing.
///
/// # Example
///
/// ```
/// use yellowfin::ema::Ema;
/// let mut e = Ema::new(0.999);
/// e.update(5.0);
/// assert!((e.value() - 5.0).abs() < 1e-12); // debiased: no cold start
/// ```
#[derive(Debug, Clone)]
pub struct Ema {
    pub(crate) beta: f64,
    pub(crate) biased: f64,
    pub(crate) correction: f64,
    pub(crate) steps: u64,
}

impl Ema {
    /// Creates an EMA with smoothing factor `beta`.
    ///
    /// # Panics
    ///
    /// Panics unless `beta ∈ [0, 1)`.
    pub fn new(beta: f64) -> Self {
        assert!((0.0..1.0).contains(&beta), "ema: beta {beta} out of [0,1)");
        Ema {
            beta,
            biased: 0.0,
            correction: 0.0,
            steps: 0,
        }
    }

    /// Incorporates an observation.
    pub fn update(&mut self, x: f64) {
        self.biased = self.beta * self.biased + (1.0 - self.beta) * x;
        self.correction = self.beta * self.correction + (1.0 - self.beta);
        self.steps += 1;
    }

    /// The debiased average.
    ///
    /// # Panics
    ///
    /// Panics if called before any update.
    pub fn value(&self) -> f64 {
        assert!(self.steps > 0, "ema: value() before first update");
        self.biased / self.correction
    }

    /// Number of observations so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Whether any observation has been made.
    pub fn is_initialized(&self) -> bool {
        self.steps > 0
    }
}

/// A per-coordinate exponential moving average with zero-debiasing,
/// used for the gradient first/second moments in Algorithm 3.
#[derive(Debug, Clone)]
pub struct VecEma {
    pub(crate) beta: f64,
    pub(crate) biased: Vec<f64>,
    pub(crate) correction: f64,
    pub(crate) steps: u64,
}

impl VecEma {
    /// Creates a vector EMA with smoothing factor `beta`. The dimension is
    /// fixed by the first sweep of the owning
    /// [`GradVariance`](crate::measurements::GradVariance).
    ///
    /// # Panics
    ///
    /// Panics unless `beta ∈ [0, 1)`.
    pub fn new(beta: f64) -> Self {
        assert!((0.0..1.0).contains(&beta), "vec ema: beta {beta}");
        VecEma {
            beta,
            biased: Vec::new(),
            correction: 0.0,
            steps: 0,
        }
    }

    /// Dimension (0 before the first sweep).
    pub fn len(&self) -> usize {
        self.biased.len()
    }

    /// True before the first sweep.
    pub fn is_empty(&self) -> bool {
        self.biased.is_empty()
    }

    /// Whether any observation has been made.
    pub fn is_initialized(&self) -> bool {
        self.steps > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_value_is_exact() {
        let mut e = Ema::new(0.999);
        e.update(42.0);
        assert!((e.value() - 42.0).abs() < 1e-12);
    }

    #[test]
    fn converges_to_constant_stream() {
        let mut e = Ema::new(0.9);
        for _ in 0..200 {
            e.update(3.5);
        }
        assert!((e.value() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn debias_matches_closed_form() {
        // For observations x_1..x_t, the debiased EMA equals
        // sum(beta^(t-i) x_i) / sum(beta^(t-i)).
        let beta = 0.8;
        let xs = [1.0, 2.0, 3.0, 4.0];
        let mut e = Ema::new(beta);
        for &x in &xs {
            e.update(x);
        }
        let mut num = 0.0;
        let mut den = 0.0;
        for (i, &x) in xs.iter().enumerate() {
            let w = beta.powi((xs.len() - 1 - i) as i32);
            num += w * x;
            den += w;
        }
        assert!((e.value() - num / den).abs() < 1e-12);
    }

    #[test]
    fn beta_zero_tracks_last_value() {
        let mut e = Ema::new(0.0);
        e.update(1.0);
        e.update(-7.0);
        assert!((e.value() - -7.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "before first update")]
    fn value_before_update_panics() {
        Ema::new(0.5).value();
    }
}
