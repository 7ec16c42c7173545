//! Learning-rate grid search with multi-seed averaging (Appendix I).
//!
//! The paper tunes Adam and momentum SGD on logarithmic learning-rate
//! grids, averages training losses over 3 random seeds, and picks the
//! configuration with the lowest averaged smoothed loss.
//!
//! Every `(value, seed)` cell is an independent training run, so the
//! grid fans them out over the persistent worker pool (up to the kernel-layer
//! thread count) and collects results back in cell order — the outcome is
//! bit-identical to the sequential sweep, just wall-clock shorter.

use crate::smoothing::smooth;
use crate::task::TrainTask;
use crate::trainer::{train, RunConfig, RunResult};
use yf_optim::Optimizer;
use yf_tensor::parallel::{self, Par};

/// Typed error from the fallible grid entry points ([`try_grid_search`],
/// [`try_average_curves`], [`try_average_metrics`], [`score_results`]).
/// The panicking wrappers keep their historical messages by formatting
/// these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridError {
    /// `values` was empty.
    EmptyGrid,
    /// `seeds` was empty.
    NoSeeds,
    /// No loss curves to average.
    NoCurves,
    /// Loss curves disagree on length.
    RaggedCurves {
        /// Length of the first curve.
        expected: usize,
        /// Length of the offending curve.
        got: usize,
    },
    /// Metric series disagree on length.
    RaggedMetrics {
        /// Length of the first series.
        expected: usize,
        /// Length of the offending series.
        got: usize,
    },
    /// Metric series validated at different iterations.
    MisalignedMetrics {
        /// Iteration recorded by the first run.
        expected: u64,
        /// Iteration recorded by the offending run.
        got: u64,
    },
    /// A result set does not cover every `(value, seed)` cell.
    MissingResults {
        /// Cells expected (`values.len() * seeds.len()`).
        expected: usize,
        /// Results provided.
        got: usize,
    },
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::EmptyGrid => write!(f, "empty grid"),
            GridError::NoSeeds => write!(f, "no seeds"),
            GridError::NoCurves => write!(f, "no curves"),
            GridError::RaggedCurves { expected, got } => {
                write!(f, "ragged curves (expected length {expected}, got {got})")
            }
            GridError::RaggedMetrics { expected, got } => {
                write!(f, "ragged runs (expected {expected} metrics, got {got})")
            }
            GridError::MisalignedMetrics { expected, got } => {
                write!(f, "misaligned iterations (expected {expected}, got {got})")
            }
            GridError::MissingResults { expected, got } => {
                write!(f, "expected {expected} cell results, got {got}")
            }
        }
    }
}

impl std::error::Error for GridError {}

/// Outcome of one grid search.
#[derive(Debug, Clone, PartialEq)]
pub struct GridOutcome {
    /// The winning grid value (e.g. learning rate).
    pub best_value: f32,
    /// Seed-averaged *smoothed* loss curve of the winner.
    pub best_curve: Vec<f64>,
    /// Seed-averaged validation metrics of the winner
    /// (iteration, metric), averaged pointwise across seeds.
    pub best_metrics: Vec<(u64, f64)>,
    /// `(value, lowest smoothed loss)` for every grid point.
    pub scores: Vec<(f32, f64)>,
}

/// Averages loss curves pointwise (all must have equal length).
///
/// # Errors
///
/// [`GridError::NoCurves`] on an empty slice, [`GridError::RaggedCurves`]
/// when the curves disagree on length.
pub fn try_average_curves(curves: &[Vec<f32>]) -> Result<Vec<f32>, GridError> {
    let first = curves.first().ok_or(GridError::NoCurves)?;
    let n = first.len();
    let mut out = vec![0.0f32; n];
    for c in curves {
        if c.len() != n {
            return Err(GridError::RaggedCurves {
                expected: n,
                got: c.len(),
            });
        }
        for (o, &v) in out.iter_mut().zip(c) {
            *o += v;
        }
    }
    for o in &mut out {
        *o /= curves.len() as f32;
    }
    Ok(out)
}

/// Panicking wrapper around [`try_average_curves`] for call sites that
/// treat bad inputs as bugs.
///
/// # Panics
///
/// Panics on empty or ragged inputs.
pub fn average_curves(curves: &[Vec<f32>]) -> Vec<f32> {
    try_average_curves(curves).unwrap_or_else(|e| panic!("average_curves: {e}"))
}

/// Runs `make_opt(value)` for every grid `value` on `make_task(seed)` for
/// every seed — all `(value, seed)` cells fanned out on pool worker
/// threads, results gathered in deterministic cell order — smooths the
/// seed-averaged loss with `window`, and picks the value whose curve
/// attains the lowest smoothed loss.
///
/// The factories run on worker threads, hence the `Fn + Sync` bounds;
/// build per-run state (RNGs, models) *inside* the returned task, keyed
/// on the seed, exactly as the sequential grid already required for
/// reproducibility.
///
/// # Panics
///
/// Panics if `values` or `seeds` is empty.
pub fn grid_search(
    values: &[f32],
    seeds: &[u64],
    window: usize,
    cfg: &RunConfig,
    make_task: impl Fn(u64) -> Box<dyn TrainTask> + Sync,
    make_opt: impl Fn(f32) -> Box<dyn Optimizer> + Sync,
) -> GridOutcome {
    try_grid_search(values, seeds, window, cfg, make_task, make_opt)
        .unwrap_or_else(|e| panic!("grid_search: {e}"))
}

/// Fallible [`grid_search`]: returns a typed [`GridError`] on empty or
/// inconsistent inputs instead of panicking.
///
/// # Errors
///
/// [`GridError::EmptyGrid`] / [`GridError::NoSeeds`] on empty inputs, and
/// whatever [`score_results`] reports for inconsistent run results.
pub fn try_grid_search(
    values: &[f32],
    seeds: &[u64],
    window: usize,
    cfg: &RunConfig,
    make_task: impl Fn(u64) -> Box<dyn TrainTask> + Sync,
    make_opt: impl Fn(f32) -> Box<dyn Optimizer> + Sync,
) -> Result<GridOutcome, GridError> {
    if values.is_empty() {
        return Err(GridError::EmptyGrid);
    }
    if seeds.is_empty() {
        return Err(GridError::NoSeeds);
    }

    // One independent (value, seed) training run per cell, fanned out on
    // pool workers; `results` keeps cell order, so everything below is
    // bitwise identical to the sequential sweep.
    let cells: Vec<(f32, u64)> = grid_cells(values, seeds);
    let mut results: Vec<Option<RunResult>> = (0..cells.len()).map(|_| None).collect();
    let threads = parallel::num_threads().min(cells.len());
    parallel::chunks_mut(&mut results, 1, Par::threads(threads), |first, chunk| {
        for (i, slot) in chunk.iter_mut().enumerate() {
            let (value, seed) = cells[first + i];
            let mut task = make_task(seed);
            let mut opt = make_opt(value);
            *slot = Some(train(task.as_mut(), opt.as_mut(), cfg));
        }
    });
    let results: Vec<RunResult> = results
        .into_iter()
        .map(|r| r.expect("grid cell ran"))
        .collect();
    score_results(values, seeds, window, &results)
}

/// The canonical `(value, seed)` cell order every grid driver uses:
/// value-major, seeds inner — cell `i` covers
/// `(values[i / seeds.len()], seeds[i % seeds.len()])`.
pub fn grid_cells(values: &[f32], seeds: &[u64]) -> Vec<(f32, u64)> {
    values
        .iter()
        .flat_map(|&v| seeds.iter().map(move |&s| (v, s)))
        .collect()
}

/// Scores a complete, cell-ordered result set (one [`RunResult`] per
/// [`grid_cells`] entry) into a [`GridOutcome`]. This is the single
/// merge path shared by the in-process [`grid_search`] and the fleet
/// coordinator, so a sweep assembled from durable per-cell results is
/// bitwise identical to an uninterrupted in-process sweep.
///
/// # Errors
///
/// [`GridError::MissingResults`] when the result count does not cover the
/// grid, plus the [`try_average_curves`] / [`try_average_metrics`] errors
/// for inconsistent runs.
pub fn score_results(
    values: &[f32],
    seeds: &[u64],
    window: usize,
    results: &[RunResult],
) -> Result<GridOutcome, GridError> {
    if values.is_empty() {
        return Err(GridError::EmptyGrid);
    }
    if seeds.is_empty() {
        return Err(GridError::NoSeeds);
    }
    if results.len() != values.len() * seeds.len() {
        return Err(GridError::MissingResults {
            expected: values.len() * seeds.len(),
            got: results.len(),
        });
    }
    let mut results = results.iter();
    let mut best: Option<GridOutcome> = None;
    let mut scores = Vec::with_capacity(values.len());
    for &value in values {
        let mut loss_curves = Vec::with_capacity(seeds.len());
        let mut metric_runs: Vec<&RunResult> = Vec::with_capacity(seeds.len());
        for _ in seeds {
            let result = results.next().expect("result count checked above");
            loss_curves.push(result.losses.clone());
            metric_runs.push(result);
        }
        let avg = try_average_curves(&loss_curves)?;
        let smoothed = smooth(&avg, window);
        let lowest = smoothed.iter().copied().fold(f64::INFINITY, f64::min);
        scores.push((value, lowest));
        let metrics = try_average_metrics_ref(&metric_runs)?;
        let better = match &best {
            None => true,
            Some(b) => {
                let b_low = b.best_curve.iter().copied().fold(f64::INFINITY, f64::min);
                lowest < b_low
            }
        };
        if better {
            best = Some(GridOutcome {
                best_value: value,
                best_curve: smoothed,
                best_metrics: metrics,
                scores: Vec::new(),
            });
        }
    }
    let mut outcome = best.expect("at least one grid point");
    outcome.scores = scores;
    Ok(outcome)
}

/// Averages validation metric series pointwise across runs (all runs must
/// have validated at the same iterations).
///
/// # Errors
///
/// [`GridError::RaggedMetrics`] / [`GridError::MisalignedMetrics`] when
/// the runs disagree on the validation points.
pub fn try_average_metrics(runs: &[RunResult]) -> Result<Vec<(u64, f64)>, GridError> {
    try_average_metrics_ref(&runs.iter().collect::<Vec<_>>())
}

fn try_average_metrics_ref(runs: &[&RunResult]) -> Result<Vec<(u64, f64)>, GridError> {
    if runs.is_empty() || runs[0].metrics.is_empty() {
        return Ok(Vec::new());
    }
    let n = runs[0].metrics.len();
    let mut out: Vec<(u64, f64)> = runs[0].metrics.iter().map(|&(i, _)| (i, 0.0)).collect();
    for run in runs {
        if run.metrics.len() != n {
            return Err(GridError::RaggedMetrics {
                expected: n,
                got: run.metrics.len(),
            });
        }
        for (slot, &(i, v)) in out.iter_mut().zip(&run.metrics) {
            if slot.0 != i {
                return Err(GridError::MisalignedMetrics {
                    expected: slot.0,
                    got: i,
                });
            }
            slot.1 += v;
        }
    }
    for slot in &mut out {
        slot.1 /= runs.len() as f64;
    }
    Ok(out)
}

/// Panicking wrapper around [`try_average_metrics`].
///
/// # Panics
///
/// Panics when the runs disagree on the validation points.
pub fn average_metrics(runs: &[RunResult]) -> Vec<(u64, f64)> {
    try_average_metrics(runs).unwrap_or_else(|e| panic!("average_metrics: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::ModelTask;
    use yf_nn::Mlp;
    use yf_optim::Sgd;
    use yf_tensor::rng::Pcg32;
    use yf_tensor::Tensor;

    fn make_task(seed: u64) -> Box<dyn TrainTask> {
        let mut rng = Pcg32::seed(seed);
        let mlp = Mlp::new(&[2, 6, 2], &mut rng);
        let mut data_rng = Pcg32::seed(seed ^ 0xdead);
        Box::new(ModelTask::new(
            mlp,
            move |_| {
                let x = Tensor::randn(&[8, 2], &mut data_rng);
                let y = (0..8).map(|r| usize::from(x.at(&[r, 0]) > 0.0)).collect();
                (x, y)
            },
            |_| 0.0,
            "none",
            true,
        ))
    }

    #[test]
    fn grid_prefers_working_learning_rate() {
        // 1e-6 barely moves; 0.3 learns. The grid must pick 0.3.
        let outcome = grid_search(
            &[1e-6, 0.3],
            &[1, 2],
            20,
            &RunConfig::plain(150),
            make_task,
            |lr| Box::new(Sgd::new(lr)),
        );
        assert_eq!(outcome.best_value, 0.3);
        assert_eq!(outcome.scores.len(), 2);
        let s_tiny = outcome.scores[0].1;
        let s_good = outcome.scores[1].1;
        assert!(s_good < s_tiny, "{s_good} vs {s_tiny}");
    }

    #[test]
    fn average_curves_pointwise() {
        let avg = average_curves(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(avg, vec![2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "ragged curves")]
    fn ragged_curves_panic() {
        average_curves(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
