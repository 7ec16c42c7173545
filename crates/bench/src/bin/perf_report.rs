//! `perf_report` — times the core compute kernels against the retained
//! seed/reference kernels and writes `BENCH_kernels.json`, optionally
//! gating against a committed baseline.
//!
//! This is the repository's perf trajectory: CI runs it on every push,
//! compares against the committed `BENCH_kernels.json`, and uploads the
//! fresh JSON as an artifact, so kernel regressions (or wins) are visible
//! — and >35% regressions *fail* — per commit. Each entry records the
//! median ns/op of the current kernel, the median ns/op of the seed-era
//! kernel doing the same job, and the resulting speedup.
//!
//! The regression gate compares **speedups**, not absolute nanoseconds:
//! both the kernel and its seed counterpart run on the same machine in
//! the same process, so their ratio is far more stable across runner
//! hardware than raw timings.
//!
//! Environment knobs:
//! - `YF_PERF_SAMPLES` — samples per kernel for the median (default 9).
//! - `YF_PERF_OUT` — output path (default `BENCH_kernels.json`).
//! - `YF_PERF_BASELINE` — baseline JSON to gate against (exit 1 when a
//!   kernel's speedup falls more than the tolerance below the baseline).
//! - `YF_PERF_TOL` — gate tolerance as a fraction (default 0.35).
//! - `YF_PERF_SERVE_TOL` — gate tolerance for the `serve_measure_*`
//!   entries' absolute ns (default 0.75; see below).
//! - `YF_NUM_THREADS` — kernel-layer thread count, recorded in the JSON.
//!
//! Besides timings, the report records `fanouts_per_step`: the number of
//! worker-pool dispatches one full tuned optimizer step performs, and
//! hard-fails unless it is exactly 1 (the fused-runtime contract). It
//! also records session throughput for the `yf-serve` tuner server —
//! median ns per measurement over loopback TCP, at 1 and at 32
//! concurrent sessions. `serve_durable_stats_1_session` times the
//! durable path (each measurement logged, or sealed into a snapshot,
//! before its reply): YellowFin's moments kept by the client and
//! `measure_stats` frames, against the full-gradient `measure` stream as
//! its seed. `serve_persist_stats_record` times the server's persist
//! step alone for such a session: one log append of a `measure_stats`
//! record, against a sealed write of the session's snapshot as its seed.
//! The `hex_f32_*` entries time the float
//! text codec those JSON frames are made of, against the seed
//! `format!`/`from_str_radix` codec, and gate like every other kernel.
//! `variance_sweep_1M` times YellowFin's variance sweep alone
//! (`reduce::ema_update_stats` over 2^20 coordinates in one chunk)
//! against the per-element-lane loop it replaced, after checking that
//! both leave the same bits.
//! The `yf_step_vs_momentum_*` entries time a YellowFin step against a
//! momentum-SGD step on the same gradient, at 4k and at 1M parameters:
//! the paper's claim that the tuner's overhead is linear in the model
//! dimension reads as an extra cost per parameter, `(median - seed) /
//! dim`, that stays flat between the two.
//!
//! The `serve_measure_*` entries' *speedup* column is contextual (their
//! seed is the in-process pipeline, re-measured in the same run), so
//! the gate does not band it. Instead they gate on **absolute median
//! ns** against the committed baseline, within `YF_PERF_SERVE_TOL`.
//!
//! The gate only compares runs at the **same thread count**: speedups of
//! the parallel kernels scale with cores, so a baseline recorded at a
//! different `threads` value is skipped entirely (with a warning) rather
//! than producing phantom regressions or free passes.

use std::fmt::Write as _;
use std::time::Instant;
use yellowfin::measurements::GradVariance;
use yellowfin::YellowFin;
use yf_autograd::conv::{self, reference as conv_ref};
use yf_autograd::norm::{self, reference as norm_ref};
use yf_autograd::ConvSpec;
use yf_experiments::fleet::{fsio, log::Log};
use yf_optim::sharded::{step_fused, step_sharded};
use yf_optim::{Adam, Hyper, MomentumSgd, Optimizer, ParamShard};
use yf_serve::registry::yellowfin_config;
use yf_serve::{
    snapshot, Authority, Client, ClientConfig, ClientFrame, FilterSpec, OpenSpec, ServeConfig,
    Server, Session,
};
use yf_tensor::gemm::reference as gemm_ref;
use yf_tensor::hex;
use yf_tensor::parallel::{self, Par};
use yf_tensor::reduce;
use yf_tensor::rng::Pcg32;
use yf_tensor::Tensor;

/// The seed-era serial measure phase, retained as the perf baseline for
/// the fused sharded observe: copy the gradient into a scratch buffer,
/// clip it with a scalar norm loop, update the per-coordinate moment EMAs
/// in separate passes, and fold the variance estimate over every
/// coordinate — exactly the work `YellowFin::observe` did before the
/// partial-reduction pipeline replaced it.
struct SerialObserve {
    grad_buf: Vec<f32>,
    curvature: yellowfin::measurements::CurvatureRange,
    distance: yellowfin::measurements::DistanceToOpt,
    first: Vec<f64>,
    second: Vec<f64>,
    correction: f64,
    mu_ema: yellowfin::ema::Ema,
    lr_ema: yellowfin::ema::Ema,
}

impl SerialObserve {
    fn new(dim: usize) -> Self {
        let beta = 0.999;
        SerialObserve {
            grad_buf: Vec::with_capacity(dim),
            curvature: yellowfin::measurements::CurvatureRange::new(20, beta, false),
            distance: yellowfin::measurements::DistanceToOpt::new(beta),
            first: vec![0.0; dim],
            second: vec![0.0; dim],
            correction: 0.0,
            mu_ema: yellowfin::ema::Ema::new(beta),
            lr_ema: yellowfin::ema::Ema::new(beta),
        }
    }

    fn observe(&mut self, grads: &[f32]) {
        let beta = 0.999;
        // Full-gradient copy + serial norm loop (the deleted grad_buf path).
        self.grad_buf.clear();
        self.grad_buf.extend_from_slice(grads);
        let norm = self
            .grad_buf
            .iter()
            .map(|&g| f64::from(g) * f64::from(g))
            .sum::<f64>()
            .sqrt();
        self.curvature.observe(norm * norm);
        // Two separate per-coordinate EMA passes (seed-era VecEma).
        for (b, &g) in self.first.iter_mut().zip(&self.grad_buf) {
            *b = beta * *b + (1.0 - beta) * f64::from(g);
        }
        for (b, &g) in self.second.iter_mut().zip(&self.grad_buf) {
            *b = beta * *b + (1.0 - beta) * f64::from(g) * f64::from(g);
        }
        self.correction = beta * self.correction + (1.0 - beta);
        // Serial variance fold over the whole dimension.
        let mut variance = 0.0;
        for (&b1, &b2) in self.first.iter().zip(&self.second) {
            let m1 = b1 / self.correction;
            let m2 = b2 / self.correction;
            variance += (m2 - m1 * m1).max(0.0);
        }
        self.distance.observe(norm);
        let sol = yellowfin::cubic::single_step(
            variance,
            self.distance.distance(),
            self.curvature.h_min(),
            self.curvature.h_max(),
        );
        self.mu_ema.update(sol.mu);
        self.lr_ema.update(sol.lr);
    }
}

/// The hand-rolled row encoder every crate carried before
/// [`yf_tensor::hex`], retained as the seed side of `hex_f32_row_4096`:
/// one `format!` and one heap `String` per value, then a `join`.
fn seed_f32_row(values: &[f32]) -> String {
    values
        .iter()
        .map(|v| format!("{:08x}", v.to_bits()))
        .collect::<Vec<_>>()
        .join(",")
}

/// The matching seed decoder (`hex_f32_unrow_4096`): `split` on commas,
/// then a length check and one `from_str_radix` per value.
fn seed_f32_unrow(text: &str) -> Option<Vec<f32>> {
    if text.is_empty() {
        return Some(Vec::new());
    }
    text.split(',')
        .map(|s| match s.len() {
            8 => u32::from_str_radix(s, 16).ok().map(f32::from_bits),
            _ => None,
        })
        .collect()
}

/// The block body `reduce::ema_update_stats` had before it walked
/// 4-element groups, retained as the seed side of `variance_sweep_1M`:
/// the same expressions, with each element's lane picked as `l[j % 4]`,
/// which makes the compiler keep the four lanes on the stack.
fn seed_ema_update_stats(
    b1: &mut [f64],
    b2: &mut [f64],
    xs: &[f32],
    beta: f64,
    scale: f64,
    corr: f64,
    var_blocks: &mut [f64],
) {
    let w = 1.0 - beta;
    for (bi, ((cx, c1), c2)) in xs
        .chunks(reduce::BLOCK)
        .zip(b1.chunks_mut(reduce::BLOCK))
        .zip(b2.chunks_mut(reduce::BLOCK))
        .enumerate()
    {
        let mut l = [0.0f64; 4];
        for (j, ((&g, m1), m2)) in cx.iter().zip(c1.iter_mut()).zip(c2.iter_mut()).enumerate() {
            let x = scale * f64::from(g);
            *m1 = beta * *m1 + w * x;
            *m2 = beta * *m2 + w * x * x;
            let d1 = *m1 / corr;
            let d2 = *m2 / corr;
            l[j % 4] += (d2 - d1 * d1).max(0.0);
        }
        var_blocks[bi] = (l[0] + l[1]) + (l[2] + l[3]);
    }
}

/// The PR 3-era apply half of a step, retained as the seed side of the
/// `yf_full_step_1M_*` entries: after a whole-vector `observe`, fan
/// `hyper` out over `shards` slices in a second, separate pool dispatch.
fn seed_apply_sharded(
    opt: &dyn Optimizer,
    params: &mut [f32],
    grads: &[f32],
    hyper: Hyper,
    shards: usize,
) {
    let total = params.len();
    let shards = shards.clamp(1, total);
    if shards == 1 {
        opt.step_shard(ParamShard::whole(total), params, grads, hyper);
        return;
    }
    let rows_per = parallel::chunk_rows(total, shards);
    let count = total.div_ceil(rows_per);
    parallel::chunks_mut(params, 1, Par::threads(shards), |first, chunk| {
        let shard = ParamShard {
            index: first / rows_per,
            count,
            offset: first,
            total,
        };
        opt.step_shard(shard, chunk, &grads[first..first + chunk.len()], hyper);
    });
}

fn samples() -> usize {
    std::env::var("YF_PERF_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(9)
}

/// Median wall-clock ns of `f` over an odd number of samples (one untimed
/// warmup first).
fn median_ns(mut f: impl FnMut()) -> u128 {
    f();
    let n = samples() | 1;
    let mut times: Vec<u128> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Median wall-clock ns of `new` and of `seed`, sampled alternately so
/// both sides see the same machine: a slow spell of a shared host that
/// outlasts one side's whole sampling window cannot land on that side
/// only.
fn paired_median_ns(mut new: impl FnMut(), mut seed: impl FnMut()) -> (u128, u128) {
    new();
    seed();
    let n = samples() | 1;
    let mut times = (Vec::with_capacity(n), Vec::with_capacity(n));
    for _ in 0..n {
        let t0 = Instant::now();
        new();
        times.0.push(t0.elapsed().as_nanos());
        let t0 = Instant::now();
        seed();
        times.1.push(t0.elapsed().as_nanos());
    }
    times.0.sort_unstable();
    times.1.sort_unstable();
    (times.0[n / 2], times.1[n / 2])
}

struct Entry {
    name: &'static str,
    median_ns: u128,
    seed_median_ns: u128,
}

impl Entry {
    fn speedup(&self) -> f64 {
        self.seed_median_ns as f64 / self.median_ns.max(1) as f64
    }
}

/// `serve_measure_*` entries gate on absolute ns, not on the speedup
/// band — their seed column is re-measured in the same run, so the
/// ratio can never regress no matter how slow the wire gets.
const SERVE_PREFIX: &str = "serve_measure_";

struct BaselineEntry {
    name: String,
    speedup: f64,
    median_ns: u128,
}

struct Baseline {
    threads: Option<usize>,
    entries: Vec<BaselineEntry>,
}

/// Parses the `"name": {"median_ns": .., "seed_median_ns": .., "speedup": ..}`
/// lines of a previously emitted `BENCH_kernels.json`, plus the
/// `threads` header field. Hand-rolled because the format is ours and
/// the build environment is offline.
fn parse_baseline(text: &str) -> Baseline {
    let mut base = Baseline {
        threads: None,
        entries: Vec::new(),
    };
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("\"threads\":") {
            base.threads = rest.trim().trim_end_matches(',').parse::<usize>().ok();
            continue;
        }
        if !line.contains("\"median_ns\"") {
            continue;
        }
        let Some(name) = line.strip_prefix('"').and_then(|r| r.split('"').next()) else {
            continue;
        };
        let field = |key: &str| -> Option<&str> {
            line.split(key)
                .nth(1)
                .map(|r| r.trim().trim_end_matches(['}', ',', ' ']))
        };
        let Some(speedup) = field("\"speedup\":").and_then(|r| r.parse().ok()) else {
            continue;
        };
        let Some(median_ns) = field("\"median_ns\":")
            .and_then(|r| r.split(',').next())
            .and_then(|r| r.trim().parse().ok())
        else {
            continue;
        };
        base.entries.push(BaselineEntry {
            name: name.to_string(),
            speedup,
            median_ns,
        });
    }
    base
}

/// Compares fresh kernel entries against a baseline; returns the
/// kernels whose speedup regressed by more than `tol` (fractional).
/// `serve_measure_*` entries are excluded — see [`serve_regressions`].
fn regressions<'a>(
    entries: &'a [Entry],
    baseline: &'a [BaselineEntry],
    tol: f64,
) -> Vec<(&'a str, f64, f64)> {
    let mut bad = Vec::new();
    for e in entries {
        if e.name.starts_with(SERVE_PREFIX) {
            continue;
        }
        let Some(base) = baseline.iter().find(|b| b.name == e.name) else {
            continue; // new kernel: no baseline yet
        };
        let now = e.speedup();
        if now < base.speedup / (1.0 + tol) {
            bad.push((e.name, base.speedup, now));
        }
    }
    bad
}

/// The serve-entry gate: absolute median ns against the committed
/// baseline, failing entries slower than `base * (1 + tol)`. Loopback
/// wire timings are noisier than in-process kernel ratios, hence the
/// wide default tolerance.
fn serve_regressions<'a>(
    entries: &'a [Entry],
    baseline: &'a [BaselineEntry],
    tol: f64,
) -> Vec<(&'a str, u128, u128)> {
    let mut bad = Vec::new();
    for e in entries {
        if !e.name.starts_with(SERVE_PREFIX) {
            continue;
        }
        let Some(base) = baseline.iter().find(|b| b.name == e.name) else {
            continue;
        };
        if e.median_ns as f64 > base.median_ns as f64 * (1.0 + tol) {
            bad.push((e.name, base.median_ns, e.median_ns));
        }
    }
    bad
}

fn main() {
    let mut rng = Pcg32::seed(7);
    // Read the baseline up front: the output may overwrite the same file.
    let baseline = std::env::var("YF_PERF_BASELINE").ok().map(|path| {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        (path, parse_baseline(&text))
    });
    let mut entries: Vec<Entry> = Vec::new();
    let mut push = |name: &'static str, median_ns: u128, seed_median_ns: u128| {
        let e = Entry {
            name,
            median_ns,
            seed_median_ns,
        };
        println!(
            "{name:<36} {:>12} ns  seed {:>12} ns  speedup {:>6.2}x",
            e.median_ns,
            e.seed_median_ns,
            e.speedup()
        );
        entries.push(e);
    };

    // --- Dense matmul: new blocked GEMM vs the seed ikj kernel. ---
    for &n in &[64usize, 256] {
        let a = Tensor::randn(&[n, n], &mut rng);
        let b = Tensor::randn(&[n, n], &mut rng);
        let new = median_ns(|| {
            std::hint::black_box(a.matmul(&b));
        });
        let (ad, bd) = (a.data(), b.data());
        let seed = median_ns(|| {
            std::hint::black_box(gemm_ref::matmul_ikj(n, n, n, ad, bd));
        });
        push(
            if n == 64 {
                "matmul_64x64"
            } else {
                "matmul_256x256"
            },
            new,
            seed,
        );
    }

    // --- Fused A·Bᵀ vs the seed path (materialize transpose, then ikj),
    // which is exactly what the matmul backward pass used to do. ---
    {
        let n = 256;
        let a = Tensor::randn(&[n, n], &mut rng);
        let b = Tensor::randn(&[n, n], &mut rng);
        let new = median_ns(|| {
            std::hint::black_box(a.matmul_nt(&b));
        });
        let seed = median_ns(|| {
            let bt = b.transpose();
            std::hint::black_box(gemm_ref::matmul_ikj(n, n, n, a.data(), bt.data()));
        });
        push("matmul_nt_256x256", new, seed);
    }

    // --- Convolutions: im2col/GEMM vs the seed direct loops. ---
    // (name, pass, input shape, weight shape, spec)
    type ConvCase = (
        &'static str,
        &'static str,
        &'static [usize],
        &'static [usize],
        ConvSpec,
    );
    let conv_cases: &[ConvCase] = &[
        (
            "conv2d_fwd_resnet_8x16x32x32",
            "fwd",
            &[8, 16, 32, 32],
            &[16, 16, 3, 3],
            ConvSpec {
                stride: 1,
                padding: 1,
                groups: 1,
            },
        ),
        (
            "conv2d_bwd_input_resnet_8x16x32x32",
            "bwd_input",
            &[8, 16, 32, 32],
            &[16, 16, 3, 3],
            ConvSpec {
                stride: 1,
                padding: 1,
                groups: 1,
            },
        ),
        (
            "conv2d_bwd_weight_resnet_8x16x32x32",
            "bwd_weight",
            &[8, 16, 32, 32],
            &[16, 16, 3, 3],
            ConvSpec {
                stride: 1,
                padding: 1,
                groups: 1,
            },
        ),
        (
            "conv2d_fwd_strided_8x16x32x32_s2",
            "fwd",
            &[8, 16, 32, 32],
            &[32, 16, 3, 3],
            ConvSpec {
                stride: 2,
                padding: 1,
                groups: 1,
            },
        ),
        (
            "conv2d_fwd_grouped_8x16x32x32_g4",
            "fwd",
            &[8, 16, 32, 32],
            &[32, 4, 3, 3],
            ConvSpec {
                stride: 1,
                padding: 1,
                groups: 4,
            },
        ),
        (
            "conv2d_fwd_pointwise_8x64x16x16",
            "fwd",
            &[8, 64, 16, 16],
            &[64, 64, 1, 1],
            ConvSpec {
                stride: 1,
                padding: 0,
                groups: 1,
            },
        ),
        // The fig8 ResNet's stage-0 shape (4 channels on 10x10 planes),
        // timed along the tape's path: the caching forward, the input
        // gradient, and the weight gradient over the cached columns.
        (
            "conv2d_fwd_fig8_8x4x10x10",
            "fwd_caching",
            &[8, 4, 10, 10],
            &[4, 4, 3, 3],
            ConvSpec::same3x3(1),
        ),
        (
            "conv2d_bwd_input_fig8_8x4x10x10",
            "bwd_input",
            &[8, 4, 10, 10],
            &[4, 4, 3, 3],
            ConvSpec::same3x3(1),
        ),
        (
            "conv2d_bwd_weight_fig8_8x4x10x10",
            "bwd_weight",
            &[8, 4, 10, 10],
            &[4, 4, 3, 3],
            ConvSpec::same3x3(1),
        ),
    ];
    for &(name, pass, in_shape, w_shape, spec) in conv_cases {
        let input = Tensor::randn(in_shape, &mut rng);
        let weight = Tensor::randn(w_shape, &mut rng);
        let out = conv::conv2d_forward(&input, &weight, spec);
        let grad = Tensor::randn(out.shape(), &mut rng);
        let mut scratch = yf_tensor::Scratch::new();
        let (new, seed) = match pass {
            "fwd" => paired_median_ns(
                || {
                    std::hint::black_box(conv::conv2d_forward(&input, &weight, spec));
                },
                || {
                    std::hint::black_box(conv_ref::conv2d_forward(&input, &weight, spec));
                },
            ),
            "fwd_caching" => paired_median_ns(
                || {
                    std::hint::black_box(conv::conv2d_forward_caching(
                        &input,
                        &weight,
                        spec,
                        &mut scratch,
                    ));
                },
                || {
                    std::hint::black_box(conv_ref::conv2d_forward(&input, &weight, spec));
                },
            ),
            "bwd_input" => paired_median_ns(
                || {
                    std::hint::black_box(conv::conv2d_backward_input(
                        input.shape(),
                        &weight,
                        &grad,
                        spec,
                    ));
                },
                || {
                    std::hint::black_box(conv_ref::conv2d_backward_input(
                        input.shape(),
                        &weight,
                        &grad,
                        spec,
                    ));
                },
            ),
            _ => {
                // The training-pipeline cost: the tape caches the batched
                // column matrix at forward time, so backward-weight is
                // one NT GEMM over the cached columns.
                let (_, cache) = conv::conv2d_forward_caching(&input, &weight, spec, &mut scratch);
                paired_median_ns(
                    || {
                        std::hint::black_box(conv::conv2d_backward_weight_cached(
                            &input,
                            weight.shape(),
                            &grad,
                            spec,
                            &mut scratch,
                            cache.as_ref(),
                        ));
                    },
                    || {
                        std::hint::black_box(conv_ref::conv2d_backward_weight(
                            &input,
                            weight.shape(),
                            &grad,
                            spec,
                        ));
                    },
                )
            }
        };
        push(name, new, seed);
    }

    // --- Backward-weight without the forward's column cache: the
    // transparent re-unroll fallback (columns packed straight from the
    // image inside the GEMM). ---
    {
        let spec = ConvSpec {
            stride: 1,
            padding: 1,
            groups: 1,
        };
        let input = Tensor::randn(&[8, 16, 32, 32], &mut rng);
        let weight = Tensor::randn(&[16, 16, 3, 3], &mut rng);
        let out = conv::conv2d_forward(&input, &weight, spec);
        let grad = Tensor::randn(out.shape(), &mut rng);
        let (new, seed) = paired_median_ns(
            || {
                std::hint::black_box(conv::conv2d_backward_weight(
                    &input,
                    weight.shape(),
                    &grad,
                    spec,
                ));
            },
            || {
                std::hint::black_box(conv_ref::conv2d_backward_weight(
                    &input,
                    weight.shape(),
                    &grad,
                    spec,
                ));
            },
        );
        push("conv2d_bwd_weight_reunroll_8x16x32x32", new, seed);
    }

    // --- Norm / softmax / pooling kernels: parallel fused reductions vs
    // the seed scalar loops (`yf_autograd::norm::reference`). ---
    let par = Par::pool();
    {
        let x = Tensor::randn(&[8, 32, 32, 32], &mut rng);
        let gamma = Tensor::randn(&[32], &mut rng).map(|v| 1.0 + 0.1 * v);
        let beta = Tensor::randn(&[32], &mut rng);
        let grad = Tensor::randn(x.shape(), &mut rng);
        let (_, saved) = norm::batch_norm_forward(&x, &gamma, &beta, 1e-5, par);
        push(
            "batch_norm_fwd_8x32x32x32",
            median_ns(|| {
                std::hint::black_box(norm::batch_norm_forward(&x, &gamma, &beta, 1e-5, par));
            }),
            median_ns(|| {
                std::hint::black_box(norm_ref::batch_norm_forward(&x, &gamma, &beta, 1e-5));
            }),
        );
        push(
            "batch_norm_bwd_8x32x32x32",
            median_ns(|| {
                std::hint::black_box(norm::batch_norm_backward(&x, &gamma, &saved, &grad, par));
            }),
            median_ns(|| {
                std::hint::black_box(norm_ref::batch_norm_backward(&x, &gamma, &saved, &grad));
            }),
        );
    }
    {
        let x = Tensor::randn(&[64, 1024], &mut rng);
        let gamma = Tensor::randn(&[1024], &mut rng).map(|v| 1.0 + 0.1 * v);
        let beta = Tensor::randn(&[1024], &mut rng);
        let grad = Tensor::randn(x.shape(), &mut rng);
        let (_, stats) = norm::layer_norm_forward(&x, &gamma, &beta, 1e-5, par);
        push(
            "layer_norm_fwd_64x1024",
            median_ns(|| {
                std::hint::black_box(norm::layer_norm_forward(&x, &gamma, &beta, 1e-5, par));
            }),
            median_ns(|| {
                std::hint::black_box(norm_ref::layer_norm_forward(&x, &gamma, &beta, 1e-5));
            }),
        );
        push(
            "layer_norm_bwd_64x1024",
            median_ns(|| {
                std::hint::black_box(norm::layer_norm_backward(&x, &gamma, &stats, &grad, par));
            }),
            median_ns(|| {
                std::hint::black_box(norm_ref::layer_norm_backward(&x, &gamma, &stats, &grad));
            }),
        );
    }
    {
        let logits = Tensor::randn(&[64, 4096], &mut rng);
        let targets: Vec<usize> = (0..64).map(|r| (r * 61) % 4096).collect();
        let (_, probs) = norm::softmax_xent_forward(&logits, &targets, par);
        push(
            "softmax_ce_fwd_64x4096",
            median_ns(|| {
                std::hint::black_box(norm::softmax_xent_forward(&logits, &targets, par));
            }),
            median_ns(|| {
                std::hint::black_box(norm_ref::softmax_xent_forward(&logits, &targets));
            }),
        );
        push(
            "softmax_ce_bwd_64x4096",
            median_ns(|| {
                std::hint::black_box(norm::softmax_xent_backward(&probs, &targets, 1.0, par));
            }),
            median_ns(|| {
                std::hint::black_box(norm_ref::softmax_xent_backward(&probs, &targets, 1.0));
            }),
        );
    }
    {
        let x = Tensor::randn(&[8, 32, 32, 32], &mut rng);
        let (pooled, argmax) = norm::max_pool2x2_forward(&x, par);
        let grad = Tensor::randn(pooled.shape(), &mut rng);
        push(
            "max_pool_fwd_8x32x32x32",
            median_ns(|| {
                std::hint::black_box(norm::max_pool2x2_forward(&x, par));
            }),
            median_ns(|| {
                std::hint::black_box(norm_ref::max_pool2x2_forward(&x));
            }),
        );
        push(
            "max_pool_bwd_8x32x32x32",
            median_ns(|| {
                std::hint::black_box(norm::max_pool2x2_backward(x.shape(), &argmax, &grad, par));
            }),
            median_ns(|| {
                std::hint::black_box(norm_ref::max_pool2x2_backward(x.shape(), &argmax, &grad));
            }),
        );
    }

    // --- Optimizer-step kernels: sharded apply vs single-thread apply on
    // ~1M parameters (the ShardedState + worker-pool payoff). The
    // "seed" column is the whole-vector single-shard path, which is
    // exactly what the one-phase API executed. ---
    {
        let n = 1 << 20;
        let grads: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let shards = parallel::num_threads();
        type OptCase = (&'static str, fn() -> Box<dyn Optimizer>);
        let cases: &[OptCase] = &[
            ("momentum_step_1M_sharded", || {
                Box::new(MomentumSgd::new(1e-4, 0.9))
            }),
            ("adam_step_1M_sharded", || Box::new(Adam::new(1e-4))),
        ];
        for &(name, make) in cases {
            let mut single = make();
            let mut params1 = vec![0.0f32; n];
            let single_ns = median_ns(|| {
                single.step(&mut params1, &grads);
                std::hint::black_box(&params1);
            });
            let mut sharded = make();
            let mut params2 = vec![0.0f32; n];
            let sharded_ns = median_ns(|| {
                step_sharded(sharded.as_mut(), &mut params2, &grads, shards);
                std::hint::black_box(&params2);
            });
            push(name, sharded_ns, single_ns);
        }
    }

    // --- The sharded measure phase on ~1M parameters: YellowFin's fused
    // partial-reduction observe (blocked Σg² fan-out + fused clip-scaled
    // EMA/variance sweep, no gradient copy) vs the seed-era serial path
    // (grad_buf copy, scalar norm loop, two EMA passes, whole-dimension
    // variance fold). The t1/t4 entries pin the shard count explicitly so
    // the trajectory is comparable across runner widths; on a 1-core
    // runner t4 only measures fan-out overhead. ---
    {
        let n = 1 << 20;
        let params = vec![0.0f32; n];
        let grads: Vec<f32> = (0..n).map(|_| rng.normal() * 0.01).collect();
        for &(name, observe_shards) in &[("observe_1M_t1", 1usize), ("observe_1M_t4", 4)] {
            let mut opt = YellowFin::default();
            let new = median_ns(|| {
                let hyper = step_fused(&mut opt, &params, &grads, observe_shards, 0, |_, _, _| {});
                std::hint::black_box(hyper);
            });
            let mut seed_opt = SerialObserve::new(n);
            let seed = median_ns(|| {
                seed_opt.observe(&grads);
                std::hint::black_box(seed_opt.grad_buf.len());
            });
            push(name, new, seed);
        }

        // Full step: fused sharded observe + combine + sharded apply vs
        // the PR 3-era serial-observe-then-fan-out path (whole-vector
        // `observe`, then the same sharded apply).
        for &(name, t) in &[("yf_full_step_1M_t1", 1usize), ("yf_full_step_1M_t4", 4)] {
            let mut fused = YellowFin::default();
            let mut pf = params.clone();
            let new = median_ns(|| {
                step_sharded(&mut fused, &mut pf, &grads, t);
                std::hint::black_box(&pf);
            });
            let mut serial = YellowFin::default();
            let mut ps = params.clone();
            let seed = median_ns(|| {
                let hyper = serial.observe(&ps, &grads);
                seed_apply_sharded(&serial, &mut ps, &grads, hyper, t);
                std::hint::black_box(&ps);
            });
            push(name, new, seed);
        }
    }

    // --- Algorithm 3's variance sweep alone: `reduce::ema_update_stats`
    // over 2^20 coordinates in one chunk against the per-element-lane
    // loop it replaced, sampled alternately. Both must leave the same
    // moment and block-sum bits. A generator of its own keeps the other
    // entries' inputs what they were. ---
    {
        type Sweep = fn(&mut [f64], &mut [f64], &[f32], f64, f64, f64, &mut [f64]);
        type Moments = (Vec<f64>, Vec<f64>, Vec<f64>);
        let n = 1 << 20;
        let mut rng = Pcg32::seed(19);
        let grads: Vec<f32> = (0..n).map(|_| rng.normal() * 0.01).collect();
        let first: Vec<f64> = (0..n).map(|_| f64::from(rng.normal()) * 1e-4).collect();
        let second = first.iter().map(|m| m * m).collect();
        let start: Moments = (first, second, vec![0.0; reduce::blocks_for(n)]);
        let (mut new_state, mut seed_state) = (start.clone(), start);
        let sweep = |kernel: Sweep, (b1, b2, blocks): &mut Moments| {
            kernel(b1, b2, &grads, 0.999, 0.5, 0.1, blocks);
            std::hint::black_box(blocks);
        };
        sweep(reduce::ema_update_stats, &mut new_state);
        sweep(seed_ema_update_stats, &mut seed_state);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (what, new, seed) in [
            ("first moments", &new_state.0, &seed_state.0),
            ("second moments", &new_state.1, &seed_state.1),
            ("block sums", &new_state.2, &seed_state.2),
        ] {
            assert!(
                bits(new) == bits(seed),
                "the sweep must leave the seed loop's {what}"
            );
        }
        let (new, seed) = paired_median_ns(
            || sweep(reduce::ema_update_stats, &mut new_state),
            || sweep(seed_ema_update_stats, &mut seed_state),
        );
        push("variance_sweep_1M", new, seed);
    }

    // --- The paper's "overhead linear to model dimensionality": one
    // YellowFin step against one momentum-SGD step on the same gradient,
    // at 4k and at 1M parameters. The speedup is momentum's share of a
    // YellowFin step; the claim holds when the extra cost per parameter
    // is flat across the two sizes. A 4k sample covers `reps` steps so a
    // brief stall is averaged out, and a generator of its own keeps the
    // serve entries' gradients what they were. ---
    {
        let mut rng = Pcg32::seed(1 << 20);
        let cases: [(&'static str, usize, u128); 2] = [
            ("yf_step_vs_momentum_4k", 1 << 12, 64),
            ("yf_step_vs_momentum_1M", 1 << 20, 1),
        ];
        for (name, dim, reps) in cases {
            let grads: Vec<f32> = (0..dim).map(|_| rng.normal() * 0.01).collect();
            let (mut yf, mut yf_params) = (YellowFin::default(), vec![0.0f32; dim]);
            let (mut sgd, mut sgd_params) = (MomentumSgd::new(0.01, 0.9), vec![0.0f32; dim]);
            let (new, seed) = paired_median_ns(
                || {
                    for _ in 0..reps {
                        yf.step(&mut yf_params, &grads);
                    }
                },
                || {
                    for _ in 0..reps {
                        sgd.step(&mut sgd_params, &grads);
                    }
                },
            );
            push(name, new / reps, seed / reps);
        }
    }

    // --- The float text codec under every JSON measure frame, session
    // snapshot and checkpoint: one dim-4096 gradient row through the
    // table-driven `yf_tensor::hex` vs the seed codec, in ns per row. Each
    // sample covers `ROWS` rows, so a brief stall on a shared host is
    // averaged out rather than taken as the row's cost. A generator of
    // its own keeps the serve entries' gradients what they were. ---
    {
        const ROWS: u128 = 64;
        let mut rng = Pcg32::seed(4096);
        let values: Vec<f32> = (0..4096).map(|_| rng.normal() * 0.01).collect();
        let row = hex::f32_row(&values);
        assert_eq!(
            row,
            seed_f32_row(&values),
            "the codec must write the seed's bytes"
        );
        let (new, seed) = paired_median_ns(
            || {
                for _ in 0..ROWS {
                    std::hint::black_box(hex::f32_row(&values));
                }
            },
            || {
                for _ in 0..ROWS {
                    std::hint::black_box(seed_f32_row(&values));
                }
            },
        );
        push("hex_f32_row_4096", new / ROWS, seed / ROWS);
        let (new, seed) = paired_median_ns(
            || {
                for _ in 0..ROWS {
                    std::hint::black_box(hex::f32_unrow(&row).expect("valid row"));
                }
            },
            || {
                for _ in 0..ROWS {
                    std::hint::black_box(seed_f32_unrow(&row).expect("valid row"));
                }
            },
        );
        push("hex_f32_unrow_4096", new / ROWS, seed / ROWS);
    }

    // --- Tuning-as-a-service throughput: ns per measurement served
    // through the full yf-serve stack — loopback TCP, quality filter,
    // observe/combine, authority clamp (snapshots off) — at 1 session and
    // at 32 concurrent sessions. The seed column is the in-process
    // session pipeline, so the speedup reads as the fraction of local
    // tuning throughput retained over the wire; it is contextual, which
    // is why these entries gate on absolute ns, not the speedup band.
    //
    // measurements/sec = 1e9 / median_ns. Each timed batch opens fresh
    // sessions (session steps are strictly sequential), so the
    // open/close handshake is amortized over `frames` measurements just
    // like a short training run.
    {
        let dim = 4096;
        let frames = 64usize;
        let grads: Vec<Vec<f32>> = (0..frames)
            .map(|_| (0..dim).map(|_| rng.normal() * 0.01).collect())
            .collect();

        fn open_spec(name: String, dim: usize) -> OpenSpec {
            OpenSpec {
                session: name,
                optimizer: "yellowfin".to_string(),
                value: 0.1,
                dim,
                authority: Authority::default(),
                filter: FilterSpec::default(),
            }
        }

        /// One client streaming one session end to end: connect, open,
        /// `frames` lock-step measurements, close.
        fn stream_one(
            addr: std::net::SocketAddr,
            cfg: &ClientConfig,
            spec: OpenSpec,
            grads: &[Vec<f32>],
        ) {
            let mut client = Client::connect_with(addr, cfg).expect("connect yf-serve");
            let name = spec.session.clone();
            client.open(spec).expect("open session");
            for (i, g) in grads.iter().enumerate() {
                std::hint::black_box(client.measure(&name, i as u64, 0.5, g).expect("measure"));
            }
            client.close_session(&name).expect("close session");
        }

        let server = Server::start(ServeConfig {
            snapshot_dir: None,
            ..ServeConfig::default()
        })
        .expect("start yf-serve");
        let addr = server.local_addr();
        let cfg = ClientConfig::default();
        let mut round = 0u64;

        // Seed for these entries: the same measurement stream through an
        // in-process Session (no wire).
        let local_batch = median_ns(|| {
            round += 1;
            let mut s = Session::new(open_spec(format!("local-{round}"), dim)).unwrap();
            for (i, g) in grads.iter().enumerate() {
                std::hint::black_box(s.measure(i as u64, 0.5, g).unwrap());
            }
        });
        let local = (local_batch / frames as u128).max(1);

        let one = {
            let batch = median_ns(|| {
                round += 1;
                stream_one(addr, &cfg, open_spec(format!("one-{round}"), dim), &grads);
            });
            (batch / frames as u128).max(1)
        };
        push("serve_measure_1_session", one, local);

        let many = 32usize;
        let many_ns = {
            let batch = median_ns(|| {
                round += 1;
                let r = round;
                std::thread::scope(|scope| {
                    for t in 0..many {
                        let (cfg, grads) = (&cfg, &grads);
                        scope.spawn(move || {
                            stream_one(addr, cfg, open_spec(format!("s{r}-{t}"), dim), grads);
                        });
                    }
                });
            });
            (batch / (many * frames) as u128).max(1)
        };
        push("serve_measure_32_sessions", many_ns, local);

        // The durable path, where every measurement is on disk before
        // its reply: one session at a time against a server with a
        // snapshot directory. The new side keeps YellowFin's moments
        // locally, sweeps each gradient once (the default configuration
        // never clips, so the sweep scale is 1) and sends
        // `measure_stats`; the seed sends the full gradient with
        // `measure`, so the server sweeps the moments and logs the
        // gradient, and its snapshots carry the moments. Both
        // sides are sampled alternately; the name stays outside
        // `serve_measure_`, so the gate bands the speedup.
        let dir = std::env::temp_dir().join(format!("yf-perf-durable-{}", std::process::id()));
        let durable = Server::start(ServeConfig {
            snapshot_dir: Some(dir.clone()),
            ..ServeConfig::default()
        })
        .expect("start durable yf-serve");
        let durable_addr = durable.local_addr();
        let (mut stats_round, mut grads_round) = (0u64, 0u64);
        let (stats_batch, grads_batch) = paired_median_ns(
            || {
                stats_round += 1;
                let spec = open_spec(format!("stats-{stats_round}"), dim);
                let name = spec.session.clone();
                let mut client = Client::connect_with(durable_addr, &cfg).expect("connect");
                client.open(spec).expect("open session");
                let mut moments = GradVariance::new(yellowfin_config(0.1).beta);
                for (i, g) in grads.iter().enumerate() {
                    let sumsq = reduce::tree_reduce(&reduce::block_sumsq(g));
                    moments.observe_scaled(g, 1.0, 1);
                    std::hint::black_box(
                        client
                            .measure_stats(&name, i as u64, 0.5, sumsq, moments.variance())
                            .expect("measure_stats"),
                    );
                }
                client.close_session(&name).expect("close session");
            },
            || {
                grads_round += 1;
                let spec = open_spec(format!("grads-{grads_round}"), dim);
                stream_one(durable_addr, &cfg, spec, &grads);
            },
        );
        push(
            "serve_durable_stats_1_session",
            (stats_batch / frames as u128).max(1),
            (grads_batch / frames as u128).max(1),
        );
        let _ = durable.drain();

        // What persisting one of those measurements costs the server on
        // its own: appending the frame's record to the session log,
        // against sealing the session's whole snapshot (the write every
        // served step paid before the log). Both write into the same
        // directory and are sampled alternately; the name stays outside
        // `serve_measure_`, so the gate bands the speedup.
        let (snap, line) = {
            let mut session = Session::new(open_spec("persist".to_string(), dim)).unwrap();
            let mut moments = GradVariance::new(yellowfin_config(0.1).beta);
            let mut line = String::new();
            for (i, g) in grads.iter().enumerate() {
                let sumsq = reduce::tree_reduce(&reduce::block_sumsq(g));
                moments.observe_scaled(g, 1.0, 1);
                let (step, var_sum) = (i as u64, moments.variance());
                session.measure_stats(step, 0.5, sumsq, var_sum).unwrap();
                line = ClientFrame::MeasureStats {
                    session: "persist".to_string(),
                    step,
                    loss: 0.5,
                    sumsq,
                    var_sum,
                }
                .to_line();
            }
            (snapshot::encode(&session.snapshot()), line)
        };
        let mut log = Log::open(&dir.join("persist.log")).expect("open log").0;
        let snap_path = dir.join("persist.session");
        let (append, seal) = paired_median_ns(
            || log.append(&line).expect("log append"),
            || fsio::write_sealed(&snap_path, &snap).expect("seal snapshot"),
        );
        push("serve_persist_stats_record", append, seal);
        drop(log);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = server.drain();
    }

    // --- Dispatch accounting: one full tuned optimizer step (measure →
    // combine → apply, 1M params, 4 shards) must ride exactly one pool
    // fan-out. The counter is thread-local, so this measurement cannot be
    // skewed by anything else; a second dispatch per step is a structural
    // regression of the fused runtime and fails the report outright. ---
    let fanouts_per_step = {
        let n = 1 << 20;
        let mut opt = YellowFin::default();
        let mut params = vec![0.0f32; n];
        let grads: Vec<f32> = (0..n).map(|_| rng.normal() * 0.01).collect();
        step_sharded(&mut opt, &mut params, &grads, 4); // warm (lazy state init)
        let before = parallel::fanout_count();
        step_sharded(&mut opt, &mut params, &grads, 4);
        parallel::fanout_count() - before
    };
    println!("{:<36} {fanouts_per_step:>12} per step", "pool_fanouts");
    assert_eq!(
        fanouts_per_step, 1,
        "fused optimizer step must be exactly one pool dispatch"
    );

    // --- Emit BENCH_kernels.json. ---
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"generated_by\": \"perf_report\",");
    let _ = writeln!(json, "  \"samples_per_kernel\": {},", samples() | 1);
    let _ = writeln!(json, "  \"threads\": {},", parallel::num_threads());
    let _ = writeln!(json, "  \"fanouts_per_step\": {fanouts_per_step},");
    let _ = writeln!(
        json,
        "  \"simd\": \"{}\",",
        yf_tensor::gemm::detected_simd()
    );
    let bl = yf_tensor::gemm::blocks();
    let _ = writeln!(
        json,
        "  \"gemm_blocks\": \"{},{},{}\",",
        bl.mc, bl.kc, bl.nc
    );
    let _ = writeln!(json, "  \"unit\": \"median ns per op\",");
    let _ = writeln!(json, "  \"kernels\": {{");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    \"{}\": {{\"median_ns\": {}, \"seed_median_ns\": {}, \"speedup\": {:.3}}}{comma}",
            e.name,
            e.median_ns,
            e.seed_median_ns,
            e.speedup()
        );
    }
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    let out_path =
        std::env::var("YF_PERF_OUT").unwrap_or_else(|_| "BENCH_kernels.json".to_string());
    // Atomic replace: a crashed run never leaves a truncated baseline
    // for the regression gate to choke on.
    fsio::write_atomic(std::path::Path::new(&out_path), json.as_bytes())
        .expect("write BENCH_kernels.json");
    println!("\nwrote {out_path}");

    // --- Regression gate against the committed baseline. ---
    if let Some((path, baseline)) = baseline {
        // Parallel-kernel speedups scale with the machine width; gating a
        // 16-thread run against a 1-thread baseline (or vice versa) would
        // manufacture regressions or free passes. Skip, loudly.
        let now_threads = parallel::num_threads();
        if baseline.threads != Some(now_threads) {
            eprintln!(
                "perf gate: WARNING: baseline {path} was recorded at {} threads, \
                 this run uses {now_threads}; skipping all baseline entries",
                baseline
                    .threads
                    .map_or("unknown".to_string(), |t| t.to_string()),
            );
            return;
        }
        let tol: f64 = std::env::var("YF_PERF_TOL")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|t| *t > 0.0)
            .unwrap_or(0.35);
        let mut failed = false;
        let bad = regressions(&entries, &baseline.entries, tol);
        if bad.is_empty() {
            println!(
                "perf gate: all kernel speedups within {:.0}% of {path}",
                tol * 100.0
            );
        } else {
            failed = true;
            eprintln!(
                "perf gate: kernel speedups regressed >{:.0}% vs {path}:",
                tol * 100.0
            );
            for (name, base, now) in &bad {
                eprintln!("  {name}: {base:.2}x -> {now:.2}x");
            }
        }
        // The serve entries: absolute ns against the baseline.
        let serve_tol: f64 = std::env::var("YF_PERF_SERVE_TOL")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|t| *t > 0.0)
            .unwrap_or(0.75);
        let bad = serve_regressions(&entries, &baseline.entries, serve_tol);
        if bad.is_empty() {
            println!(
                "perf gate: all serve_measure_* entries within {:.0}% of {path}",
                serve_tol * 100.0
            );
        } else {
            failed = true;
            eprintln!(
                "perf gate: serve throughput regressed >{:.0}% vs {path}:",
                serve_tol * 100.0
            );
            for (name, base, now) in &bad {
                eprintln!("  {name}: {base} ns -> {now} ns");
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
