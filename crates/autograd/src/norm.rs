//! Normalization, softmax, and pooling kernels (forward and backward),
//! parallelized on [`yf_tensor::parallel`].
//!
//! These are the model zoo's non-GEMM hot loops: training-mode batch
//! normalization, row-wise layer normalization, fused
//! softmax-cross-entropy, 2x2 max pooling, and global average pooling.
//! Every kernel takes a [`Par`] budget (the tape passes its own; tests
//! pin 1 vs N) and clamps it with [`Par::chunks_for`] so small tensors
//! never pay a dispatch; the fan-out itself lands on the persistent
//! worker pool.
//!
//! Parallel structure: reductions fan out over their *output* rows (one
//! worker per block of channels, rows, or columns, each accumulating
//! serially in a fixed order), and elementwise phases fan out over
//! disjoint planes/rows of the output. Every output element is produced
//! by exactly one worker with a deterministic accumulation order, so
//! results are **bitwise identical at any thread count**.
//!
//! The batch-norm statistics are a *fused single-pass* reduction: one
//! sweep accumulates both the sum and the sum of squares in `f64`
//! (`var = E[x²] − mean²`), replacing the seed's two passes over the
//! batch. The seed-era scalar loops are retained verbatim in
//! [`mod@reference`] for cross-checking and as `perf_report`'s baseline
//! column.

use yf_tensor::parallel::{chunks_mut, chunks_mut2, Par};
use yf_tensor::Tensor;

/// Per-channel statistics saved by the batch-norm forward pass for the
/// backward pass.
#[derive(Debug, Clone)]
pub struct BnSaved {
    /// Per-channel batch mean.
    pub mean: Vec<f32>,
    /// Per-channel inverse standard deviation `1/sqrt(var + eps)`.
    pub inv_std: Vec<f32>,
}

impl BnSaved {
    /// Batch variance per channel, recovered from the saved inverse std
    /// (exposed for tests; training-mode BN needs only `inv_std`).
    #[cfg(test)]
    pub fn variance(&self, eps: f32) -> Vec<f32> {
        self.inv_std
            .iter()
            .map(|&is| 1.0 / (is * is) - eps)
            .collect()
    }
}

fn dims4(t: &Tensor) -> (usize, usize, usize, usize) {
    let s = t.shape();
    (s[0], s[1], s[2], s[3])
}

/// Normalizes `[B, C, H, W]` per channel over the batch and spatial axes.
///
/// # Panics
///
/// Panics unless `x` is rank 4 and `gamma`/`beta` are `[C]`.
pub fn batch_norm_forward(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
    par: Par,
) -> (Tensor, BnSaved) {
    assert_eq!(x.shape().len(), 4, "batch_norm: input must be rank 4");
    let (b, c, h, w) = dims4(x);
    assert_eq!(gamma.shape(), &[c], "batch_norm: gamma must be [C]");
    assert_eq!(beta.shape(), &[c], "batch_norm: beta must be [C]");
    let hw = h * w;
    let n = (b * hw) as f64;
    let xd = x.data();
    let t = Par::threads(par.chunks_for(x.len()));
    // Fused single-pass statistics: one sweep per channel accumulates sum
    // and sum-of-squares in f64, each channel owned by one worker.
    let mut stats = vec![(0.0f32, 0.0f32); c];
    chunks_mut(&mut stats, 1, t, |first, chunk| {
        for (off, slot) in chunk.iter_mut().enumerate() {
            let ci = first + off;
            let (mut s, mut ss) = (0.0f64, 0.0f64);
            for bi in 0..b {
                for &v in &xd[(bi * c + ci) * hw..][..hw] {
                    let v = f64::from(v);
                    s += v;
                    ss += v * v;
                }
            }
            let mean = s / n;
            let var = (ss / n - mean * mean).max(0.0);
            *slot = (mean as f32, (1.0 / (var + f64::from(eps)).sqrt()) as f32);
        }
    });
    let mut out = vec![0.0f32; x.len()];
    let (gd, bd) = (gamma.data(), beta.data());
    let stats_ref = &stats;
    chunks_mut(&mut out, hw, t, |first, chunk| {
        for (p, plane) in chunk.chunks_exact_mut(hw).enumerate() {
            let ci = (first + p) % c;
            let (m, is) = stats_ref[ci];
            let (g, bt) = (gd[ci], bd[ci]);
            for (o, &v) in plane.iter_mut().zip(&xd[(first + p) * hw..][..hw]) {
                *o = g * (v - m) * is + bt;
            }
        }
    });
    let (mean, inv_std) = stats.into_iter().unzip();
    (Tensor::from_vec(out, x.shape()), BnSaved { mean, inv_std })
}

/// Batch-norm backward pass: returns `(dx, dgamma, dbeta)`.
///
/// Uses the standard closed form: with `x_hat = (x - mean) * inv_std`,
/// `dx = gamma * inv_std / N * (N * dy - sum(dy) - x_hat * sum(dy * x_hat))`.
pub fn batch_norm_backward(
    x: &Tensor,
    gamma: &Tensor,
    saved: &BnSaved,
    grad_out: &Tensor,
    par: Par,
) -> (Tensor, Tensor, Tensor) {
    let (b, c, h, w) = dims4(x);
    let hw = h * w;
    let n = (b * hw) as f32;
    let (xd, god) = (x.data(), grad_out.data());
    let t = Par::threads(par.chunks_for(x.len()));
    // Fused per-channel reduction of (sum dy, sum dy*x_hat), one worker
    // per block of channels, batch-major accumulation order.
    let mut sums = vec![(0.0f32, 0.0f32); c];
    chunks_mut(&mut sums, 1, t, |first, chunk| {
        for (off, slot) in chunk.iter_mut().enumerate() {
            let ci = first + off;
            let (m, is) = (saved.mean[ci], saved.inv_std[ci]);
            let (mut sum_dy, mut sum_dy_xhat) = (0.0f32, 0.0f32);
            for bi in 0..b {
                let base = (bi * c + ci) * hw;
                for k in 0..hw {
                    let dy = god[base + k];
                    let xhat = (xd[base + k] - m) * is;
                    sum_dy += dy;
                    sum_dy_xhat += dy * xhat;
                }
            }
            *slot = (sum_dy, sum_dy_xhat);
        }
    });
    let mut dx = vec![0.0f32; x.len()];
    let gd = gamma.data();
    let sums_ref = &sums;
    chunks_mut(&mut dx, hw, t, |first, chunk| {
        for (p, plane) in chunk.chunks_exact_mut(hw).enumerate() {
            let ci = (first + p) % c;
            let (m, is, g) = (saved.mean[ci], saved.inv_std[ci], gd[ci]);
            let (sum_dy, sum_dy_xhat) = sums_ref[ci];
            let k1 = g * is / n;
            let base = (first + p) * hw;
            for (k, slot) in plane.iter_mut().enumerate() {
                let dy = god[base + k];
                let xhat = (xd[base + k] - m) * is;
                *slot = k1 * (n * dy - sum_dy - xhat * sum_dy_xhat);
            }
        }
    });
    let (dbeta, dgamma): (Vec<f32>, Vec<f32>) = sums.into_iter().unzip();
    (
        Tensor::from_vec(dx, x.shape()),
        Tensor::from_vec(dgamma, &[c]),
        Tensor::from_vec(dbeta, &[c]),
    )
}

/// Row-wise layer normalization of `[B, N]`; returns the output and the
/// per-row `(mean, inv_std)` statistics for the backward pass.
///
/// # Panics
///
/// Panics unless `x` is rank 2 and `gamma`/`beta` are `[N]`.
pub fn layer_norm_forward(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
    par: Par,
) -> (Tensor, Vec<(f32, f32)>) {
    assert_eq!(x.shape().len(), 2, "layer_norm: input must be rank 2");
    let (b, n) = (x.shape()[0], x.shape()[1]);
    assert_eq!(gamma.shape(), &[n], "layer_norm: gamma must be [N]");
    assert_eq!(beta.shape(), &[n], "layer_norm: beta must be [N]");
    let (xd, gd, bd) = (x.data(), gamma.data(), beta.data());
    let t = Par::threads(par.chunks_for(x.len()));
    let mut out = vec![0.0f32; b * n];
    let mut stats = vec![(0.0f32, 0.0f32); b];
    // One pass: each worker owns a block of rows and produces both the
    // normalized row and its statistics.
    chunks_mut2(&mut out, n, &mut stats, 1, t, |first, oc, sc| {
        for (r_off, (orow, stat)) in oc.chunks_exact_mut(n).zip(sc.iter_mut()).enumerate() {
            let row = &xd[(first + r_off) * n..][..n];
            let mean = row.iter().sum::<f32>() / n as f32;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
            let inv_std = 1.0 / (var + eps).sqrt();
            *stat = (mean, inv_std);
            for ((o, &v), (&g, &bt)) in orow.iter_mut().zip(row).zip(gd.iter().zip(bd)) {
                *o = g * (v - mean) * inv_std + bt;
            }
        }
    });
    (Tensor::from_vec(out, &[b, n]), stats)
}

/// Layer-norm backward pass: returns `(dx, dgamma, dbeta)`.
pub fn layer_norm_backward(
    x: &Tensor,
    gamma: &Tensor,
    stats: &[(f32, f32)],
    grad_out: &Tensor,
    par: Par,
) -> (Tensor, Tensor, Tensor) {
    let (b, n) = (x.shape()[0], x.shape()[1]);
    let (xd, gd, god) = (x.data(), gamma.data(), grad_out.data());
    let t = Par::threads(par.chunks_for(x.len()));
    // dx: one worker per block of rows, each row's two reductions
    // computed in-worker (same order as the scalar loop).
    let mut dx = vec![0.0f32; b * n];
    chunks_mut(&mut dx, n, t, |first, chunk| {
        for (r_off, drow) in chunk.chunks_exact_mut(n).enumerate() {
            let r = first + r_off;
            let (mean, inv_std) = stats[r];
            let row = &xd[r * n..][..n];
            let gr = &god[r * n..][..n];
            let (mut sum_dy, mut sum_dy_xhat) = (0.0f32, 0.0f32);
            for j in 0..n {
                let xhat = (row[j] - mean) * inv_std;
                let dy = gr[j] * gd[j];
                sum_dy += dy;
                sum_dy_xhat += dy * xhat;
            }
            let nf = n as f32;
            for (j, slot) in drow.iter_mut().enumerate() {
                let xhat = (row[j] - mean) * inv_std;
                let dy = gr[j] * gd[j];
                *slot = inv_std / nf * (nf * dy - sum_dy - xhat * sum_dy_xhat);
            }
        }
    });
    // dgamma/dbeta: column reductions over the batch, one worker per
    // block of columns. Rows stay the outer loop (contiguous reads of
    // the worker's column block per row) and each column accumulates in
    // row order, so the result is independent of the block partition.
    let mut dgb = vec![(0.0f32, 0.0f32); n];
    chunks_mut(&mut dgb, 1, t, |first, chunk| {
        for r in 0..b {
            let (mean, inv_std) = stats[r];
            let row = &xd[r * n + first..][..chunk.len()];
            let gr = &god[r * n + first..][..chunk.len()];
            for ((slot, &xv), &g) in chunk.iter_mut().zip(row).zip(gr) {
                let xhat = (xv - mean) * inv_std;
                slot.0 += g * xhat;
                slot.1 += g;
            }
        }
    });
    let (dgamma, dbeta): (Vec<f32>, Vec<f32>) = dgb.into_iter().unzip();
    (
        Tensor::from_vec(dx, &[b, n]),
        Tensor::from_vec(dgamma, &[n]),
        Tensor::from_vec(dbeta, &[n]),
    )
}

/// Mean softmax cross-entropy of `[B, K]` logits against integer class
/// targets; returns the scalar loss and the softmax probabilities (saved
/// for the backward pass). Numerically stabilized by max subtraction.
///
/// # Panics
///
/// Panics if `targets.len()` differs from the batch size or a target is
/// out of range.
pub fn softmax_xent_forward(logits: &Tensor, targets: &[usize], par: Par) -> (f32, Tensor) {
    assert_eq!(
        logits.shape().len(),
        2,
        "softmax_xent: logits must be rank 2"
    );
    let (b, k) = (logits.shape()[0], logits.shape()[1]);
    assert_eq!(targets.len(), b, "softmax_xent: target count mismatch");
    for (r, &t) in targets.iter().enumerate() {
        assert!(t < k, "softmax_xent: target {t} out of range {k} (row {r})");
    }
    let ld = logits.data();
    let t = Par::threads(par.chunks_for(logits.len()));
    let mut probs = vec![0.0f32; b * k];
    chunks_mut(&mut probs, k, t, |first, chunk| {
        for (r_off, prow) in chunk.chunks_exact_mut(k).enumerate() {
            let row = &ld[(first + r_off) * k..][..k];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut z = 0.0f32;
            for (p, &v) in prow.iter_mut().zip(row) {
                let e = (v - m).exp();
                *p = e;
                z += e;
            }
            for p in prow.iter_mut() {
                *p /= z;
            }
        }
    });
    // The loss reduction reads one probability per row — not worth a fan
    // out.
    let mut loss = 0.0f64;
    for (r, &tgt) in targets.iter().enumerate() {
        loss -= f64::from(probs[r * k + tgt].max(1e-30).ln());
    }
    ((loss / b as f64) as f32, Tensor::from_vec(probs, &[b, k]))
}

/// Softmax-cross-entropy backward: `d loss / d logit = upstream *
/// (softmax - onehot) / B`, parallel over rows.
pub fn softmax_xent_backward(probs: &Tensor, targets: &[usize], upstream: f32, par: Par) -> Tensor {
    let (b, k) = (probs.shape()[0], probs.shape()[1]);
    let pd = probs.data();
    let scale = upstream / b as f32;
    let t = Par::threads(par.chunks_for(probs.len()));
    if t.budget() <= 1 {
        // Serial fast path: build the buffer in one pass (no zero
        // prefill), then fix the target elements. Bitwise identical to
        // the parallel path below.
        let mut dl: Vec<f32> = pd.iter().map(|&p| p * scale).collect();
        for (r, &tgt) in targets.iter().enumerate() {
            dl[r * k + tgt] = (pd[r * k + tgt] - 1.0) * scale;
        }
        return Tensor::from_vec(dl, probs.shape());
    }
    let mut dl = vec![0.0f32; b * k];
    chunks_mut(&mut dl, k, t, |first, chunk| {
        for (r_off, drow) in chunk.chunks_exact_mut(k).enumerate() {
            let r = first + r_off;
            let prow = &pd[r * k..][..k];
            // Branchless row: scale everything, then one target fixup
            // (recomputed as `(p - 1) * scale` so the result is bitwise
            // what the per-element onehot subtraction produces).
            for (slot, &pv) in drow.iter_mut().zip(prow) {
                *slot = pv * scale;
            }
            let tgt = targets[r];
            drow[tgt] = (prow[tgt] - 1.0) * scale;
        }
    });
    Tensor::from_vec(dl, probs.shape())
}

/// 2x2, stride-2 max pooling of `[B, C, H, W]` (even extents); returns
/// the pooled tensor and the flat input offset that won each output cell.
///
/// # Panics
///
/// Panics unless the input is rank 4 with even spatial extents.
pub fn max_pool2x2_forward(x: &Tensor, par: Par) -> (Tensor, Vec<usize>) {
    assert_eq!(x.shape().len(), 4, "max_pool: input must be rank 4");
    let (b, c, h, w) = dims4(x);
    assert!(h % 2 == 0 && w % 2 == 0, "max_pool: extents must be even");
    let (ho, wo) = (h / 2, w / 2);
    let owo = ho * wo;
    let xd = x.data();
    let t = Par::threads(par.chunks_for(x.len()));
    let mut out = vec![f32::NEG_INFINITY; b * c * owo];
    let mut argmax = vec![0usize; b * c * owo];
    chunks_mut2(&mut out, owo, &mut argmax, owo, t, |first, oc, ac| {
        for (p, (oplane, aplane)) in oc
            .chunks_exact_mut(owo)
            .zip(ac.chunks_exact_mut(owo))
            .enumerate()
        {
            let in_base = (first + p) * h * w;
            for oy in 0..ho {
                for ox in 0..wo {
                    let o = oy * wo + ox;
                    for (dy, dx) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                        let i = in_base + (2 * oy + dy) * w + 2 * ox + dx;
                        if xd[i] > oplane[o] {
                            oplane[o] = xd[i];
                            aplane[o] = i;
                        }
                    }
                }
            }
        }
    });
    (Tensor::from_vec(out, &[b, c, ho, wo]), argmax)
}

/// Max-pool backward: routes each output gradient to the input cell that
/// won the forward max, parallel across input planes (each plane's
/// argmax entries point only into that plane).
pub fn max_pool2x2_backward(
    input_shape: &[usize],
    argmax: &[usize],
    grad_out: &Tensor,
    par: Par,
) -> Tensor {
    let (b, c, h, w) = (
        input_shape[0],
        input_shape[1],
        input_shape[2],
        input_shape[3],
    );
    let hw = h * w;
    let owo = hw / 4;
    let god = grad_out.data();
    let t = Par::threads(par.chunks_for(b * c * hw));
    let mut dx = vec![0.0f32; b * c * hw];
    if t.budget() <= 1 {
        // Serial fast path: one flat scatter, no per-plane re-basing.
        for (&src, &g) in argmax.iter().zip(god) {
            dx[src] += g;
        }
        return Tensor::from_vec(dx, input_shape);
    }
    chunks_mut(&mut dx, hw, t, |first, chunk| {
        for (p, plane) in chunk.chunks_exact_mut(hw).enumerate() {
            let plane_idx = first + p;
            let in_base = plane_idx * hw;
            let out_base = plane_idx * owo;
            let (am, gr) = (&argmax[out_base..][..owo], &god[out_base..][..owo]);
            for (&src, &g) in am.iter().zip(gr) {
                plane[src - in_base] += g;
            }
        }
    });
    Tensor::from_vec(dx, input_shape)
}

/// Spatial mean pooling `[B, C, H, W] -> [B, C]`, parallel across planes.
///
/// # Panics
///
/// Panics unless the input is rank 4.
pub fn global_avg_pool_forward(x: &Tensor, par: Par) -> Tensor {
    assert_eq!(x.shape().len(), 4, "global_avg_pool: must be rank 4");
    let (b, c, h, w) = dims4(x);
    let hw = h * w;
    let xd = x.data();
    let t = Par::threads(par.chunks_for(x.len()));
    let mut out = vec![0.0f32; b * c];
    chunks_mut(&mut out, 1, t, |first, chunk| {
        for (p, slot) in chunk.iter_mut().enumerate() {
            let base = (first + p) * hw;
            *slot = xd[base..base + hw].iter().sum::<f32>() / hw as f32;
        }
    });
    Tensor::from_vec(out, &[b, c])
}

/// Global-average-pool backward: spreads each channel gradient uniformly
/// over its plane, parallel across planes.
pub fn global_avg_pool_backward(input_shape: &[usize], grad_out: &Tensor, par: Par) -> Tensor {
    let (b, c, h, w) = (
        input_shape[0],
        input_shape[1],
        input_shape[2],
        input_shape[3],
    );
    let hw = h * w;
    let god = grad_out.data();
    let t = Par::threads(par.chunks_for(b * c * hw));
    let mut dx = vec![0.0f32; b * c * hw];
    chunks_mut(&mut dx, hw, t, |first, chunk| {
        for (p, plane) in chunk.chunks_exact_mut(hw).enumerate() {
            plane.fill(god[first + p] / hw as f32);
        }
    });
    Tensor::from_vec(dx, input_shape)
}

/// The seed repository's scalar loops for every kernel in this module,
/// retained verbatim for cross-checking and as the perf baseline
/// `perf_report` measures speedups over.
pub mod reference {
    use super::{dims4, BnSaved};
    use yf_tensor::Tensor;

    /// Two-pass scalar batch-norm forward.
    pub fn batch_norm_forward(
        x: &Tensor,
        gamma: &Tensor,
        beta: &Tensor,
        eps: f32,
    ) -> (Tensor, BnSaved) {
        let (b, c, h, w) = dims4(x);
        let hw = h * w;
        let n = (b * hw) as f32;
        let mut mean = vec![0.0f32; c];
        let mut var = vec![0.0f32; c];
        for bi in 0..b {
            for (ci, m) in mean.iter_mut().enumerate() {
                let base = (bi * c + ci) * hw;
                for &v in &x.data()[base..base + hw] {
                    *m += v;
                }
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        for bi in 0..b {
            for (ci, vr) in var.iter_mut().enumerate() {
                let base = (bi * c + ci) * hw;
                for &v in &x.data()[base..base + hw] {
                    let d = v - mean[ci];
                    *vr += d * d;
                }
            }
        }
        for v in &mut var {
            *v /= n;
        }
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + eps).sqrt()).collect();
        let mut out = vec![0.0f32; x.len()];
        for bi in 0..b {
            for ci in 0..c {
                let base = (bi * c + ci) * hw;
                let (m, is, g, bt) = (mean[ci], inv_std[ci], gamma.data()[ci], beta.data()[ci]);
                for (o, &v) in out[base..base + hw]
                    .iter_mut()
                    .zip(&x.data()[base..base + hw])
                {
                    *o = g * (v - m) * is + bt;
                }
            }
        }
        (Tensor::from_vec(out, x.shape()), BnSaved { mean, inv_std })
    }

    /// Scalar batch-norm backward.
    pub fn batch_norm_backward(
        x: &Tensor,
        gamma: &Tensor,
        saved: &BnSaved,
        grad_out: &Tensor,
    ) -> (Tensor, Tensor, Tensor) {
        let (b, c, h, w) = dims4(x);
        let hw = h * w;
        let n = (b * hw) as f32;
        let mut sum_dy = vec![0.0f32; c];
        let mut sum_dy_xhat = vec![0.0f32; c];
        for bi in 0..b {
            for ci in 0..c {
                let base = (bi * c + ci) * hw;
                let (m, is) = (saved.mean[ci], saved.inv_std[ci]);
                for k in 0..hw {
                    let dy = grad_out.data()[base + k];
                    let xhat = (x.data()[base + k] - m) * is;
                    sum_dy[ci] += dy;
                    sum_dy_xhat[ci] += dy * xhat;
                }
            }
        }
        let mut dx = vec![0.0f32; x.len()];
        for bi in 0..b {
            for ci in 0..c {
                let base = (bi * c + ci) * hw;
                let (m, is, g) = (saved.mean[ci], saved.inv_std[ci], gamma.data()[ci]);
                let k1 = g * is / n;
                for k in 0..hw {
                    let dy = grad_out.data()[base + k];
                    let xhat = (x.data()[base + k] - m) * is;
                    dx[base + k] = k1 * (n * dy - sum_dy[ci] - xhat * sum_dy_xhat[ci]);
                }
            }
        }
        (
            Tensor::from_vec(dx, x.shape()),
            Tensor::from_vec(sum_dy_xhat, &[c]),
            Tensor::from_vec(sum_dy, &[c]),
        )
    }

    /// Scalar row-wise layer-norm forward.
    pub fn layer_norm_forward(
        x: &Tensor,
        gamma: &Tensor,
        beta: &Tensor,
        eps: f32,
    ) -> (Tensor, Vec<(f32, f32)>) {
        let (b, n) = (x.shape()[0], x.shape()[1]);
        let (gv, bv) = (gamma.data(), beta.data());
        let mut out = vec![0.0f32; b * n];
        let mut stats = Vec::with_capacity(b);
        for r in 0..b {
            let row = &x.data()[r * n..(r + 1) * n];
            let mean = row.iter().sum::<f32>() / n as f32;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
            let inv_std = 1.0 / (var + eps).sqrt();
            stats.push((mean, inv_std));
            for j in 0..n {
                out[r * n + j] = gv[j] * (row[j] - mean) * inv_std + bv[j];
            }
        }
        (Tensor::from_vec(out, &[b, n]), stats)
    }

    /// Scalar layer-norm backward.
    pub fn layer_norm_backward(
        x: &Tensor,
        gamma: &Tensor,
        stats: &[(f32, f32)],
        grad_out: &Tensor,
    ) -> (Tensor, Tensor, Tensor) {
        let (b, n) = (x.shape()[0], x.shape()[1]);
        let (xd, gv, god) = (x.data(), gamma.data(), grad_out.data());
        let mut dx = vec![0.0f32; b * n];
        let mut dgamma = vec![0.0f32; n];
        let mut dbeta = vec![0.0f32; n];
        for r in 0..b {
            let (mean, inv_std) = stats[r];
            let row = &xd[r * n..(r + 1) * n];
            let gr = &god[r * n..(r + 1) * n];
            let mut sum_dy = 0.0f32;
            let mut sum_dy_xhat = 0.0f32;
            for j in 0..n {
                let xhat = (row[j] - mean) * inv_std;
                let dy = gr[j] * gv[j];
                sum_dy += dy;
                sum_dy_xhat += dy * xhat;
                dgamma[j] += gr[j] * xhat;
                dbeta[j] += gr[j];
            }
            let nf = n as f32;
            for j in 0..n {
                let xhat = (row[j] - mean) * inv_std;
                let dy = gr[j] * gv[j];
                dx[r * n + j] = inv_std / nf * (nf * dy - sum_dy - xhat * sum_dy_xhat);
            }
        }
        (
            Tensor::from_vec(dx, &[b, n]),
            Tensor::from_vec(dgamma, &[n]),
            Tensor::from_vec(dbeta, &[n]),
        )
    }

    /// Scalar fused softmax-cross-entropy forward.
    pub fn softmax_xent_forward(logits: &Tensor, targets: &[usize]) -> (f32, Tensor) {
        let (b, k) = (logits.shape()[0], logits.shape()[1]);
        let mut probs = vec![0.0f32; b * k];
        let mut loss = 0.0f64;
        for r in 0..b {
            let row = &logits.data()[r * k..(r + 1) * k];
            let t = targets[r];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut z = 0.0f32;
            for (j, &v) in row.iter().enumerate() {
                let e = (v - m).exp();
                probs[r * k + j] = e;
                z += e;
            }
            for p in &mut probs[r * k..(r + 1) * k] {
                *p /= z;
            }
            loss -= f64::from(probs[r * k + t].max(1e-30).ln());
        }
        ((loss / b as f64) as f32, Tensor::from_vec(probs, &[b, k]))
    }

    /// Scalar softmax-cross-entropy backward.
    pub fn softmax_xent_backward(probs: &Tensor, targets: &[usize], upstream: f32) -> Tensor {
        let (b, k) = (probs.shape()[0], probs.shape()[1]);
        let mut dl = probs.data().to_vec();
        for (r, &t) in targets.iter().enumerate() {
            dl[r * k + t] -= 1.0;
        }
        let scale = upstream / b as f32;
        for v in &mut dl {
            *v *= scale;
        }
        Tensor::from_vec(dl, probs.shape())
    }

    /// Scalar 2x2 max-pool forward.
    pub fn max_pool2x2_forward(x: &Tensor) -> (Tensor, Vec<usize>) {
        let (b, c, h, w) = dims4(x);
        let (ho, wo) = (h / 2, w / 2);
        let mut out = vec![f32::NEG_INFINITY; b * c * ho * wo];
        let mut argmax = vec![0usize; b * c * ho * wo];
        let xd = x.data();
        for bc in 0..b * c {
            let in_base = bc * h * w;
            let out_base = bc * ho * wo;
            for oy in 0..ho {
                for ox in 0..wo {
                    let o = out_base + oy * wo + ox;
                    for (dy, dx) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                        let i = in_base + (2 * oy + dy) * w + 2 * ox + dx;
                        if xd[i] > out[o] {
                            out[o] = xd[i];
                            argmax[o] = i;
                        }
                    }
                }
            }
        }
        (Tensor::from_vec(out, &[b, c, ho, wo]), argmax)
    }

    /// Scalar max-pool backward (argmax scatter).
    pub fn max_pool2x2_backward(
        input_shape: &[usize],
        argmax: &[usize],
        grad_out: &Tensor,
    ) -> Tensor {
        let mut dx = vec![0.0f32; input_shape.iter().product()];
        for (o, &src) in argmax.iter().enumerate() {
            dx[src] += grad_out.data()[o];
        }
        Tensor::from_vec(dx, input_shape)
    }

    /// Scalar global-average-pool forward.
    pub fn global_avg_pool_forward(x: &Tensor) -> Tensor {
        let (b, c, h, w) = dims4(x);
        let hw = h * w;
        let mut out = vec![0.0f32; b * c];
        for bi in 0..b {
            for ci in 0..c {
                let base = (bi * c + ci) * hw;
                out[bi * c + ci] = x.data()[base..base + hw].iter().sum::<f32>() / hw as f32;
            }
        }
        Tensor::from_vec(out, &[b, c])
    }

    /// Scalar global-average-pool backward.
    pub fn global_avg_pool_backward(input_shape: &[usize], grad_out: &Tensor) -> Tensor {
        let (b, c, h, w) = (
            input_shape[0],
            input_shape[1],
            input_shape[2],
            input_shape[3],
        );
        let hw = (h * w) as f32;
        let mut dx = vec![0.0f32; b * c * h * w];
        for bi in 0..b {
            for ci in 0..c {
                let g = grad_out.data()[bi * c + ci] / hw;
                let base = (bi * c + ci) * h * w;
                for slot in &mut dx[base..base + h * w] {
                    *slot = g;
                }
            }
        }
        Tensor::from_vec(dx, input_shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yf_tensor::rng::Pcg32;

    #[test]
    fn output_is_normalized() {
        let mut rng = Pcg32::seed(21);
        let x = Tensor::randn(&[4, 3, 2, 2], &mut rng).map(|v| 3.0 * v + 1.0);
        let gamma = Tensor::ones(&[3]);
        let beta = Tensor::zeros(&[3]);
        let (y, _) = batch_norm_forward(&x, &gamma, &beta, 1e-5, Par::serial());
        // Per-channel mean ~0, variance ~1.
        let hw = 4;
        for ci in 0..3 {
            let mut vals = Vec::new();
            for bi in 0..4 {
                let base = (bi * 3 + ci) * hw;
                vals.extend_from_slice(&y.data()[base..base + hw]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "channel {ci} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {ci} var {var}");
        }
    }

    #[test]
    fn gamma_beta_affine() {
        let mut rng = Pcg32::seed(22);
        let x = Tensor::randn(&[2, 1, 2, 2], &mut rng);
        let gamma = Tensor::from_vec(vec![2.0], &[1]);
        let beta = Tensor::from_vec(vec![-1.0], &[1]);
        let (y, _) = batch_norm_forward(&x, &gamma, &beta, 1e-5, Par::serial());
        let mean: f32 = y.data().iter().sum::<f32>() / y.len() as f32;
        assert!((mean - -1.0).abs() < 1e-4, "beta shifts the mean: {mean}");
    }

    #[test]
    fn saved_variance_round_trips() {
        let x = Tensor::from_vec(vec![1.0, 3.0, 1.0, 3.0], &[1, 1, 2, 2]);
        let (_, saved) = batch_norm_forward(
            &x,
            &Tensor::ones(&[1]),
            &Tensor::zeros(&[1]),
            1e-5,
            Par::serial(),
        );
        let var = saved.variance(1e-5);
        assert!((var[0] - 1.0).abs() < 1e-4, "variance {}", var[0]);
    }

    fn close(a: &[f32], b: &[f32], tol: f32, tag: &str) {
        assert_eq!(a.len(), b.len(), "{tag}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + y.abs()),
                "{tag}[{i}]: {x} vs {y}"
            );
        }
    }

    #[test]
    fn batch_norm_matches_reference_at_any_thread_count() {
        let mut rng = Pcg32::seed(31);
        let x = Tensor::randn(&[3, 5, 4, 4], &mut rng).map(|v| 2.0 * v - 0.5);
        let gamma = Tensor::randn(&[5], &mut rng).map(|v| 1.0 + 0.1 * v);
        let beta = Tensor::randn(&[5], &mut rng);
        let grad = Tensor::randn(&[3, 5, 4, 4], &mut rng);
        let (y_ref, s_ref) = reference::batch_norm_forward(&x, &gamma, &beta, 1e-5);
        let (dx_ref, dg_ref, db_ref) = reference::batch_norm_backward(&x, &gamma, &s_ref, &grad);
        let mut first: Option<Vec<Vec<f32>>> = None;
        for threads in [1, 2, 4] {
            let (y, s) = batch_norm_forward(&x, &gamma, &beta, 1e-5, Par::threads(threads));
            // The fused f64 single-pass stats differ from the seed's
            // two-pass f32 stats only at rounding level.
            close(y.data(), y_ref.data(), 1e-4, "bn fwd");
            close(&s.mean, &s_ref.mean, 1e-5, "bn mean");
            close(&s.inv_std, &s_ref.inv_std, 1e-4, "bn inv_std");
            let (dx, dg, db) = batch_norm_backward(&x, &gamma, &s, &grad, Par::threads(threads));
            close(dx.data(), dx_ref.data(), 1e-3, "bn dx");
            close(dg.data(), dg_ref.data(), 1e-3, "bn dgamma");
            close(db.data(), db_ref.data(), 1e-3, "bn dbeta");
            // Thread count must not change a single bit.
            let bits = vec![
                y.data().to_vec(),
                dx.data().to_vec(),
                dg.data().to_vec(),
                db.data().to_vec(),
            ];
            match &first {
                None => first = Some(bits),
                Some(want) => assert!(*want == bits, "bn not deterministic at t{threads}"),
            }
        }
    }

    #[test]
    fn layer_norm_matches_reference_bitwise() {
        let mut rng = Pcg32::seed(32);
        let x = Tensor::randn(&[7, 9], &mut rng);
        let gamma = Tensor::randn(&[9], &mut rng).map(|v| 1.0 + 0.2 * v);
        let beta = Tensor::randn(&[9], &mut rng);
        let grad = Tensor::randn(&[7, 9], &mut rng);
        let (y_ref, s_ref) = reference::layer_norm_forward(&x, &gamma, &beta, 1e-5);
        let (dx_ref, dg_ref, db_ref) = reference::layer_norm_backward(&x, &gamma, &s_ref, &grad);
        for threads in [1, 2, 4] {
            let (y, s) = layer_norm_forward(&x, &gamma, &beta, 1e-5, Par::threads(threads));
            assert_eq!(y.data(), y_ref.data(), "ln fwd t{threads}");
            assert_eq!(s, s_ref, "ln stats t{threads}");
            let (dx, dg, db) = layer_norm_backward(&x, &gamma, &s, &grad, Par::threads(threads));
            assert_eq!(dx.data(), dx_ref.data(), "ln dx t{threads}");
            assert_eq!(dg.data(), dg_ref.data(), "ln dgamma t{threads}");
            assert_eq!(db.data(), db_ref.data(), "ln dbeta t{threads}");
        }
    }

    #[test]
    fn softmax_xent_matches_reference_bitwise() {
        let mut rng = Pcg32::seed(33);
        let logits = Tensor::randn(&[6, 11], &mut rng);
        let targets = vec![0, 10, 3, 7, 7, 1];
        let (loss_ref, probs_ref) = reference::softmax_xent_forward(&logits, &targets);
        let dl_ref = reference::softmax_xent_backward(&probs_ref, &targets, 0.7);
        for threads in [1, 2, 4] {
            let (loss, probs) = softmax_xent_forward(&logits, &targets, Par::threads(threads));
            assert_eq!(loss, loss_ref, "xent loss t{threads}");
            assert_eq!(probs.data(), probs_ref.data(), "xent probs t{threads}");
            let dl = softmax_xent_backward(&probs, &targets, 0.7, Par::threads(threads));
            assert_eq!(dl.data(), dl_ref.data(), "xent grad t{threads}");
        }
    }

    #[test]
    fn pooling_matches_reference_bitwise() {
        let mut rng = Pcg32::seed(34);
        let x = Tensor::randn(&[3, 4, 6, 8], &mut rng);
        let (p_ref, am_ref) = reference::max_pool2x2_forward(&x);
        let gpool = Tensor::randn(p_ref.shape(), &mut rng);
        let dmax_ref = reference::max_pool2x2_backward(x.shape(), &am_ref, &gpool);
        let gap_ref = reference::global_avg_pool_forward(&x);
        let ggap = Tensor::randn(gap_ref.shape(), &mut rng);
        let dgap_ref = reference::global_avg_pool_backward(x.shape(), &ggap);
        for threads in [1, 2, 4] {
            let (p, am) = max_pool2x2_forward(&x, Par::threads(threads));
            assert_eq!(p.data(), p_ref.data(), "maxpool fwd t{threads}");
            assert_eq!(am, am_ref, "maxpool argmax t{threads}");
            let dmax = max_pool2x2_backward(x.shape(), &am, &gpool, Par::threads(threads));
            assert_eq!(dmax.data(), dmax_ref.data(), "maxpool bwd t{threads}");
            let gap = global_avg_pool_forward(&x, Par::threads(threads));
            assert_eq!(gap.data(), gap_ref.data(), "gap fwd t{threads}");
            let dgap = global_avg_pool_backward(x.shape(), &ggap, Par::threads(threads));
            assert_eq!(dgap.data(), dgap_ref.data(), "gap bwd t{threads}");
        }
    }
}
