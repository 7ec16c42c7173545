//! Vector-Jacobian products for every op on the tape.

use crate::conv::{conv2d_backward_input_with_par, conv2d_backward_weight_with_par};
use crate::graph::{Graph, Op};
use crate::norm;
use yf_tensor::Tensor;

impl Graph {
    /// Propagates the gradient sitting on node `i` into its inputs.
    pub(crate) fn backprop_node(&mut self, i: usize) {
        let grad = self.nodes[i]
            .grad
            .clone()
            .expect("backprop_node called without gradient");
        // Clone the op descriptor: it is small (ids + saved small tensors)
        // and lets us mutate the node table freely below.
        let op = self.nodes[i].op.clone();
        match op {
            Op::Leaf => {}
            Op::Add(a, b) => {
                self.accumulate(a, &grad);
                self.accumulate(b, &grad);
            }
            Op::Sub(a, b) => {
                self.accumulate(a, &grad);
                let neg = grad.scale(-1.0);
                self.accumulate(b, &neg);
            }
            Op::Mul(a, b) => {
                if self.rg(a) {
                    let da = grad.mul(self.value(b));
                    self.accumulate(a, &da);
                }
                if self.rg(b) {
                    let db = grad.mul(self.value(a));
                    self.accumulate(b, &db);
                }
            }
            Op::AddBias(x, bias) => {
                self.accumulate(x, &grad);
                if self.rg(bias) {
                    let n = self.value(bias).len();
                    let mut db = vec![0.0f32; n];
                    for (idx, &g) in grad.data().iter().enumerate() {
                        db[idx % n] += g;
                    }
                    self.accumulate(bias, &Tensor::from_vec(db, &[n]));
                }
            }
            Op::AddChanBias(x, bias) => {
                self.accumulate(x, &grad);
                if self.rg(bias) {
                    let c = self.value(bias).len();
                    let shape = self.value(x).shape().to_vec();
                    let hw = shape[2] * shape[3];
                    let mut db = vec![0.0f32; c];
                    for (idx, &g) in grad.data().iter().enumerate() {
                        db[(idx / hw) % c] += g;
                    }
                    self.accumulate(bias, &Tensor::from_vec(db, &[c]));
                }
            }
            Op::MatMul(a, b) => {
                // Both products read the transposed operand through the
                // GEMM packing layer — nothing is materialized.
                if self.rg(a) {
                    let da = grad.matmul_nt(self.value(b));
                    self.accumulate(a, &da);
                }
                if self.rg(b) {
                    let db = self.value(a).matmul_tn(&grad);
                    self.accumulate(b, &db);
                }
            }
            Op::MatMulNT(a, b) => {
                // y = a bᵀ with a: [m, k], b: [n, k], grad: [m, n].
                if self.rg(a) {
                    let da = grad.matmul(self.value(b));
                    self.accumulate(a, &da);
                }
                if self.rg(b) {
                    let db = grad.matmul_tn(self.value(a));
                    self.accumulate(b, &db);
                }
            }
            Op::Relu(x) => {
                let mask = self.value(x).map(|v| if v > 0.0 { 1.0 } else { 0.0 });
                let dx = grad.mul(&mask);
                self.accumulate(x, &dx);
            }
            Op::Tanh(x) => {
                // d tanh = 1 - tanh^2; the node's own value is tanh(x).
                let y = &self.nodes[i].value;
                let dx = grad.mul(&y.map(|t| 1.0 - t * t));
                self.accumulate(x, &dx);
            }
            Op::Sigmoid(x) => {
                let y = &self.nodes[i].value;
                let dx = grad.mul(&y.map(|s| s * (1.0 - s)));
                self.accumulate(x, &dx);
            }
            Op::Scale(x, alpha) => {
                let dx = grad.scale(alpha);
                self.accumulate(x, &dx);
            }
            Op::Reshape(x) => {
                let dx = grad.reshape(self.value(x).shape());
                self.accumulate(x, &dx);
            }
            Op::SumAll(x) => {
                let g = grad.data()[0];
                let dx = Tensor::full(self.value(x).shape(), g);
                self.accumulate(x, &dx);
            }
            Op::MeanAll(x) => {
                let n = self.value(x).len() as f32;
                let g = grad.data()[0] / n;
                let dx = Tensor::full(self.value(x).shape(), g);
                self.accumulate(x, &dx);
            }
            Op::SliceCols { input, start, len } => {
                let shape = self.value(input).shape().to_vec();
                let (b, n) = (shape[0], shape[1]);
                let mut dx = vec![0.0f32; b * n];
                for r in 0..b {
                    let src = &grad.data()[r * len..(r + 1) * len];
                    dx[r * n + start..r * n + start + len].copy_from_slice(src);
                }
                self.accumulate(input, &Tensor::from_vec(dx, &[b, n]));
            }
            Op::ConcatCols(parts) => {
                let b = grad.shape()[0];
                let total = grad.shape()[1];
                let mut col = 0;
                for &p in &parts {
                    let n = self.value(p).shape()[1];
                    if self.rg(p) {
                        let mut dp = Vec::with_capacity(b * n);
                        for r in 0..b {
                            dp.extend_from_slice(
                                &grad.data()[r * total + col..r * total + col + n],
                            );
                        }
                        self.accumulate(p, &Tensor::from_vec(dp, &[b, n]));
                    }
                    col += n;
                }
            }
            Op::SoftmaxCrossEntropy {
                logits,
                targets,
                probs,
            } => {
                // d loss / d logit = (softmax - onehot) / B, scaled by the
                // upstream scalar gradient.
                let dl = norm::softmax_xent_backward(&probs, &targets, grad.data()[0], self.par);
                self.accumulate(logits, &dl);
            }
            Op::Embedding { weight, ids } => {
                if self.rg(weight) {
                    let (v, d) = {
                        let w = self.value(weight);
                        (w.shape()[0], w.shape()[1])
                    };
                    let mut dw = vec![0.0f32; v * d];
                    for (row, &id) in ids.iter().enumerate() {
                        let src = &grad.data()[row * d..(row + 1) * d];
                        for (slot, &g) in dw[id * d..(id + 1) * d].iter_mut().zip(src) {
                            *slot += g;
                        }
                    }
                    self.accumulate(weight, &Tensor::from_vec(dw, &[v, d]));
                }
            }
            Op::Conv2d {
                input,
                weight,
                spec,
                cols,
            } => {
                // Reuse the tape's scratch pool across both backward
                // kernels (and across steps when the graph is reused).
                let mut scratch = std::mem::take(&mut self.scratch);
                if self.rg(input) {
                    let di = conv2d_backward_input_with_par(
                        self.value(input).shape(),
                        self.value(weight),
                        &grad,
                        spec,
                        &mut scratch,
                        self.par,
                    );
                    self.accumulate(input, &di);
                }
                if self.rg(weight) {
                    // Reuse the forward's cached columns when present;
                    // otherwise the GEMM re-unrolls from the image.
                    let dw = conv2d_backward_weight_with_par(
                        self.value(input),
                        self.value(weight).shape(),
                        &grad,
                        spec,
                        &mut scratch,
                        cols.as_ref(),
                        self.par,
                    );
                    self.accumulate(weight, &dw);
                }
                self.scratch = scratch;
            }
            Op::BatchNorm {
                input,
                gamma,
                beta,
                saved,
            } => {
                let (dx, dgamma, dbeta) = norm::batch_norm_backward(
                    self.value(input),
                    self.value(gamma),
                    &saved,
                    &grad,
                    self.par,
                );
                self.accumulate(input, &dx);
                self.accumulate(gamma, &dgamma);
                self.accumulate(beta, &dbeta);
            }
            Op::MaxPool2x2 { input, argmax } => {
                let shape = self.value(input).shape().to_vec();
                let dx = norm::max_pool2x2_backward(&shape, &argmax, &grad, self.par);
                self.accumulate(input, &dx);
            }
            Op::LayerNorm {
                input,
                gamma,
                beta,
                stats,
            } => {
                let (dx, dgamma, dbeta) = norm::layer_norm_backward(
                    self.value(input),
                    self.value(gamma),
                    &stats,
                    &grad,
                    self.par,
                );
                self.accumulate(input, &dx);
                self.accumulate(gamma, &dgamma);
                self.accumulate(beta, &dbeta);
            }
            Op::GlobalAvgPool(x) => {
                let shape = self.value(x).shape().to_vec();
                let dx = norm::global_avg_pool_backward(&shape, &grad, self.par);
                self.accumulate(x, &dx);
            }
        }
    }
}
