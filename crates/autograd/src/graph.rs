//! The tape: nodes, eager forward evaluation, and the public op surface.

use crate::conv::{ColumnCache, ConvSpec};
use crate::norm::{self, BnSaved};
use yf_tensor::parallel::Par;
use yf_tensor::Tensor;

/// Identifier of a node on a [`Graph`] tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) usize);

/// How a node was produced; carries whatever the backward pass needs.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    Leaf,
    Add(NodeId, NodeId),
    Sub(NodeId, NodeId),
    Mul(NodeId, NodeId),
    /// `[B, N] + [N]` broadcast along rows.
    AddBias(NodeId, NodeId),
    /// `[B, C, H, W] + [C]` broadcast per channel.
    AddChanBias(NodeId, NodeId),
    MatMul(NodeId, NodeId),
    /// `a · bᵀ` with `b` stored `[n, k]` — the fused-transpose product
    /// used by tied output projections.
    MatMulNT(NodeId, NodeId),
    Relu(NodeId),
    Tanh(NodeId),
    Sigmoid(NodeId),
    Scale(NodeId, f32),
    Reshape(NodeId),
    SumAll(NodeId),
    MeanAll(NodeId),
    /// Column slice of a rank-2 tensor: keeps `[.., start..start+len]`.
    SliceCols {
        input: NodeId,
        start: usize,
        len: usize,
    },
    /// Concatenation of rank-2 tensors along axis 1.
    ConcatCols(Vec<NodeId>),
    /// Mean cross-entropy of `[B, K]` logits against integer targets.
    /// `probs` are the softmax values saved at forward time.
    SoftmaxCrossEntropy {
        logits: NodeId,
        targets: Vec<usize>,
        probs: Tensor,
    },
    /// Row gather: `out[i] = weight[ids[i]]`.
    Embedding {
        weight: NodeId,
        ids: Vec<usize>,
    },
    Conv2d {
        input: NodeId,
        weight: NodeId,
        spec: ConvSpec,
        /// Batched column matrix captured at forward time (when the
        /// weight needs a gradient and the matrix fits the cache budget)
        /// so the weight-gradient pass skips the re-unroll. Shared, so
        /// cloning the op descriptor stays cheap.
        cols: Option<ColumnCache>,
    },
    /// Training-mode batch normalization over `[B, C, H, W]` per channel.
    BatchNorm {
        input: NodeId,
        gamma: NodeId,
        beta: NodeId,
        saved: BnSaved,
    },
    /// `[B, C, H, W] -> [B, C]` spatial mean.
    GlobalAvgPool(NodeId),
    /// 2x2 stride-2 max pooling over `[B, C, H, W]`; `argmax` stores the
    /// flat input offset that won each output cell.
    MaxPool2x2 {
        input: NodeId,
        argmax: Vec<usize>,
    },
    /// Row-wise layer normalization of `[B, N]` with saved statistics.
    LayerNorm {
        input: NodeId,
        gamma: NodeId,
        beta: NodeId,
        /// Per-row `(mean, inv_std)` saved at forward time.
        stats: Vec<(f32, f32)>,
    },
}

#[derive(Debug)]
pub(crate) struct Node {
    pub(crate) op: Op,
    pub(crate) value: Tensor,
    pub(crate) grad: Option<Tensor>,
    pub(crate) requires_grad: bool,
}

/// A define-by-run autodiff tape.
///
/// Values are computed eagerly as ops are recorded; [`Graph::backward`]
/// replays the tape in reverse. A graph is built fresh for every training
/// step (the usual define-by-run pattern), so node storage is reclaimed by
/// dropping the graph.
#[derive(Debug)]
pub struct Graph {
    pub(crate) nodes: Vec<Node>,
    /// Reusable column/packing buffers threaded through the conv kernels,
    /// so repeated forward/backward passes stop allocating per op.
    pub(crate) scratch: yf_tensor::Scratch,
    /// Chunk budget handed to the parallel kernels (norms, softmax,
    /// pooling, unrolls). Defaults to the pool width; tests pin it.
    pub(crate) par: Par,
}

impl Default for Graph {
    fn default() -> Self {
        Graph {
            nodes: Vec::new(),
            scratch: yf_tensor::Scratch::default(),
            par: Par::pool(),
        }
    }
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Overrides the thread budget for this tape's parallel kernels
    /// (norms, softmax, pooling, conv unrolls). The gradient-check tests
    /// use this to validate the kernels at 1 and N threads; kernels still
    /// gate small tensors down to one thread themselves.
    pub fn set_threads(&mut self, threads: usize) {
        self.par = Par::threads(threads);
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, op: Op, value: Tensor, requires_grad: bool) -> NodeId {
        self.nodes.push(Node {
            op,
            value,
            grad: None,
            requires_grad,
        });
        NodeId(self.nodes.len() - 1)
    }

    pub(crate) fn rg(&self, id: NodeId) -> bool {
        self.nodes[id.0].requires_grad
    }

    /// The forward value of a node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.nodes[id.0].value
    }

    /// The gradient of a node after [`Graph::backward`], if any was
    /// propagated to it.
    pub fn grad(&self, id: NodeId) -> Option<&Tensor> {
        self.nodes[id.0].grad.as_ref()
    }

    /// Records an input tensor. `trainable` leaves receive gradients.
    pub fn leaf(&mut self, value: Tensor, trainable: bool) -> NodeId {
        self.push(Op::Leaf, value, trainable)
    }

    /// Records a constant (no gradient ever flows into it).
    pub fn constant(&mut self, value: Tensor) -> NodeId {
        self.leaf(value, false)
    }

    fn unary(&mut self, op: Op, input: NodeId, value: Tensor) -> NodeId {
        let rg = self.rg(input);
        self.push(op, value, rg)
    }

    fn binary(&mut self, op: Op, a: NodeId, b: NodeId, value: Tensor) -> NodeId {
        let rg = self.rg(a) || self.rg(b);
        self.push(op, value, rg)
    }

    /// Elementwise sum of two same-shaped nodes.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).add(self.value(b));
        self.binary(Op::Add(a, b), a, b, v)
    }

    /// Elementwise difference `a - b`.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).sub(self.value(b));
        self.binary(Op::Sub(a, b), a, b, v)
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).mul(self.value(b));
        self.binary(Op::Mul(a, b), a, b, v)
    }

    /// Adds a rank-1 bias `[N]` to every row of a rank-2 `[B, N]` node.
    ///
    /// # Panics
    ///
    /// Panics if shapes are incompatible.
    pub fn add_bias(&mut self, x: NodeId, bias: NodeId) -> NodeId {
        let xv = self.value(x);
        let bv = self.value(bias);
        assert_eq!(xv.shape().len(), 2, "add_bias: x must be rank 2");
        assert_eq!(
            bv.shape(),
            &[xv.shape()[1]],
            "add_bias: bias must match columns"
        );
        let n = xv.shape()[1];
        let mut out = xv.clone();
        for (i, v) in out.data_mut().iter_mut().enumerate() {
            *v += bv.data()[i % n];
        }
        self.binary(Op::AddBias(x, bias), x, bias, out)
    }

    /// Adds a per-channel bias `[C]` to a `[B, C, H, W]` node.
    pub fn add_chan_bias(&mut self, x: NodeId, bias: NodeId) -> NodeId {
        let xv = self.value(x);
        let bv = self.value(bias);
        assert_eq!(xv.shape().len(), 4, "add_chan_bias: x must be rank 4");
        let (c, hw) = (xv.shape()[1], xv.shape()[2] * xv.shape()[3]);
        assert_eq!(bv.shape(), &[c], "add_chan_bias: bias must match channels");
        let mut out = xv.clone();
        for (i, v) in out.data_mut().iter_mut().enumerate() {
            *v += bv.data()[(i / hw) % c];
        }
        self.binary(Op::AddChanBias(x, bias), x, bias, out)
    }

    /// Matrix product of rank-2 nodes.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).matmul(self.value(b));
        self.binary(Op::MatMul(a, b), a, b, v)
    }

    /// Fused `a · bᵀ` of rank-2 nodes (`a: [m, k]`, `b: [n, k]`), without
    /// materializing the transpose in either pass — the backward products
    /// are fused-transpose GEMMs too. This is how tied output projections
    /// (`logits = h Eᵀ`) reuse an embedding table.
    pub fn matmul_nt(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).matmul_nt(self.value(b));
        self.binary(Op::MatMulNT(a, b), a, b, v)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, x: NodeId) -> NodeId {
        let v = self.value(x).map(|v| v.max(0.0));
        self.unary(Op::Relu(x), x, v)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, x: NodeId) -> NodeId {
        let v = self.value(x).map(f32::tanh);
        self.unary(Op::Tanh(x), x, v)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: NodeId) -> NodeId {
        let v = self.value(x).map(|v| 1.0 / (1.0 + (-v).exp()));
        self.unary(Op::Sigmoid(x), x, v)
    }

    /// Multiplication by a compile-time constant.
    pub fn scale(&mut self, x: NodeId, alpha: f32) -> NodeId {
        let v = self.value(x).scale(alpha);
        self.unary(Op::Scale(x, alpha), x, v)
    }

    /// Shape change preserving element order.
    pub fn reshape(&mut self, x: NodeId, dims: &[usize]) -> NodeId {
        let v = self.value(x).reshape(dims);
        self.unary(Op::Reshape(x), x, v)
    }

    /// Sum of all elements, as a scalar node.
    pub fn sum_all(&mut self, x: NodeId) -> NodeId {
        let v = Tensor::scalar(self.value(x).sum());
        self.unary(Op::SumAll(x), x, v)
    }

    /// Mean of all elements, as a scalar node.
    pub fn mean_all(&mut self, x: NodeId) -> NodeId {
        let v = Tensor::scalar(self.value(x).mean());
        self.unary(Op::MeanAll(x), x, v)
    }

    /// Keeps columns `start..start+len` of a rank-2 node.
    pub fn slice_cols(&mut self, input: NodeId, start: usize, len: usize) -> NodeId {
        let xv = self.value(input);
        assert_eq!(xv.shape().len(), 2, "slice_cols: must be rank 2");
        let (b, n) = (xv.shape()[0], xv.shape()[1]);
        assert!(start + len <= n, "slice_cols: {start}+{len} > {n}");
        let mut out = Vec::with_capacity(b * len);
        for r in 0..b {
            out.extend_from_slice(&xv.data()[r * n + start..r * n + start + len]);
        }
        let v = Tensor::from_vec(out, &[b, len]);
        self.unary(Op::SliceCols { input, start, len }, input, v)
    }

    /// Concatenates rank-2 nodes along columns.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or row counts differ.
    pub fn concat_cols(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "concat_cols: empty input");
        let b = self.value(parts[0]).shape()[0];
        let total: usize = parts.iter().map(|&p| self.value(p).shape()[1]).sum();
        let mut out = Vec::with_capacity(b * total);
        for r in 0..b {
            for &p in parts {
                let pv = self.value(p);
                assert_eq!(pv.shape()[0], b, "concat_cols: ragged rows");
                let n = pv.shape()[1];
                out.extend_from_slice(&pv.data()[r * n..(r + 1) * n]);
            }
        }
        let v = Tensor::from_vec(out, &[b, total]);
        let rg = parts.iter().any(|&p| self.rg(p));
        self.push(Op::ConcatCols(parts.to_vec()), v, rg)
    }

    /// Mean softmax cross-entropy of `[B, K]` logits against integer class
    /// targets. Numerically stabilized by max subtraction; the softmax
    /// probabilities are cached for the backward pass.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` differs from the batch size or a target is
    /// out of range.
    pub fn softmax_cross_entropy(&mut self, logits: NodeId, targets: &[usize]) -> NodeId {
        let (loss, probs) = norm::softmax_xent_forward(self.value(logits), targets, self.par);
        let value = Tensor::scalar(loss);
        let op = Op::SoftmaxCrossEntropy {
            logits,
            targets: targets.to_vec(),
            probs,
        };
        self.unary(op, logits, value)
    }

    /// Row gather from an embedding table `[V, D]`: the output row `i` is
    /// `weight[ids[i]]`, shaped `[ids.len(), D]`.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range.
    pub fn embedding(&mut self, weight: NodeId, ids: &[usize]) -> NodeId {
        let wv = self.value(weight);
        assert_eq!(wv.shape().len(), 2, "embedding: weight must be rank 2");
        let (v, d) = (wv.shape()[0], wv.shape()[1]);
        let mut out = Vec::with_capacity(ids.len() * d);
        for &id in ids {
            assert!(id < v, "embedding: id {id} out of range {v}");
            out.extend_from_slice(&wv.data()[id * d..(id + 1) * d]);
        }
        let value = Tensor::from_vec(out, &[ids.len(), d]);
        let op = Op::Embedding {
            weight,
            ids: ids.to_vec(),
        };
        self.unary(op, weight, value)
    }

    /// 2-D convolution of `[B, Cin, H, W]` with `[Cout, Cin/groups, KH, KW]`.
    pub fn conv2d(&mut self, input: NodeId, weight: NodeId, spec: ConvSpec) -> NodeId {
        // Detach the scratch pool so the kernel can borrow it mutably
        // while reading node values out of `self`.
        let mut scratch = std::mem::take(&mut self.scratch);
        // Capture the batched column matrix only when a weight gradient
        // will want it back.
        let (v, cols) = if self.rg(weight) {
            crate::conv::conv2d_forward_caching_with_par(
                self.value(input),
                self.value(weight),
                spec,
                &mut scratch,
                self.par,
            )
        } else {
            let v = crate::conv::conv2d_forward_with_par(
                self.value(input),
                self.value(weight),
                spec,
                &mut scratch,
                self.par,
            );
            (v, None)
        };
        self.scratch = scratch;
        self.binary(
            Op::Conv2d {
                input,
                weight,
                spec,
                cols,
            },
            input,
            weight,
            v,
        )
    }

    /// Training-mode batch normalization of `[B, C, H, W]` with per-channel
    /// scale `gamma` and shift `beta` (both `[C]`).
    pub fn batch_norm(&mut self, input: NodeId, gamma: NodeId, beta: NodeId, eps: f32) -> NodeId {
        let (v, saved) = norm::batch_norm_forward(
            self.value(input),
            self.value(gamma),
            self.value(beta),
            eps,
            self.par,
        );
        let rg = self.rg(input) || self.rg(gamma) || self.rg(beta);
        self.push(
            Op::BatchNorm {
                input,
                gamma,
                beta,
                saved,
            },
            v,
            rg,
        )
    }

    /// Spatial mean pooling `[B, C, H, W] -> [B, C]`.
    pub fn global_avg_pool(&mut self, x: NodeId) -> NodeId {
        let v = norm::global_avg_pool_forward(self.value(x), self.par);
        self.unary(Op::GlobalAvgPool(x), x, v)
    }

    /// 2x2, stride-2 max pooling of `[B, C, H, W]` (even extents).
    ///
    /// # Panics
    ///
    /// Panics unless the input is rank 4 with even spatial extents.
    pub fn max_pool_2x2(&mut self, input: NodeId) -> NodeId {
        let (v, argmax) = norm::max_pool2x2_forward(self.value(input), self.par);
        self.unary(Op::MaxPool2x2 { input, argmax }, input, v)
    }

    /// Row-wise layer normalization of a `[B, N]` node with learnable
    /// per-column scale `gamma` and shift `beta` (both `[N]`).
    pub fn layer_norm(&mut self, input: NodeId, gamma: NodeId, beta: NodeId, eps: f32) -> NodeId {
        let (v, stats) = norm::layer_norm_forward(
            self.value(input),
            self.value(gamma),
            self.value(beta),
            eps,
            self.par,
        );
        let rg = self.rg(input) || self.rg(gamma) || self.rg(beta);
        self.push(
            Op::LayerNorm {
                input,
                gamma,
                beta,
                stats,
            },
            v,
            rg,
        )
    }

    /// Inverted dropout: multiplies by a fixed 0/`1/keep` mask generated
    /// from `seed` (deterministic, so a training step can be replayed).
    /// `keep` is the keep-probability; `keep >= 1` is the identity.
    pub fn dropout(&mut self, x: NodeId, keep: f32, seed: u64) -> NodeId {
        assert!(keep > 0.0, "dropout: keep probability must be positive");
        if keep >= 1.0 {
            return x;
        }
        let shape = self.value(x).shape().to_vec();
        let mut rng = yf_tensor::rng::Pcg32::seed_stream(seed, 0xd120);
        let len = self.value(x).len();
        let scale = 1.0 / keep;
        let mask_data: Vec<f32> = (0..len)
            .map(|_| if rng.uniform() < keep { scale } else { 0.0 })
            .collect();
        let mask = self.constant(Tensor::from_vec(mask_data, &shape));
        self.mul(x, mask)
    }

    /// Back-propagates from a scalar `loss` node, filling gradients of all
    /// nodes that require them.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a scalar (single-element) node.
    pub fn backward(&mut self, loss: NodeId) {
        assert_eq!(
            self.nodes[loss.0].value.len(),
            1,
            "backward: loss must be a single-element node"
        );
        self.nodes[loss.0].grad = Some(Tensor::ones(self.nodes[loss.0].value.shape()));
        for i in (0..=loss.0).rev() {
            if self.nodes[i].grad.is_none() || !self.nodes[i].requires_grad {
                continue;
            }
            self.backprop_node(i);
        }
    }

    pub(crate) fn accumulate(&mut self, id: NodeId, delta: &Tensor) {
        if !self.rg(id) {
            return;
        }
        match &mut self.nodes[id.0].grad {
            Some(g) => g.axpy_in_place(1.0, delta),
            slot @ None => *slot = Some(delta.clone()),
        }
    }
}
