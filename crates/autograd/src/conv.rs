//! 2-D convolution kernels (forward and both backward passes).
//!
//! Shapes follow the PyTorch convention: input `[B, Cin, H, W]`, weight
//! `[Cout, Cin/groups, KH, KW]`, output `[B, Cout, Ho, Wo]`. Grouped
//! convolution (`groups > 1`) supports the ResNeXt ablation of the paper's
//! Appendix J.4.
//!
//! The production kernels are **batch-fused**: every pass lowers onto one
//! GEMM per *group* over the whole batch — the virtual column matrix
//! `[Cin*KH*KW, B*Ho*Wo]` of the `im2col` module — instead of one
//! GEMM per `(batch, group)`. The column matrix is normally never
//! materialized: the im2col unroll implements
//! [`yf_tensor::gemm::PackBPanel`], packing column panels straight from
//! the input image inside the GEMM ([`yf_tensor::gemm::gemm_custom_b`]),
//! so the unroll *is* the packing pass the GEMM needed anyway.
//!
//! The exception is [`conv2d_forward_caching`], which the autograd tape
//! uses: it materializes the batched column matrix once at forward time
//! and returns it as a [`ColumnCache`] (memory-capped via
//! `YF_CONV_CACHE_MB`, default 256 MiB per convolution), so
//! [`conv2d_backward_weight_cached`] can run its `dY · colsᵀ` GEMM over
//! the cached columns instead of re-running the unroll. Both
//! backward-weight paths produce bitwise-identical gradients (the packed
//! panels are equal element for element).
//!
//! Batched operands use the layout `[C, B*Ho*Wo]` (channel rows, batch
//!-major pixel columns); `gather_batched`/`scatter_batched` convert
//! gradients/outputs to and from the tensor layout `[B, C, Ho, Wo]` with
//! plane-sized `memcpy`s, parallel across planes. When `B == 1` the two
//! layouts coincide and both copies are skipped, and a 1x1 stride-1
//! unpadded convolution with `B == 1` degenerates to plain GEMMs on the
//! input itself (no unroll, no copies).
//!
//! Thread fan-out for the unroll/scatter passes is sized by
//! [`yf_tensor::parallel::threads_for`] on the *batched* matrix (the old
//! per-`(batch, group)` threshold starved the partitioner once columns
//! became `B*Ho*Wo` wide); the GEMMs partition internally.
//!
//! Each kernel has a `*_with_scratch` variant taking an explicit
//! [`Scratch`] pool (the autograd tape threads its own through) and a
//! plain variant using the thread-local pool, so the fused paths
//! allocate no column buffers in steady state. The one exception is the
//! column cache: its buffer is owned by the returned [`ColumnCache`]
//! (dropped with the tape, not returned to the pool), so each caching
//! forward allocates it afresh — see ROADMAP's column-cache accounting
//! follow-on for the per-tape budget that would let deep models bound
//! and recycle this. The original direct loops are
//! retained verbatim in [`mod@reference`]; the property tests cross-check the
//! lowered kernels against them across random shapes, strides, paddings,
//! groups, and batch sizes.

use crate::im2col::{col2im_batched, im2col_batched, BatchGeom, ColShape, ColsPackNN, ColsPackNT};
use std::sync::Arc;
use yf_tensor::parallel::{self, Par};
use yf_tensor::{gemm, Scratch, Tensor};

/// Static parameters of a convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvSpec {
    /// Spatial stride (same for both axes).
    pub stride: usize,
    /// Zero padding (same for both axes).
    pub padding: usize,
    /// Channel groups; `1` is an ordinary convolution.
    pub groups: usize,
}

impl ConvSpec {
    /// A stride-1, unpadded, ungrouped convolution.
    pub fn unit() -> Self {
        ConvSpec {
            stride: 1,
            padding: 0,
            groups: 1,
        }
    }

    /// "Same"-style spec used by 3x3 ResNet convolutions.
    pub fn same3x3(stride: usize) -> Self {
        ConvSpec {
            stride,
            padding: 1,
            groups: 1,
        }
    }

    /// Output spatial extent for an input extent `n` and kernel extent `k`.
    pub fn out_extent(&self, n: usize, k: usize) -> usize {
        (n + 2 * self.padding - k) / self.stride + 1
    }
}

fn dims4(t: &[usize]) -> (usize, usize, usize, usize) {
    (t[0], t[1], t[2], t[3])
}

/// All derived dimensions of one convolution, shape-checked once.
#[derive(Debug, Clone, Copy)]
struct ConvDims {
    b: usize,
    cin: usize,
    cout: usize,
    cout_g: usize,
    /// Weight rows per group flattened: `cin_g * kh * kw`.
    ckk: usize,
    /// Output pixels per batch element: `ho * wo`.
    owo: usize,
    ho: usize,
    wo: usize,
    cs: ColShape,
}

impl ConvDims {
    fn new(input_shape: &[usize], weight_shape: &[usize], spec: ConvSpec) -> Self {
        let (b, cin, h, w) = dims4(input_shape);
        let (cout, cin_g, kh, kw) = dims4(weight_shape);
        assert!(
            spec.groups > 0 && spec.stride > 0,
            "conv2d: bad spec {spec:?}"
        );
        assert_eq!(cin % spec.groups, 0, "conv2d: cin {cin} % groups");
        assert_eq!(cout % spec.groups, 0, "conv2d: cout {cout} % groups");
        assert_eq!(cin / spec.groups, cin_g, "conv2d: weight channel mismatch");
        let (ho, wo) = (spec.out_extent(h, kh), spec.out_extent(w, kw));
        ConvDims {
            b,
            cin,
            cout,
            cout_g: cout / spec.groups,
            ckk: cin_g * kh * kw,
            owo: ho * wo,
            ho,
            wo,
            cs: ColShape {
                cin_g,
                h,
                w,
                kh,
                kw,
                ho,
                wo,
            },
        }
    }

    /// Whether the convolution is a pure channel mix (1x1, stride 1, no
    /// padding): the column matrix would equal the input slice, so the
    /// unroll is skipped entirely.
    fn is_pointwise(&self, spec: ConvSpec) -> bool {
        self.cs.kh == 1 && self.cs.kw == 1 && spec.stride == 1 && spec.padding == 0
    }

    /// Columns of the batched matrices: `b * ho * wo`.
    fn bcols(&self) -> usize {
        self.b * self.owo
    }

    /// The batched-unroll geometry.
    fn geom(&self, spec: ConvSpec) -> BatchGeom {
        BatchGeom {
            b: self.b,
            cin: self.cin,
            cs: self.cs,
            spec,
        }
    }

    /// Flat range of the (batch `bi`, group `g`) input slice.
    fn x_slice(&self, bi: usize, g: usize) -> std::ops::Range<usize> {
        let start = (bi * self.cin + g * self.cs.cin_g) * self.cs.h * self.cs.w;
        start..start + self.cs.cin_g * self.cs.h * self.cs.w
    }

    /// Flat range of the (batch `bi`, group `g`) output slice.
    fn o_slice(&self, bi: usize, g: usize) -> std::ops::Range<usize> {
        let start = (bi * self.cout + g * self.cout_g) * self.owo;
        start..start + self.cout_g * self.owo
    }

    /// Flat range of group `g`'s weight block `[cout_g, ckk]`.
    fn w_slice(&self, g: usize) -> std::ops::Range<usize> {
        let start = g * self.cout_g * self.ckk;
        start..start + self.cout_g * self.ckk
    }

    /// Flat range of group `g`'s row block in a batched `[C, bcols]`
    /// matrix with `per_g` rows per group.
    fn g_rows(&self, g: usize, per_g: usize) -> std::ops::Range<usize> {
        let start = g * per_g * self.bcols();
        start..start + per_g * self.bcols()
    }
}

/// The batched column matrix a [`conv2d_forward_caching`] call captured,
/// for reuse by [`conv2d_backward_weight_cached`]. Cheap to clone (the
/// buffer is shared), so the autograd tape stores it inside the op.
#[derive(Debug, Clone)]
pub struct ColumnCache {
    cols: Arc<Vec<f32>>,
}

impl ColumnCache {
    /// Bytes held by the cached column matrix.
    pub fn bytes(&self) -> usize {
        self.cols.len() * std::mem::size_of::<f32>()
    }
}

/// Per-convolution column-cache budget in elements: `YF_CONV_CACHE_MB`
/// MiB (default 256). Column matrices larger than this are not cached;
/// the backward-weight pass transparently re-unrolls instead.
fn cache_budget_elems() -> usize {
    use std::sync::OnceLock;
    static BUDGET: OnceLock<usize> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        // 0 is a valid override (disables column caching entirely);
        // malformed values warn and fall back to the 256 MiB default.
        let mb = yf_tensor::env::usize_knob("YF_CONV_CACHE_MB").unwrap_or(256);
        mb * (1024 * 1024) / std::mem::size_of::<f32>()
    })
}

/// Gathers a `[B, C, Ho, Wo]` tensor into batched layout `[C, B*Ho*Wo]`
/// (parallel across channel rows).
fn gather_batched(src: &[f32], b: usize, c: usize, owo: usize, dst: &mut [f32], threads: usize) {
    let bcols = b * owo;
    parallel::chunks_mut(dst, bcols, Par::threads(threads), |first, chunk| {
        for (o, row) in chunk.chunks_exact_mut(bcols).enumerate() {
            let ch = first + o;
            for bi in 0..b {
                row[bi * owo..(bi + 1) * owo].copy_from_slice(&src[(bi * c + ch) * owo..][..owo]);
            }
        }
    });
}

/// Scatters a batched `[C, B*Ho*Wo]` matrix into `[B, C, Ho, Wo]` layout
/// (parallel across output planes).
fn scatter_batched(src: &[f32], b: usize, c: usize, owo: usize, dst: &mut [f32], threads: usize) {
    let bcols = b * owo;
    parallel::chunks_mut(dst, owo, Par::threads(threads), |first, chunk| {
        for (p, plane) in chunk.chunks_exact_mut(owo).enumerate() {
            let idx = first + p;
            let (bi, ch) = (idx / c, idx % c);
            plane.copy_from_slice(&src[ch * bcols + bi * owo..][..owo]);
        }
    });
}

/// Forward convolution via the batch-fused im2col GEMM.
///
/// # Panics
///
/// Panics on rank/shape mismatches or if channel counts are not divisible
/// by `groups`.
pub fn conv2d_forward(input: &Tensor, weight: &Tensor, spec: ConvSpec) -> Tensor {
    Scratch::with_thread_local(|s| conv2d_forward_with_scratch(input, weight, spec, s))
}

/// [`conv2d_forward`] with an explicit scratch pool for the batched GEMM
/// output buffer.
pub fn conv2d_forward_with_scratch(
    input: &Tensor,
    weight: &Tensor,
    spec: ConvSpec,
    scratch: &mut Scratch,
) -> Tensor {
    forward_impl(input, weight, spec, scratch, false, Par::pool().budget()).0
}

/// [`conv2d_forward`] that additionally materializes and returns the
/// batched column matrix (when it fits the `YF_CONV_CACHE_MB` budget and
/// the convolution actually unrolls), so the caller can hand it to
/// [`conv2d_backward_weight_cached`] and skip the re-unroll there. This
/// is what the autograd tape uses.
pub fn conv2d_forward_caching(
    input: &Tensor,
    weight: &Tensor,
    spec: ConvSpec,
    scratch: &mut Scratch,
) -> (Tensor, Option<ColumnCache>) {
    forward_impl(input, weight, spec, scratch, true, Par::pool().budget())
}

/// [`conv2d_forward_caching`] with an explicit [`Par`] budget (what the
/// tape calls; [`crate::Graph::set_threads`] caps it).
pub fn conv2d_forward_caching_with_par(
    input: &Tensor,
    weight: &Tensor,
    spec: ConvSpec,
    scratch: &mut Scratch,
    par: Par,
) -> (Tensor, Option<ColumnCache>) {
    forward_impl(input, weight, spec, scratch, true, par.budget())
}

/// [`conv2d_forward_with_scratch`] with an explicit [`Par`] budget.
pub fn conv2d_forward_with_par(
    input: &Tensor,
    weight: &Tensor,
    spec: ConvSpec,
    scratch: &mut Scratch,
    par: Par,
) -> Tensor {
    forward_impl(input, weight, spec, scratch, false, par.budget()).0
}

fn forward_impl(
    input: &Tensor,
    weight: &Tensor,
    spec: ConvSpec,
    scratch: &mut Scratch,
    want_cache: bool,
    threads: usize,
) -> (Tensor, Option<ColumnCache>) {
    let d = ConvDims::new(input.shape(), weight.shape(), spec);
    let mut out = vec![0.0f32; d.b * d.cout * d.owo];
    let x = input.data();
    let wt = weight.data();
    let out_shape = [d.b, d.cout, d.ho, d.wo];
    if d.is_pointwise(spec) && d.b == 1 {
        // The column matrix equals the input slice per group: plain GEMMs,
        // zero copies, nothing worth caching.
        for g in 0..spec.groups {
            gemm::gemm_nn(
                d.cout_g,
                d.owo,
                d.ckk,
                &wt[d.w_slice(g)],
                &x[d.x_slice(0, g)],
                0.0,
                &mut out[d.o_slice(0, g)],
            );
        }
        return (Tensor::from_vec(out, &out_shape), None);
    }
    let geom = d.geom(spec);
    let bcols = d.bcols();
    // Materialize the batched column matrix only when asked to cache it
    // (and it fits the budget and is a real unroll); otherwise the GEMM
    // packs columns straight from the image.
    let cols_len = geom.rows() * bcols;
    let cache = if want_cache && !d.is_pointwise(spec) && cols_len <= cache_budget_elems() {
        let mut cols = scratch.take(cols_len);
        im2col_batched(
            x,
            geom,
            &mut cols,
            threads.min(parallel::threads_for(cols_len)),
        );
        Some(ColumnCache {
            cols: Arc::new(cols),
        })
    } else {
        None
    };
    let run_group_gemms = |dst: &mut [f32], threads: usize| {
        for g in 0..spec.groups {
            let crows = &mut dst[d.g_rows(g, d.cout_g)];
            match &cache {
                Some(c) => gemm::gemm_with_threads(
                    false,
                    false,
                    d.cout_g,
                    bcols,
                    d.ckk,
                    &wt[d.w_slice(g)],
                    &c.cols[d.g_rows(g, d.ckk)],
                    0.0,
                    crows,
                    threads,
                ),
                None => gemm::gemm_custom_b(
                    false,
                    d.cout_g,
                    bcols,
                    d.ckk,
                    &wt[d.w_slice(g)],
                    &ColsPackNN {
                        x,
                        g: geom,
                        row0: g * d.ckk,
                    },
                    0.0,
                    crows,
                    threads,
                ),
            }
        }
    };
    if d.b == 1 {
        // Batched layout [Cout, Ho*Wo] is the output layout.
        run_group_gemms(&mut out, threads);
    } else {
        let mut gbuf = scratch.take(d.cout * bcols);
        run_group_gemms(&mut gbuf, threads);
        let t_out = threads.min(parallel::threads_for(out.len()));
        scatter_batched(&gbuf, d.b, d.cout, d.owo, &mut out, t_out);
        scratch.put(gbuf);
    }
    (Tensor::from_vec(out, &out_shape), cache)
}

/// Gradient of the convolution with respect to its input.
pub fn conv2d_backward_input(
    input_shape: &[usize],
    weight: &Tensor,
    grad_out: &Tensor,
    spec: ConvSpec,
) -> Tensor {
    Scratch::with_thread_local(|s| {
        conv2d_backward_input_with_scratch(input_shape, weight, grad_out, spec, s)
    })
}

/// [`conv2d_backward_input`] with an explicit scratch pool.
pub fn conv2d_backward_input_with_scratch(
    input_shape: &[usize],
    weight: &Tensor,
    grad_out: &Tensor,
    spec: ConvSpec,
    scratch: &mut Scratch,
) -> Tensor {
    conv2d_backward_input_with_par(input_shape, weight, grad_out, spec, scratch, Par::pool())
}

/// [`conv2d_backward_input_with_scratch`] with an explicit [`Par`]
/// budget (what the tape calls; [`crate::Graph::set_threads`] caps it).
pub fn conv2d_backward_input_with_par(
    input_shape: &[usize],
    weight: &Tensor,
    grad_out: &Tensor,
    spec: ConvSpec,
    scratch: &mut Scratch,
    par: Par,
) -> Tensor {
    let threads = par.budget();
    let d = ConvDims::new(input_shape, weight.shape(), spec);
    debug_assert_eq!(grad_out.shape(), &[d.b, d.cout, d.ho, d.wo]);
    let mut dx = vec![0.0f32; d.b * d.cin * d.cs.h * d.cs.w];
    let go = grad_out.data();
    let wt = weight.data();
    if d.is_pointwise(spec) && d.b == 1 {
        for g in 0..spec.groups {
            // dx = Wᵀ · dy, written straight into the image slice.
            gemm::gemm_tn(
                d.ckk,
                d.owo,
                d.cout_g,
                &wt[d.w_slice(g)],
                &go[d.o_slice(0, g)],
                0.0,
                &mut dx[d.x_slice(0, g)],
            );
        }
        return Tensor::from_vec(dx, input_shape);
    }
    let geom = d.geom(spec);
    // The GEMM writes the column-gradient matrix and col2im immediately
    // re-reads it, so process the batch in chunks sized to keep that
    // matrix within half of L2 (still one fused GEMM per group per
    // chunk — the GEMM keeps plenty of rows to partition across
    // threads). One chunk covers the whole batch when it fits.
    let rows = geom.rows();
    let chunk_b = {
        let (_, l2, _) = gemm::cache_sizes();
        let target_cols = l2 / (2 * std::mem::size_of::<f32>() * rows.max(1));
        (target_cols / d.owo.max(1)).clamp(1, d.b)
    };
    let plane = d.cs.h * d.cs.w;
    // When B == 1 the batched layout is the gradient's own layout, so no
    // gather buffer is ever needed.
    let mut dy_buf = if d.b > 1 {
        scratch.take(d.cout * chunk_b * d.owo)
    } else {
        Vec::new()
    };
    let mut dcols = scratch.take(rows * chunk_b * d.owo);
    let mut bi = 0;
    while bi < d.b {
        let cb = chunk_b.min(d.b - bi);
        let cg = BatchGeom { b: cb, ..geom };
        let bcols = cb * d.owo;
        let go_chunk = &go[bi * d.cout * d.owo..][..d.cout * bcols];
        let dyb: &[f32] = if d.b == 1 {
            go_chunk
        } else {
            let t_dy = threads.min(parallel::threads_for(d.cout * bcols));
            let dst = &mut dy_buf[..d.cout * bcols];
            gather_batched(go_chunk, cb, d.cout, d.owo, dst, t_dy);
            dst
        };
        // dcols = Wᵀ · dY per group, then one batched scatter back to
        // image layout (parallel across the chunk's planes).
        for g in 0..spec.groups {
            gemm::gemm_with_threads(
                true,
                false,
                d.ckk,
                bcols,
                d.cout_g,
                &wt[d.w_slice(g)],
                &dyb[g * d.cout_g * bcols..][..d.cout_g * bcols],
                0.0,
                &mut dcols[g * d.ckk * bcols..][..d.ckk * bcols],
                threads,
            );
        }
        let dx_chunk = &mut dx[bi * d.cin * plane..][..cb * d.cin * plane];
        let t_dx = threads.min(parallel::threads_for(dx_chunk.len()));
        col2im_batched(&dcols[..rows * bcols], cg, dx_chunk, t_dx);
        bi += cb;
    }
    scratch.put(dcols);
    scratch.put(dy_buf);
    Tensor::from_vec(dx, input_shape)
}

/// Gradient of the convolution with respect to its weight.
pub fn conv2d_backward_weight(
    input: &Tensor,
    weight_shape: &[usize],
    grad_out: &Tensor,
    spec: ConvSpec,
) -> Tensor {
    Scratch::with_thread_local(|s| {
        conv2d_backward_weight_with_scratch(input, weight_shape, grad_out, spec, s)
    })
}

/// [`conv2d_backward_weight`] with an explicit scratch pool.
pub fn conv2d_backward_weight_with_scratch(
    input: &Tensor,
    weight_shape: &[usize],
    grad_out: &Tensor,
    spec: ConvSpec,
    scratch: &mut Scratch,
) -> Tensor {
    conv2d_backward_weight_cached(input, weight_shape, grad_out, spec, scratch, None)
}

/// [`conv2d_backward_weight`] that reuses the forward pass's
/// [`ColumnCache`] when one is supplied (skipping the re-unroll), and
/// transparently falls back to packing columns from the image when the
/// cache is absent. Both paths are bitwise identical.
pub fn conv2d_backward_weight_cached(
    input: &Tensor,
    weight_shape: &[usize],
    grad_out: &Tensor,
    spec: ConvSpec,
    scratch: &mut Scratch,
    cache: Option<&ColumnCache>,
) -> Tensor {
    conv2d_backward_weight_with_par(
        input,
        weight_shape,
        grad_out,
        spec,
        scratch,
        cache,
        Par::pool(),
    )
}

/// [`conv2d_backward_weight_cached`] with an explicit [`Par`] budget
/// (what the tape calls; [`crate::Graph::set_threads`] caps it).
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward_weight_with_par(
    input: &Tensor,
    weight_shape: &[usize],
    grad_out: &Tensor,
    spec: ConvSpec,
    scratch: &mut Scratch,
    cache: Option<&ColumnCache>,
    par: Par,
) -> Tensor {
    let threads = par.budget();
    let d = ConvDims::new(input.shape(), weight_shape, spec);
    debug_assert_eq!(grad_out.shape(), &[d.b, d.cout, d.ho, d.wo]);
    let mut dw = vec![0.0f32; d.cout * d.ckk];
    let x = input.data();
    let go = grad_out.data();
    if d.is_pointwise(spec) && d.b == 1 {
        for g in 0..spec.groups {
            // dW = dy · xᵀ.
            gemm::gemm_nt(
                d.cout_g,
                d.ckk,
                d.owo,
                &go[d.o_slice(0, g)],
                &x[d.x_slice(0, g)],
                0.0,
                &mut dw[d.w_slice(g)],
            );
        }
        return Tensor::from_vec(dw, weight_shape);
    }
    let geom = d.geom(spec);
    let bcols = d.bcols();
    let mut dy_buf = Vec::new();
    let dyb: &[f32] = if d.b == 1 {
        go
    } else {
        dy_buf = scratch.take(d.cout * bcols);
        let t_dy = threads.min(parallel::threads_for(dy_buf.len()));
        gather_batched(go, d.b, d.cout, d.owo, &mut dy_buf, t_dy);
        &dy_buf
    };
    let cached_cols = cache.and_then(|c| {
        // A stale cache (different shape) is ignored, never misused.
        (c.cols.len() == geom.rows() * bcols).then_some(&c.cols)
    });
    for g in 0..spec.groups {
        // dW_g = dY_g · cols_gᵀ over the whole batch.
        match cached_cols {
            Some(cols) => gemm::gemm_with_threads(
                false,
                true,
                d.cout_g,
                d.ckk,
                bcols,
                &dyb[d.g_rows(g, d.cout_g)],
                &cols[d.g_rows(g, d.ckk)],
                0.0,
                &mut dw[d.w_slice(g)],
                threads,
            ),
            None => gemm::gemm_custom_b(
                false,
                d.cout_g,
                d.ckk,
                bcols,
                &dyb[d.g_rows(g, d.cout_g)],
                &ColsPackNT {
                    x,
                    g: geom,
                    row0: g * d.ckk,
                },
                0.0,
                &mut dw[d.w_slice(g)],
                threads,
            ),
        }
    }
    scratch.put(dy_buf);
    Tensor::from_vec(dw, weight_shape)
}

/// The seed repository's direct convolution loops, retained verbatim as
/// the ground truth the GEMM-lowered kernels are cross-checked against
/// (and as the perf baseline `perf_report` measures speedups over).
pub mod reference {
    use super::{dims4, ConvSpec};
    use yf_tensor::Tensor;

    /// Direct-loop forward convolution.
    pub fn conv2d_forward(input: &Tensor, weight: &Tensor, spec: ConvSpec) -> Tensor {
        let (b, cin, h, w) = dims4(input.shape());
        let (cout, cin_g, kh, kw) = dims4(weight.shape());
        assert!(
            spec.groups > 0 && spec.stride > 0,
            "conv2d: bad spec {spec:?}"
        );
        assert_eq!(cin % spec.groups, 0, "conv2d: cin {cin} % groups");
        assert_eq!(cout % spec.groups, 0, "conv2d: cout {cout} % groups");
        assert_eq!(cin / spec.groups, cin_g, "conv2d: weight channel mismatch");
        let (ho, wo) = (spec.out_extent(h, kh), spec.out_extent(w, kw));
        let mut out = vec![0.0f32; b * cout * ho * wo];
        let cout_g = cout / spec.groups;
        let x = input.data();
        let wt = weight.data();
        for bi in 0..b {
            for g in 0..spec.groups {
                for ocl in 0..cout_g {
                    let oc = g * cout_g + ocl;
                    for icl in 0..cin_g {
                        let ic = g * cin_g + icl;
                        let x_base = (bi * cin + ic) * h * w;
                        let w_base = (oc * cin_g + icl) * kh * kw;
                        let o_base = (bi * cout + oc) * ho * wo;
                        for oy in 0..ho {
                            let iy0 = oy * spec.stride;
                            for ox in 0..wo {
                                let ix0 = ox * spec.stride;
                                let mut acc = 0.0f32;
                                for ky in 0..kh {
                                    let iy = iy0 + ky;
                                    if iy < spec.padding || iy - spec.padding >= h {
                                        continue;
                                    }
                                    let row = x_base + (iy - spec.padding) * w;
                                    let wrow = w_base + ky * kw;
                                    for kx in 0..kw {
                                        let ix = ix0 + kx;
                                        if ix < spec.padding || ix - spec.padding >= w {
                                            continue;
                                        }
                                        acc += x[row + ix - spec.padding] * wt[wrow + kx];
                                    }
                                }
                                out[o_base + oy * wo + ox] += acc;
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_vec(out, &[b, cout, ho, wo])
    }

    /// Direct-loop gradient with respect to the input.
    pub fn conv2d_backward_input(
        input_shape: &[usize],
        weight: &Tensor,
        grad_out: &Tensor,
        spec: ConvSpec,
    ) -> Tensor {
        let (b, cin, h, w) = dims4(input_shape);
        let (cout, cin_g, kh, kw) = dims4(weight.shape());
        let (_, _, ho, wo) = dims4(grad_out.shape());
        let cout_g = cout / spec.groups;
        let mut dx = vec![0.0f32; b * cin * h * w];
        let go = grad_out.data();
        let wt = weight.data();
        for bi in 0..b {
            for g in 0..spec.groups {
                for ocl in 0..cout_g {
                    let oc = g * cout_g + ocl;
                    for icl in 0..cin_g {
                        let ic = g * cin_g + icl;
                        let x_base = (bi * cin + ic) * h * w;
                        let w_base = (oc * cin_g + icl) * kh * kw;
                        let o_base = (bi * cout + oc) * ho * wo;
                        for oy in 0..ho {
                            let iy0 = oy * spec.stride;
                            for ox in 0..wo {
                                let ix0 = ox * spec.stride;
                                let g_out = go[o_base + oy * wo + ox];
                                if g_out == 0.0 {
                                    continue;
                                }
                                for ky in 0..kh {
                                    let iy = iy0 + ky;
                                    if iy < spec.padding || iy - spec.padding >= h {
                                        continue;
                                    }
                                    let row = x_base + (iy - spec.padding) * w;
                                    let wrow = w_base + ky * kw;
                                    for kx in 0..kw {
                                        let ix = ix0 + kx;
                                        if ix < spec.padding || ix - spec.padding >= w {
                                            continue;
                                        }
                                        dx[row + ix - spec.padding] += g_out * wt[wrow + kx];
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_vec(dx, input_shape)
    }

    /// Direct-loop gradient with respect to the weight.
    pub fn conv2d_backward_weight(
        input: &Tensor,
        weight_shape: &[usize],
        grad_out: &Tensor,
        spec: ConvSpec,
    ) -> Tensor {
        let (b, cin, h, w) = dims4(input.shape());
        let (cout, cin_g, kh, kw) = dims4(weight_shape);
        let (_, _, ho, wo) = dims4(grad_out.shape());
        let cout_g = cout / spec.groups;
        let mut dw = vec![0.0f32; cout * cin_g * kh * kw];
        let go = grad_out.data();
        let x = input.data();
        for bi in 0..b {
            for g in 0..spec.groups {
                for ocl in 0..cout_g {
                    let oc = g * cout_g + ocl;
                    for icl in 0..cin_g {
                        let ic = g * cin_g + icl;
                        let x_base = (bi * cin + ic) * h * w;
                        let w_base = (oc * cin_g + icl) * kh * kw;
                        let o_base = (bi * cout + oc) * ho * wo;
                        for oy in 0..ho {
                            let iy0 = oy * spec.stride;
                            for ox in 0..wo {
                                let ix0 = ox * spec.stride;
                                let g_out = go[o_base + oy * wo + ox];
                                if g_out == 0.0 {
                                    continue;
                                }
                                for ky in 0..kh {
                                    let iy = iy0 + ky;
                                    if iy < spec.padding || iy - spec.padding >= h {
                                        continue;
                                    }
                                    let row = x_base + (iy - spec.padding) * w;
                                    let wrow = w_base + ky * kw;
                                    for kx in 0..kw {
                                        let ix = ix0 + kx;
                                        if ix < spec.padding || ix - spec.padding >= w {
                                            continue;
                                        }
                                        dw[wrow + kx] += g_out * x[row + ix - spec.padding];
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_vec(dw, weight_shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yf_tensor::rng::Pcg32;

    #[test]
    fn identity_kernel_passthrough() {
        // 1x1 kernel with weight 1 is the identity map.
        let input = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[1, 2, 2, 2]);
        let weight = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2, 1, 1]);
        let out = conv2d_forward(&input, &weight, ConvSpec::unit());
        assert_eq!(out.shape(), &[1, 2, 2, 2]);
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn known_3x3_valid_convolution() {
        // Single channel, 3x3 input, 2x2 averaging-ish kernel.
        let input = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
            &[1, 1, 3, 3],
        );
        let weight = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0], &[1, 1, 2, 2]);
        let out = conv2d_forward(&input, &weight, ConvSpec::unit());
        assert_eq!(out.shape(), &[1, 1, 2, 2]);
        assert_eq!(out.data(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn padding_preserves_extent() {
        let input = Tensor::ones(&[2, 3, 5, 5]);
        let weight = Tensor::ones(&[4, 3, 3, 3]);
        let out = conv2d_forward(&input, &weight, ConvSpec::same3x3(1));
        assert_eq!(out.shape(), &[2, 4, 5, 5]);
        // Center pixel sees the full 3x3x3 window of ones.
        assert_eq!(out.at(&[0, 0, 2, 2]), 27.0);
        // Corner pixel sees a 2x2x3 window.
        assert_eq!(out.at(&[0, 0, 0, 0]), 12.0);
    }

    #[test]
    fn stride_halves_extent() {
        let input = Tensor::ones(&[1, 1, 8, 8]);
        let weight = Tensor::ones(&[1, 1, 3, 3]);
        let out = conv2d_forward(&input, &weight, ConvSpec::same3x3(2));
        assert_eq!(out.shape(), &[1, 1, 4, 4]);
    }

    #[test]
    fn grouped_conv_blocks_cross_talk() {
        // groups=2: output channel 0 must only see input channel 0.
        let mut input = Tensor::zeros(&[1, 2, 2, 2]);
        for i in 0..4 {
            input.data_mut()[4 + i] = 1.0; // only channel 1 is nonzero
        }
        let weight = Tensor::ones(&[2, 1, 1, 1]);
        let spec = ConvSpec {
            stride: 1,
            padding: 0,
            groups: 2,
        };
        let out = conv2d_forward(&input, &weight, spec);
        assert_eq!(&out.data()[0..4], &[0.0; 4]); // group 0 sees zeros
        assert_eq!(&out.data()[4..8], &[1.0; 4]); // group 1 sees ones
    }

    #[test]
    fn lowered_kernels_match_reference() {
        // A grouped, strided, padded, batched case through all three
        // passes.
        let spec = ConvSpec {
            stride: 2,
            padding: 1,
            groups: 2,
        };
        let mut rng = Pcg32::seed(33);
        let input = Tensor::randn(&[3, 4, 7, 6], &mut rng);
        let weight = Tensor::randn(&[6, 2, 3, 3], &mut rng);
        let out = conv2d_forward(&input, &weight, spec);
        let out_ref = reference::conv2d_forward(&input, &weight, spec);
        assert_eq!(out.shape(), out_ref.shape());
        let grad = Tensor::randn(out.shape(), &mut rng);
        let pairs = [
            (out, out_ref),
            (
                conv2d_backward_input(input.shape(), &weight, &grad, spec),
                reference::conv2d_backward_input(input.shape(), &weight, &grad, spec),
            ),
            (
                conv2d_backward_weight(&input, weight.shape(), &grad, spec),
                reference::conv2d_backward_weight(&input, weight.shape(), &grad, spec),
            ),
        ];
        for (got, want) in &pairs {
            for (g, w) in got.data().iter().zip(want.data()) {
                assert!((g - w).abs() <= 1e-4 * (1.0 + w.abs()), "{g} vs {w}");
            }
        }
    }

    #[test]
    fn cached_and_fallback_backward_weight_agree_bitwise() {
        // The cached-columns GEMM and the fused re-unroll pack identical
        // panels, so the weight gradients must agree bit for bit.
        let spec = ConvSpec {
            stride: 2,
            padding: 1,
            groups: 2,
        };
        let mut rng = Pcg32::seed(77);
        let input = Tensor::randn(&[4, 4, 9, 7], &mut rng);
        let weight = Tensor::randn(&[6, 2, 3, 3], &mut rng);
        let mut scratch = Scratch::new();
        let (out, cache) = conv2d_forward_caching(&input, &weight, spec, &mut scratch);
        let cache = cache.expect("column matrix fits the default budget");
        assert!(cache.bytes() > 0);
        let grad = Tensor::randn(out.shape(), &mut rng);
        let with_cache = conv2d_backward_weight_cached(
            &input,
            weight.shape(),
            &grad,
            spec,
            &mut scratch,
            Some(&cache),
        );
        let without =
            conv2d_backward_weight_cached(&input, weight.shape(), &grad, spec, &mut scratch, None);
        assert_eq!(with_cache.data(), without.data());
    }

    #[test]
    fn caching_forward_matches_fused_forward_bitwise() {
        let spec = ConvSpec::same3x3(1);
        let mut rng = Pcg32::seed(78);
        let input = Tensor::randn(&[3, 3, 8, 8], &mut rng);
        let weight = Tensor::randn(&[5, 3, 3, 3], &mut rng);
        let mut scratch = Scratch::new();
        let (cached, cache) = conv2d_forward_caching(&input, &weight, spec, &mut scratch);
        assert!(cache.is_some());
        let fused = conv2d_forward(&input, &weight, spec);
        assert_eq!(cached.data(), fused.data());
    }

    #[test]
    fn pointwise_never_caches() {
        let mut rng = Pcg32::seed(79);
        let input = Tensor::randn(&[2, 4, 5, 5], &mut rng);
        let weight = Tensor::randn(&[3, 4, 1, 1], &mut rng);
        let mut scratch = Scratch::new();
        let (_, cache) = conv2d_forward_caching(&input, &weight, ConvSpec::unit(), &mut scratch);
        assert!(cache.is_none(), "1x1 stride-1 convs skip the column cache");
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn wrong_channels_panics() {
        let input = Tensor::ones(&[1, 3, 4, 4]);
        let weight = Tensor::ones(&[2, 2, 3, 3]);
        conv2d_forward(&input, &weight, ConvSpec::unit());
    }
}
