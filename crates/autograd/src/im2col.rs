//! Batch-fused im2col/col2im lowering: 2-D convolution as one GEMM per
//! group over the *whole batch*.
//!
//! The whole input `[B, Cin, H, W]` unrolls into one batched column
//! matrix `[Cin * KH * KW, B * Ho * Wo]`: row `r` is the tap
//! `(ic, ky, kx)` with `ic = r / (KH*KW)` a **global** input channel, and
//! column `bi * Ho*Wo + q` is output pixel `q` of batch element `bi`.
//! Group `g` of a grouped convolution owns the contiguous row block
//! `[g * ckk, (g+1) * ckk)` (`ckk = Cin/groups * KH * KW`), so each pass
//! is `groups` GEMMs of full batch width instead of `B * groups` narrow
//! ones — wide enough to feed the GEMM thread partitioner at paper-scale
//! batch sizes.
//!
//! The column matrix usually never exists in memory: [`ColsPackNN`] and
//! [`ColsPackNT`] implement [`yf_tensor::gemm::PackBPanel`], packing
//! column panels for the forward (`cols` as `op(B) = [ckk, B*Ho*Wo]`) and
//! backward-weight (`op(B) = colsᵀ`) GEMMs straight from the input image
//! — the unroll *is* the packing pass the GEMM needed anyway. The
//! materializing [`im2col_batched`] is kept for the tape's column cache
//! (the backward-weight pass reuses the forward's columns) and produces
//! bitwise-identical values, since both paths share [`fill_tap_run`].
//!
//! The unroll walks output rows, not individual taps: each tap row is
//! filled per output row with one bounds computation, so the padding-free
//! interior is `copy_from_slice` runs at stride 1 and a tight gather at
//! larger strides — no per-element padding checks anywhere.
//!
//! [`im2col_batched`] parallelizes across tap rows (each row of the
//! batched matrix is contiguous) and [`col2im_batched`] across the
//! `B * Cin` image planes of the gradient (each plane is written by
//! exactly one worker), both through
//! [`yf_tensor::parallel::chunks_mut`].

use crate::conv::ConvSpec;
use yf_tensor::elementwise::{copy_short, zero_short};
use yf_tensor::gemm::PackBPanel;
use yf_tensor::parallel::{chunks_mut, Par};

/// Geometry of one channel plane's column unroll, shared by the three
/// conv kernels.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColShape {
    /// Channels per group.
    pub cin_g: usize,
    /// Input spatial extents.
    pub h: usize,
    pub w: usize,
    /// Kernel spatial extents.
    pub kh: usize,
    pub kw: usize,
    /// Output spatial extents.
    pub ho: usize,
    pub wo: usize,
}

impl ColShape {
    /// Output pixels per batch element: one column each.
    pub fn cols(&self) -> usize {
        self.ho * self.wo
    }

    /// The valid output-x range `[lo, hi)` for tap column `kx`, i.e. the
    /// `ox` whose input column `ox*stride + kx - padding` lands in
    /// `[0, w)`. Everything outside is padding.
    fn ox_range(&self, kx: usize, spec: ConvSpec) -> (usize, usize) {
        let lo = if kx >= spec.padding {
            0
        } else {
            (spec.padding - kx).div_ceil(spec.stride)
        };
        let hi = if self.w + spec.padding > kx {
            self.wo
                .min((self.w + spec.padding - kx - 1) / spec.stride + 1)
        } else {
            0
        };
        (lo.min(self.wo), hi.max(lo).min(self.wo))
    }
}

/// Everything the batched unroll needs to locate a (batch, channel) plane
/// and decode a global tap row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BatchGeom {
    /// Batch elements.
    pub b: usize,
    /// Total input channels (across all groups).
    pub cin: usize,
    pub cs: ColShape,
    pub spec: ConvSpec,
}

impl BatchGeom {
    /// Columns of the batched matrix: `b * ho * wo`.
    pub fn bcols(&self) -> usize {
        self.b * self.cs.cols()
    }

    /// Rows of the batched matrix: `cin * kh * kw`.
    pub fn rows(&self) -> usize {
        self.cin * self.cs.kh * self.cs.kw
    }

    /// Decodes a global tap row into `(ic, ky, kx)`.
    fn tap(&self, r: usize) -> (usize, usize, usize) {
        let taps = self.cs.kh * self.cs.kw;
        let (ic, t) = (r / taps, r % taps);
        (ic, t / self.cs.kw, t % self.cs.kw)
    }

    /// The `[h, w]` input plane of batch `bi`, channel `ic`.
    fn plane<'a>(&self, x: &'a [f32], bi: usize, ic: usize) -> &'a [f32] {
        let hw = self.cs.h * self.cs.w;
        &x[(bi * self.cin + ic) * hw..][..hw]
    }
}

/// One tap of the unroll with its column-validity range precomputed, so
/// the hot packing loops pay the decode and `ox_range` divisions once per
/// tap instead of once per 32-pixel segment.
#[derive(Debug, Clone, Copy)]
struct TapInfo {
    ic: usize,
    ky: usize,
    kx: usize,
    ox_lo: usize,
    ox_hi: usize,
}

impl BatchGeom {
    fn tap_info(&self, r: usize) -> TapInfo {
        let (ic, ky, kx) = self.tap(r);
        let (ox_lo, ox_hi) = self.cs.ox_range(kx, self.spec);
        TapInfo {
            ic,
            ky,
            kx,
            ox_lo,
            ox_hi,
        }
    }
}

/// One maximal single-output-row run of a pixel-column range: pixels
/// `ox0 .. ox0+len` of output row `oy`, batch element `bi`, starting
/// `off` pixels into the range. Precomputed once per packed strip and
/// shared by every tap level of that strip.
#[derive(Debug, Clone, Copy)]
struct PixRun {
    off: usize,
    bi: usize,
    oy: usize,
    ox0: usize,
    len: usize,
}

/// Decomposes the pixel-column range `[j0, j0 + count)` of the batched
/// matrix into per-(batch, output-row) runs.
fn pixel_runs(g: &BatchGeom, j0: usize, count: usize, runs: &mut Vec<PixRun>) {
    runs.clear();
    let owo = g.cs.cols();
    let mut j = j0;
    let end = j0 + count;
    while j < end {
        let (bi, q) = (j / owo, j % owo);
        let (oy, ox0) = (q / g.cs.wo, q % g.cs.wo);
        let len = (g.cs.wo - ox0).min(end - j);
        runs.push(PixRun {
            off: j - j0,
            bi,
            oy,
            ox0,
            len,
        });
        j += len;
    }
}

/// Writes one tap's values over one pixel run into `out` (based at the
/// run's first pixel), spacing consecutive pixels `dstride` slots apart
/// (`1` materializes a row; `nr` fills one column of a packed strip).
///
/// Padding positions are written as zeros; the padding-free interior is a
/// `copy_from_slice` at stride 1 / a tight gather at larger strides.
#[inline]
#[allow(clippy::too_many_arguments)]
fn fill_row_run(
    plane: &[f32],
    cs: ColShape,
    spec: ConvSpec,
    t: TapInfo,
    oy: usize,
    ox0: usize,
    len: usize,
    out: &mut [f32],
    dstride: usize,
) {
    let (st, pad) = (spec.stride, spec.padding);
    let iy = oy * st + t.ky;
    if iy < pad || iy - pad >= cs.h {
        if dstride == 1 {
            zero_short(&mut out[..len]);
        } else {
            for i in 0..len {
                out[i * dstride] = 0.0;
            }
        }
        return;
    }
    let src_row = &plane[(iy - pad) * cs.w..(iy - pad + 1) * cs.w];
    let lo = t.ox_lo.clamp(ox0, ox0 + len);
    let hi = t.ox_hi.clamp(lo, ox0 + len);
    for i in 0..lo - ox0 {
        out[i * dstride] = 0.0;
    }
    for i in hi - ox0..len {
        out[i * dstride] = 0.0;
    }
    // `hi > lo` implies `lo >= ox_lo`, so `lo*st + kx >= pad`.
    if hi > lo {
        if st == 1 {
            // Interior fast path: one contiguous run.
            let i0 = lo + t.kx - pad;
            let src = &src_row[i0..i0 + (hi - lo)];
            if dstride == 1 {
                copy_short(&mut out[lo - ox0..hi - ox0], src);
            } else {
                for (i, &v) in src.iter().enumerate() {
                    out[(lo - ox0 + i) * dstride] = v;
                }
            }
        } else {
            for i in 0..hi - lo {
                out[(lo - ox0 + i) * dstride] = src_row[(lo + i) * st + t.kx - pad];
            }
        }
    }
}

/// Writes one tap's column-matrix row over output pixels `[q0, q1)` of
/// one batch element's `plane` at `dstride` spacing (the whole-row case
/// of [`fill_row_run`], used by the materializing unroll).
#[allow(clippy::too_many_arguments)]
fn fill_tap_run(
    plane: &[f32],
    cs: ColShape,
    spec: ConvSpec,
    t: TapInfo,
    q0: usize,
    q1: usize,
    dst: &mut [f32],
    dstride: usize,
) {
    let mut q = q0;
    while q < q1 {
        let (oy, ox0) = (q / cs.wo, q % cs.wo);
        let len = (cs.wo - ox0).min(q1 - q);
        fill_row_run(
            plane,
            cs,
            spec,
            t,
            oy,
            ox0,
            len,
            &mut dst[(q - q0) * dstride..],
            dstride,
        );
        q += len;
    }
}

/// Materializes the batched column matrix `cols: [rows(), bcols()]` for
/// the whole batch (the tape's column cache and the re-unroll fallback).
///
/// Each tap row of the matrix is one contiguous `bcols()` slice, so the
/// unroll parallelizes across rows with disjoint output chunks.
pub(crate) fn im2col_batched(x: &[f32], g: BatchGeom, cols: &mut [f32], threads: usize) {
    debug_assert_eq!(x.len(), g.b * g.cin * g.cs.h * g.cs.w);
    debug_assert_eq!(cols.len(), g.rows() * g.bcols());
    let owo = g.cs.cols();
    let row_len = g.bcols();
    chunks_mut(cols, row_len, Par::threads(threads), |first_row, chunk| {
        for (r_off, row) in chunk.chunks_exact_mut(row_len).enumerate() {
            let t = g.tap_info(first_row + r_off);
            for bi in 0..g.b {
                fill_tap_run(
                    g.plane(x, bi, t.ic),
                    g.cs,
                    g.spec,
                    t,
                    0,
                    owo,
                    &mut row[bi * owo..(bi + 1) * owo],
                    1,
                );
            }
        }
    });
}

/// Forward / backward-input B operand: the virtual batched column matrix
/// in `op(B) = [ckk, B*Ho*Wo]` orientation for one group (`row0` is the
/// group's first global tap row). Panels pack straight from the image —
/// the unroll never materializes.
pub(crate) struct ColsPackNN<'a> {
    pub x: &'a [f32],
    pub g: BatchGeom,
    pub row0: usize,
}

impl PackBPanel for ColsPackNN<'_> {
    fn pack_panel(&self, dst: &mut [f32], nr: usize, col0: usize, nc: usize, pc: usize, kc: usize) {
        // Taps are shared by every strip of the panel; runs are shared by
        // every tap level of one strip — both are precomputed so the hot
        // loop is pure row copies.
        let taps: Vec<TapInfo> = (0..kc)
            .map(|p| self.g.tap_info(self.row0 + pc + p))
            .collect();
        let mut runs = Vec::new();
        for (s, strip) in dst
            .chunks_exact_mut(kc * nr)
            .take(nc.div_ceil(nr))
            .enumerate()
        {
            let j0 = col0 + s * nr;
            let cols = nr.min(col0 + nc - j0);
            pixel_runs(&self.g, j0, cols, &mut runs);
            for (p, &t) in taps.iter().enumerate() {
                let drow = &mut strip[p * nr..(p + 1) * nr];
                for r in &runs {
                    fill_row_run(
                        self.g.plane(self.x, r.bi, t.ic),
                        self.g.cs,
                        self.g.spec,
                        t,
                        r.oy,
                        r.ox0,
                        r.len,
                        &mut drow[r.off..],
                        1,
                    );
                }
                zero_short(&mut drow[cols..]);
            }
        }
    }
}

/// Backward-weight B operand: the virtual batched column matrix in
/// transposed orientation, `op(B) = colsᵀ = [B*Ho*Wo, ckk]`, for one
/// group. Each packed-strip column is one tap; its `kc` pixel levels are
/// written at stride `nr` while the image is read contiguously.
pub(crate) struct ColsPackNT<'a> {
    pub x: &'a [f32],
    pub g: BatchGeom,
    pub row0: usize,
}

impl PackBPanel for ColsPackNT<'_> {
    fn pack_panel(&self, dst: &mut [f32], nr: usize, col0: usize, nc: usize, pc: usize, kc: usize) {
        // The kc pixel levels are the same for every strip and tap of the
        // panel: decompose them into runs once.
        let mut runs = Vec::new();
        pixel_runs(&self.g, pc, kc, &mut runs);
        for (s, strip) in dst
            .chunks_exact_mut(kc * nr)
            .take(nc.div_ceil(nr))
            .enumerate()
        {
            let j0 = col0 + s * nr;
            let cols = nr.min(col0 + nc - j0);
            for c in 0..cols {
                let t = self.g.tap_info(self.row0 + j0 + c);
                for r in &runs {
                    fill_row_run(
                        self.g.plane(self.x, r.bi, t.ic),
                        self.g.cs,
                        self.g.spec,
                        t,
                        r.oy,
                        r.ox0,
                        r.len,
                        &mut strip[r.off * nr + c..],
                        nr,
                    );
                }
            }
            for c in cols..nr {
                for p in 0..kc {
                    strip[p * nr + c] = 0.0;
                }
            }
        }
    }
}

/// Scatter-adds one tap row segment (`src`: `ho*wo` pixels of one batch
/// element) back into that element's image `plane`.
fn scatter_tap_add(
    src: &[f32],
    cs: ColShape,
    spec: ConvSpec,
    ky: usize,
    kx: usize,
    plane: &mut [f32],
) {
    let (st, pad) = (spec.stride, spec.padding);
    let (ox_lo, ox_hi) = cs.ox_range(kx, spec);
    for oy in 0..cs.ho {
        let iy = oy * st + ky;
        if iy < pad || iy - pad >= cs.h {
            continue;
        }
        let seg = &src[oy * cs.wo..(oy + 1) * cs.wo];
        let drow = &mut plane[(iy - pad) * cs.w..(iy - pad + 1) * cs.w];
        if st == 1 {
            let i0 = ox_lo + kx - pad;
            for (slot, &g) in drow[i0..i0 + (ox_hi - ox_lo)]
                .iter_mut()
                .zip(&seg[ox_lo..ox_hi])
            {
                *slot += g;
            }
        } else {
            for (ox, &g) in seg[ox_lo..ox_hi].iter().enumerate() {
                drow[(ox_lo + ox) * st + kx - pad] += g;
            }
        }
    }
}

/// Scatter-adds the batched column-gradient matrix
/// `cols: [rows(), bcols()]` back into the image gradient
/// `dx: [B, Cin, H, W]`: `dx[bi, ic, iy, ix] += cols[(ic,ky,kx),
/// (bi,oy,ox)]` over every tap that read that pixel. Exact adjoint of
/// [`im2col_batched`].
///
/// Each `(bi, ic)` image plane is written by exactly one worker (reading
/// its channel's tap rows at that batch's column offset), so the scatter
/// parallelizes across all `B * Cin` planes with disjoint output chunks
/// and is deterministic at any thread count.
pub(crate) fn col2im_batched(cols: &[f32], g: BatchGeom, dx: &mut [f32], threads: usize) {
    debug_assert_eq!(dx.len(), g.b * g.cin * g.cs.h * g.cs.w);
    debug_assert_eq!(cols.len(), g.rows() * g.bcols());
    let plane_len = g.cs.h * g.cs.w;
    let owo = g.cs.cols();
    let row_len = g.bcols();
    let taps = g.cs.kh * g.cs.kw;
    let par = Par::threads(threads);
    chunks_mut(dx, plane_len, par, |first_plane, chunk| {
        for (p_off, plane) in chunk.chunks_exact_mut(plane_len).enumerate() {
            let p = first_plane + p_off;
            let (bi, ic) = (p / g.cin, p % g.cin);
            for t in 0..taps {
                let (ky, kx) = (t / g.cs.kw, t % g.cs.kw);
                let src = &cols[(ic * taps + t) * row_len + bi * owo..][..owo];
                scatter_tap_add(src, g.cs, g.spec, ky, kx, plane);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(
        b: usize,
        cin: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        spec: ConvSpec,
    ) -> BatchGeom {
        BatchGeom {
            b,
            cin,
            cs: ColShape {
                cin_g: cin / spec.groups,
                h,
                w,
                kh,
                kw,
                ho: spec.out_extent(h, kh),
                wo: spec.out_extent(w, kw),
            },
            spec,
        }
    }

    fn unroll_naive(x: &[f32], g: BatchGeom) -> Vec<f32> {
        let cs = g.cs;
        let owo = cs.cols();
        let mut cols = vec![0.0f32; g.rows() * g.bcols()];
        for bi in 0..g.b {
            for ic in 0..g.cin {
                for ky in 0..cs.kh {
                    for kx in 0..cs.kw {
                        let row = (ic * cs.kh + ky) * cs.kw + kx;
                        for oy in 0..cs.ho {
                            for ox in 0..cs.wo {
                                let iy =
                                    (oy * g.spec.stride + ky) as isize - g.spec.padding as isize;
                                let ix =
                                    (ox * g.spec.stride + kx) as isize - g.spec.padding as isize;
                                if iy < 0 || ix < 0 || iy >= cs.h as isize || ix >= cs.w as isize {
                                    continue;
                                }
                                cols[row * g.bcols() + bi * owo + oy * cs.wo + ox] = x
                                    [((bi * g.cin + ic) * cs.h + iy as usize) * cs.w + ix as usize];
                            }
                        }
                    }
                }
            }
        }
        cols
    }

    #[test]
    fn matches_naive_unroll_across_geometries() {
        for &(b, h, w, kh, kw, stride, padding) in &[
            (1, 5, 5, 3, 3, 1, 1),
            (3, 5, 7, 3, 3, 2, 1),
            (2, 4, 4, 1, 1, 1, 0),
            (2, 6, 6, 3, 3, 1, 0),
            (1, 7, 5, 5, 3, 2, 2),
            (4, 3, 3, 3, 3, 1, 2),
        ] {
            let spec = ConvSpec {
                stride,
                padding,
                groups: 1,
            };
            let g = geom(b, 2, h, w, kh, kw, spec);
            let x: Vec<f32> = (0..b * 2 * h * w).map(|v| v as f32 + 1.0).collect();
            let want = unroll_naive(&x, g);
            for threads in [1usize, 2, 4] {
                let mut got = vec![f32::NAN; want.len()];
                im2col_batched(&x, g, &mut got, threads);
                assert_eq!(
                    got, want,
                    "b{b} h{h} w{w} k{kh}x{kw} s{stride} p{padding} t{threads}"
                );
            }
        }
    }

    #[test]
    fn pack_panels_match_materialized_columns() {
        // Both PackBPanel orientations must deliver exactly what packing
        // the materialized column matrix would: NN strips are row
        // segments, NT strips are column segments of the same matrix.
        let spec = ConvSpec {
            stride: 2,
            padding: 1,
            groups: 1,
        };
        let g = geom(3, 2, 5, 6, 3, 3, spec);
        let x: Vec<f32> = (0..g.b * g.cin * g.cs.h * g.cs.w)
            .map(|v| (v as f32 * 0.61).sin())
            .collect();
        let cols = unroll_naive(&x, g);
        let (rows, bcols) = (g.rows(), g.bcols());
        let nr = 8usize;
        // NN: op(B) = cols, panel over pixel columns.
        let (nc, kc, col0, pc) = (13usize, 7usize, 3usize, 5usize);
        let mut got = vec![f32::NAN; nc.div_ceil(nr) * nr * kc];
        let nn = ColsPackNN { x: &x, g, row0: 0 };
        nn.pack_panel(&mut got, nr, col0, nc, pc, kc);
        for (s, strip) in got.chunks_exact(kc * nr).enumerate() {
            let j0 = col0 + s * nr;
            for p in 0..kc {
                for c in 0..nr {
                    let want = if j0 + c < col0 + nc && j0 + c < bcols {
                        cols[(pc + p) * bcols + j0 + c]
                    } else {
                        0.0
                    };
                    assert_eq!(strip[p * nr + c], want, "nn s{s} p{p} c{c}");
                }
            }
        }
        // NT: op(B) = colsᵀ, panel over tap columns, pixel levels.
        let (nc, kc, col0, pc) = (rows - 2, 9, 1, 4);
        let mut got = vec![f32::NAN; nc.div_ceil(nr) * nr * kc];
        let nt = ColsPackNT { x: &x, g, row0: 1 };
        nt.pack_panel(&mut got, nr, col0, nc, pc, kc);
        for (s, strip) in got.chunks_exact(kc * nr).enumerate() {
            let j0 = col0 + s * nr;
            for p in 0..kc {
                for c in 0..nr {
                    let want = if j0 + c < col0 + nc {
                        cols[(1 + j0 + c) * bcols + pc + p]
                    } else {
                        0.0
                    };
                    assert_eq!(strip[p * nr + c], want, "nt s{s} p{p} c{c}");
                }
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y — over the
        // whole batch at once.
        let spec = ConvSpec {
            stride: 2,
            padding: 1,
            groups: 1,
        };
        let g = geom(2, 3, 5, 6, 3, 3, spec);
        let x: Vec<f32> = (0..g.b * g.cin * g.cs.h * g.cs.w)
            .map(|v| (v as f32 * 0.37).sin())
            .collect();
        let y: Vec<f32> = (0..g.rows() * g.bcols())
            .map(|v| (v as f32 * 0.71).cos())
            .collect();
        let mut cols = vec![0.0f32; y.len()];
        im2col_batched(&x, g, &mut cols, 2);
        let lhs: f64 = cols.iter().zip(&y).map(|(&a, &b)| f64::from(a * b)).sum();
        let mut xt = vec![0.0f32; x.len()];
        col2im_batched(&y, g, &mut xt, 2);
        let rhs: f64 = x.iter().zip(&xt).map(|(&a, &b)| f64::from(a * b)).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");

        // The parallel scatter is deterministic: per-plane outputs are
        // disjoint, so 1-thread and N-thread results agree bitwise.
        let mut xt1 = vec![0.0f32; x.len()];
        col2im_batched(&y, g, &mut xt1, 1);
        assert_eq!(xt, xt1);
    }
}
