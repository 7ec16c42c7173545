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
//! (the backward-weight pass reuses the forward's columns). Every path
//! only copies image values or writes zeros, so all of them produce
//! bitwise-identical columns.
//!
//! The materializing unroll walks whole planes. Each tap reads a valid
//! rectangle of output pixels (rows `[oy_lo, oy_hi)` x columns
//! `[ox_lo, ox_hi)`, computed once per tap); everything around it is
//! padding. For a stride-1 convolution whose output is as wide as its
//! input (`2 * padding == KW - 1`, 8 of the fig8 ResNet's 10 convs) the
//! rectangle's rows lie at the same pitch in the image and in the
//! column-matrix segment, so one (tap, batch element) segment is one
//! shifted contiguous copy of the plane; other geometries copy (or, at
//! stride > 1, gather) one run per valid row. The zeros then go only
//! where they belong: the rows above and below the rectangle and the
//! padding columns between its rows. [`col2im_batched`] walks the same
//! runs backwards, adding each pixel's taps in increasing tap order; its
//! whole-plane runs mask the padding columns to `+0.0`, which leaves the
//! bits of its zero-started sums unchanged.
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

    /// The valid output range `[lo, hi)` along one axis for tap offset
    /// `k`: the `o < n_out` whose input `o*stride + k - padding` lands in
    /// `[0, n_in)`. Everything outside is padding.
    fn valid_range(n_in: usize, n_out: usize, k: usize, spec: ConvSpec) -> (usize, usize) {
        let lo = if k >= spec.padding {
            0
        } else {
            (spec.padding - k).div_ceil(spec.stride)
        };
        let hi = if n_in + spec.padding > k {
            n_out.min((n_in + spec.padding - k - 1) / spec.stride + 1)
        } else {
            0
        };
        (lo.min(n_out), hi.max(lo).min(n_out))
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

/// One tap of the unroll with its geometry precomputed, so the hot loops
/// pay the decode and the range divisions once per tap instead of once
/// per row or segment. Output rows `[oy_lo, oy_hi)` x columns
/// `[ox_lo, ox_hi)` read the image; everything else is padding.
///
/// In one `ho*wo` segment the rectangle spans pixels `[first, last)`,
/// the first reading image pixel `src0`, and `runs` runs of `run_len`
/// pixels, `wo` apart, cover it. At stride 1 with `w == wo` the valid
/// rows sit at the same pitch in the segment and in the image, so the
/// whole rectangle is one run, padding columns included; otherwise each
/// valid row is a run. A tap that reads no pixel has no runs.
#[derive(Debug, Clone, Copy)]
struct TapInfo {
    ic: usize,
    ky: usize,
    kx: usize,
    oy_lo: usize,
    oy_hi: usize,
    ox_lo: usize,
    ox_hi: usize,
    first: usize,
    last: usize,
    src0: usize,
    runs: usize,
    run_len: usize,
}

impl BatchGeom {
    fn tap_info(&self, r: usize) -> TapInfo {
        let (ic, ky, kx) = self.tap(r);
        let (cs, st, pad) = (self.cs, self.spec.stride, self.spec.padding);
        let (oy_lo, oy_hi) = ColShape::valid_range(cs.h, cs.ho, ky, self.spec);
        let (ox_lo, ox_hi) = ColShape::valid_range(cs.w, cs.wo, kx, self.spec);
        let (first, last, src0, runs, run_len) = if oy_lo == oy_hi || ox_lo == ox_hi {
            (0, 0, 0, 0, 0)
        } else {
            let first = oy_lo * cs.wo + ox_lo;
            let last = (oy_hi - 1) * cs.wo + ox_hi;
            let src0 = (oy_lo * st + ky - pad) * cs.w + ox_lo * st + kx - pad;
            if st == 1 && cs.w == cs.wo {
                (first, last, src0, 1, last - first)
            } else {
                (first, last, src0, oy_hi - oy_lo, ox_hi - ox_lo)
            }
        };
        TapInfo {
            ic,
            ky,
            kx,
            oy_lo,
            oy_hi,
            ox_lo,
            ox_hi,
            first,
            last,
            src0,
            runs,
            run_len,
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
    if oy < t.oy_lo || oy >= t.oy_hi {
        if dstride == 1 {
            zero_short(&mut out[..len]);
        } else {
            for i in 0..len {
                out[i * dstride] = 0.0;
            }
        }
        return;
    }
    let iy = oy * st + t.ky - pad;
    let src_row = &plane[iy * cs.w..(iy + 1) * cs.w];
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

/// Writes one tap's row of the column matrix for one batch element:
/// `dst` is the `ho*wo` segment, `plane` that element's `[h, w]` input
/// channel. The tap's runs are copied (or gathered, at stride > 1), then
/// everything outside the valid rectangle is zeroed: the rows above and
/// below it and the padding columns between its rows, which a whole-plane
/// run carried along from the neighbouring image columns.
fn fill_segment(plane: &[f32], cs: ColShape, spec: ConvSpec, t: TapInfo, dst: &mut [f32]) {
    if t.runs == 0 {
        zero_short(dst);
        return;
    }
    let st = spec.stride;
    for r in 0..t.runs {
        let d = &mut dst[t.first + r * cs.wo..][..t.run_len];
        let s = &plane[t.src0 + r * st * cs.w..];
        if st == 1 {
            copy_short(d, &s[..t.run_len]);
        } else {
            for (i, v) in d.iter_mut().enumerate() {
                *v = s[i * st];
            }
        }
    }
    // Past the first row's valid run, each `wo` pixels begin with the
    // padding columns that separate it from the next row's run.
    let seam = cs.wo - (t.ox_hi - t.ox_lo);
    zero_short(&mut dst[..t.first]);
    for row in dst[t.first + cs.wo - seam..t.last].chunks_exact_mut(cs.wo) {
        zero_short(&mut row[..seam]);
    }
    zero_short(&mut dst[t.last..]);
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
            for (bi, seg) in row.chunks_exact_mut(owo).enumerate() {
                fill_segment(g.plane(x, bi, t.ic), g.cs, g.spec, t, seg);
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
            if cols < nr {
                for level in strip.chunks_exact_mut(nr) {
                    zero_short(&mut level[cols..]);
                }
            }
        }
    }
}

/// Scatter-adds one tap's segment of the column-gradient matrix (`src`:
/// the `ho*wo` pixels of one batch element) into that element's image
/// `plane`, run by run as [`fill_segment`] reads them. `keep` masks the
/// segment to the tap's valid columns (all bits set inside, clear
/// outside), so a whole-plane run adds `+0.0` at the padding columns it
/// spans instead of the gradient parked there.
fn scatter_segment(
    src: &[f32],
    cs: ColShape,
    spec: ConvSpec,
    t: TapInfo,
    keep: &[u32],
    plane: &mut [f32],
) {
    let st = spec.stride;
    for r in 0..t.runs {
        let at = t.first + r * cs.wo;
        let g = src[at..][..t.run_len]
            .iter()
            .zip(&keep[at..][..t.run_len])
            .map(|(&v, &m)| f32::from_bits(v.to_bits() & m));
        let d = &mut plane[t.src0 + r * st * cs.w..];
        if st == 1 {
            for (slot, v) in d[..t.run_len].iter_mut().zip(g) {
                *slot += v;
            }
        } else {
            for (i, v) in g.enumerate() {
                d[i * st] += v;
            }
        }
    }
}

/// Scatter-adds the batched column-gradient matrix
/// `cols: [rows(), bcols()]` back into the image gradient
/// `dx: [B, Cin, H, W]`: `dx[bi, ic, iy, ix] += cols[(ic,ky,kx),
/// (bi,oy,ox)]` over every tap that read that pixel, in increasing tap
/// order. Exact adjoint of [`im2col_batched`].
///
/// `dx` must hold no `-0.0` on entry (the conv backward zero-fills it):
/// the masked `+0.0` adds of a whole-plane run leave every other value's
/// bits alone, and a sum that starts at `+0.0` never becomes `-0.0`, so
/// each pixel gets exactly the bits of adding its real taps in order.
///
/// Each `(bi, ic)` image plane is written by exactly one worker (reading
/// its channel's tap rows at that batch's column offset), so the scatter
/// parallelizes across all `B * Cin` planes with disjoint output chunks
/// and is deterministic at any thread count.
pub(crate) fn col2im_batched(cols: &[f32], g: BatchGeom, dx: &mut [f32], threads: usize) {
    debug_assert_eq!(dx.len(), g.b * g.cin * g.cs.h * g.cs.w);
    debug_assert_eq!(cols.len(), g.rows() * g.bcols());
    debug_assert!(dx.iter().all(|v| v.to_bits() != (-0.0f32).to_bits()));
    let plane_len = g.cs.h * g.cs.w;
    let owo = g.cs.cols();
    let row_len = g.bcols();
    let taps: Vec<TapInfo> = (0..g.cs.kh * g.cs.kw).map(|t| g.tap_info(t)).collect();
    // One segment-sized column mask per kernel column `kx`.
    let keep: Vec<u32> = taps[..g.cs.kw]
        .iter()
        .flat_map(|t| {
            (0..owo).map(move |q| {
                let ox = q % g.cs.wo;
                if (t.ox_lo..t.ox_hi).contains(&ox) {
                    u32::MAX
                } else {
                    0
                }
            })
        })
        .collect();
    let par = Par::threads(threads);
    chunks_mut(dx, plane_len, par, |first_plane, chunk| {
        for (p_off, plane) in chunk.chunks_exact_mut(plane_len).enumerate() {
            let p = first_plane + p_off;
            let (bi, ic) = (p / g.cin, p % g.cin);
            for (ti, &t) in taps.iter().enumerate() {
                let src = &cols[(ic * taps.len() + ti) * row_len + bi * owo..][..owo];
                let keep = &keep[t.kx * owo..][..owo];
                scatter_segment(src, g.cs, g.spec, t, keep, plane);
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

    /// `(b, h, w, kh, kw, stride, padding)`, two input channels each. The
    /// stride-1 cases cover both unroll layouts: whole-plane runs when the
    /// output is as wide as the input (fig8's 10x10 and 5x5 planes, h != w,
    /// a 2x2 plane under a 5x5 kernel, a 3x5 kernel), and one run per row
    /// when it is narrower (pad 0 under a 3x3 kernel, pad 1 under 5x5) or
    /// wider (pad 2 under 3x3, pad 1 under 1x1).
    const GEOMS: [(usize, usize, usize, usize, usize, usize, usize); 15] = [
        (1, 5, 5, 3, 3, 1, 1),
        (3, 5, 7, 3, 3, 2, 1),
        (2, 4, 4, 1, 1, 1, 0),
        (2, 6, 6, 3, 3, 1, 0),
        (1, 7, 5, 5, 3, 2, 2),
        (4, 3, 3, 3, 3, 1, 2),
        (3, 10, 10, 3, 3, 1, 1),
        (3, 4, 7, 3, 3, 1, 1),
        (1, 7, 4, 5, 5, 1, 2),
        (1, 2, 2, 5, 5, 1, 2),
        (3, 5, 4, 3, 5, 1, 2),
        (1, 6, 5, 3, 3, 1, 0),
        (3, 6, 5, 5, 5, 1, 1),
        (3, 3, 5, 1, 1, 1, 1),
        (1, 3, 4, 3, 3, 1, 2),
    ];

    fn geoms() -> impl Iterator<Item = (BatchGeom, String)> {
        GEOMS.iter().map(|&(b, h, w, kh, kw, stride, padding)| {
            let spec = ConvSpec {
                stride,
                padding,
                groups: 1,
            };
            let tag = format!("b{b} h{h} w{w} k{kh}x{kw} s{stride} p{padding}");
            (geom(b, 2, h, w, kh, kw, spec), tag)
        })
    }

    #[test]
    fn matches_naive_unroll_across_geometries() {
        for (g, tag) in geoms() {
            let x: Vec<f32> = (0..g.b * g.cin * g.cs.h * g.cs.w)
                .map(|v| v as f32 + 1.0)
                .collect();
            let want = unroll_naive(&x, g);
            for threads in [1usize, 2, 4] {
                let mut got = vec![f32::NAN; want.len()];
                im2col_batched(&x, g, &mut got, threads);
                assert_eq!(got, want, "{tag} t{threads}");
            }
        }
    }

    /// The scatter as its definition reads: for each image plane, every
    /// tap in increasing order adds its valid pixels.
    fn scatter_naive(cols: &[f32], g: BatchGeom) -> Vec<f32> {
        let cs = g.cs;
        let owo = cs.cols();
        let mut dx = vec![0.0f32; g.b * g.cin * cs.h * cs.w];
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
                                dx[((bi * g.cin + ic) * cs.h + iy as usize) * cs.w
                                    + ix as usize] +=
                                    cols[row * g.bcols() + bi * owo + oy * cs.wo + ox];
                            }
                        }
                    }
                }
            }
        }
        dx
    }

    #[test]
    fn col2im_matches_naive_scatter_bitwise_on_special_values() {
        // Gradients holding ±0.0, ±inf and NaN among ordinary values, so
        // a padding column that leaked into a sum, a masked add that
        // flipped a sign, or a reordered tap would change bits. NaN
        // payloads may differ by which operand the hardware propagates,
        // so two NaNs compare equal.
        let special = [0.0f32, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        for (g, tag) in geoms() {
            let cols: Vec<f32> = (0..g.rows() * g.bcols())
                .map(|i| match i % 7 {
                    0 => special[(i / 7) % special.len()],
                    _ => (i as f32 * 0.73).sin(),
                })
                .collect();
            let want = scatter_naive(&cols, g);
            for threads in [1usize, 2] {
                let mut got = vec![0.0f32; want.len()];
                col2im_batched(&cols, g, &mut got, threads);
                for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                        "{tag} t{threads} [{i}]: {a:?} vs {b:?}"
                    );
                }
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
