//! Cache-blocked, panel-packed f32 GEMM — the workhorse under `matmul`
//! and the im2col convolution lowering.
//!
//! The design is the classic three-loop blocking scheme (Goto/BLIS):
//! `C = op(A)·op(B) + beta·C` is computed panel by panel. The K dimension
//! is split into `kc`-deep slabs, B slabs are packed into `NR`-wide
//! column strips and A slabs into `MR`-tall row strips, and an `MR x NR`
//! register-tiled micro-kernel runs down the packed panels with
//! perfect-stride loads. Packing also absorbs both transpose variants, so
//! [`Tensor::matmul_nt`](crate::Tensor::matmul_nt) and
//! [`Tensor::matmul_tn`](crate::Tensor::matmul_tn) never materialize a
//! transposed matrix.
//!
//! The `mc`/`kc`/`nc` block extents are no longer compile-time constants:
//! they are derived at first use from the machine's detected L1/L2
//! data-cache sizes (`/sys/devices/system/cpu/cpu0/cache`, with safe
//! fallbacks off-Linux): one A strip plus one B strip stay L1-resident,
//! and both the packed A block and the packed B panel target half of L2
//! — L2-resident panels beat the classic L3-sized ones for the skinny
//! GEMMs the conv lowering produces. `YF_GEMM_BLOCKS=mc,kc,nc` overrides the derivation for
//! experiments, and [`gemm_with_blocks`] takes explicit extents (the
//! blocking tests use tiny ones to exercise every panel loop).
//!
//! B operands can be *virtual*: [`gemm_custom_b`] takes a
//! [`PackBPanel`] implementation instead of a slice, and calls it to
//! fill each packed panel on demand. This is how the batch-fused im2col
//! convolution feeds the GEMM directly from the input image — the column
//! matrix is packed straight into panels and never materialized.
//!
//! Three micro-kernels are compiled and selected at runtime on x86-64:
//! an AVX-512 kernel (6x32 tile), an AVX2+FMA kernel (6x16), and a
//! portable safe-Rust kernel (6x16) that is also the only kernel on other
//! architectures. The binary stays runnable on any x86-64 machine; fast
//! paths light up where the CPU supports them.
//!
//! Multi-threading splits the rows of `C` into contiguous blocks, one per
//! thread, via [`parallel::chunks_mut`]; each B panel is packed
//! once by the calling thread and shared read-only, and every worker owns
//! a pooled A buffer (wrapped in a never-contended `Mutex` purely for the
//! borrow checker). The thread count defaults to
//! [`parallel::num_threads`] (`YF_NUM_THREADS` overrides it), and
//! [`gemm_with_threads`] takes an explicit count.
//!
//! Packing panels come from the thread-local [`Scratch`] pool, so a
//! steady-state training loop performs no per-call heap allocation here.

use crate::elementwise::{copy_short, zero_short};
use crate::parallel::{self, Par};
use crate::scratch::Scratch;

/// Rows of the micro-kernel register tile.
const MR: usize = 6;

/// Cache-blocking extents: `mc` rows of A packed per block, `kc` K levels
/// per slab, `nc` columns of B packed per panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blocks {
    /// Row-block height packed per A block (rounded to the `6`-row tile).
    pub mc: usize,
    /// K-dimension slab depth (one packed strip holds `kc` levels).
    pub kc: usize,
    /// Column-block width packed per B panel.
    pub nc: usize,
}

/// Parses a `"mc,kc,nc"` spec (the `YF_GEMM_BLOCKS` format).
fn parse_blocks_spec(spec: &str) -> Option<Blocks> {
    let mut it = spec.split(',').map(|p| p.trim().parse::<usize>().ok());
    let (mc, kc, nc) = (it.next()??, it.next()??, it.next()??);
    if it.next().is_some() || mc == 0 || kc == 0 || nc == 0 {
        return None;
    }
    Some(Blocks { mc, kc, nc })
}

/// Parses a sysfs cache size string like `"48K"`, `"2048K"`, or `"36M"`.
fn parse_cache_size(s: &str) -> Option<usize> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 1024),
        b'M' | b'm' => (&s[..s.len() - 1], 1024 * 1024),
        b'G' | b'g' => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok().map(|v| v * mult)
}

/// Detected (L1d, L2, L3) data-cache sizes in bytes (memoized), with
/// conservative fallbacks (32 KiB / 1 MiB / 8 MiB) where detection
/// fails. Public so cache-blocking decisions outside the GEMM (e.g. the
/// conv backward-input batch chunking) agree with the GEMM's own.
pub fn cache_sizes() -> (usize, usize, usize) {
    use std::sync::OnceLock;
    static SIZES: OnceLock<(usize, usize, usize)> = OnceLock::new();
    *SIZES.get_or_init(detected_cache_sizes)
}

fn detected_cache_sizes() -> (usize, usize, usize) {
    let mut levels: [Option<usize>; 4] = [None; 4];
    for i in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let Ok(ty) = std::fs::read_to_string(format!("{base}/type")) else {
            continue;
        };
        if !matches!(ty.trim(), "Data" | "Unified") {
            continue;
        }
        let level = std::fs::read_to_string(format!("{base}/level"))
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok());
        let size = std::fs::read_to_string(format!("{base}/size"))
            .ok()
            .and_then(|v| parse_cache_size(&v));
        if let (Some(level @ 1..=3), Some(size)) = (level, size) {
            levels[level] = Some(levels[level].unwrap_or(0).max(size));
        }
    }
    let l1 = levels[1].unwrap_or(32 * 1024);
    let l2 = levels[2].unwrap_or(1024 * 1024);
    let l3 = levels[3].unwrap_or_else(|| (8 * 1024 * 1024).max(l2));
    (l1, l2, l3)
}

/// Derives blocking extents for an `NR`-wide micro-kernel from the cache
/// hierarchy (or from `YF_GEMM_BLOCKS` when set).
fn auto_blocks(nr: usize) -> Blocks {
    if let Some(b) = crate::env::parse_with("YF_GEMM_BLOCKS", parse_blocks_spec) {
        return b;
    }
    // L3 is plenty for any panel below; L1/L2 set the extents.
    let (l1, l2, _l3) = cache_sizes();
    let f = std::mem::size_of::<f32>();
    // One A strip (MR x kc) plus one B strip (nr x kc) must stay
    // L1-resident while the micro-kernel streams down them.
    let kc = (l1 / (f * (MR + nr))).clamp(128, 768) & !7;
    // The packed A block (mc x kc) targets half of L2.
    let mc = (l2 / (2 * f * kc)).clamp(4 * MR, 816) / MR * MR;
    // The packed B panel (kc x nc) also targets half of L2: the conv
    // lowering produces skinny GEMMs (m of a few tile rows) whose B
    // panels are re-read once per row strip, so keeping the panel
    // L2-resident beats the classic L3-sized panel by a wide margin.
    let nc = (l2 / (2 * f * kc)).clamp(nr.max(256), 8192) / nr * nr;
    Blocks { mc, kc, nc }
}

/// The blocking extents the dispatcher will use for this machine's
/// selected micro-kernel (memoized; `YF_GEMM_BLOCKS=mc,kc,nc` overrides).
pub fn blocks() -> Blocks {
    use std::sync::OnceLock;
    static B16: OnceLock<Blocks> = OnceLock::new();
    static B32: OnceLock<Blocks> = OnceLock::new();
    if detected_simd() == "avx512" {
        *B32.get_or_init(|| auto_blocks(32))
    } else {
        *B16.get_or_init(|| auto_blocks(16))
    }
}

/// A source of packed B panels for [`gemm_custom_b`].
///
/// `pack_panel` must fill `dst` with the panel covering columns
/// `col0..col0 + nc` and K levels `pc..pc + kc` of the virtual `[k, n]`
/// matrix `op(B)`, in the layout the micro-kernel consumes:
/// `nc.div_ceil(nr)` strips of `kc * nr` elements each, where strip `s`
/// holds columns `col0 + s*nr ..`, level-major inside the strip
/// (`dst[p*nr + c] = op(B)[pc + p, col0 + s*nr + c]`), zero-padded past
/// the last real column.
///
/// The GEMM driver calls it once per (panel, slab) from the coordinating
/// thread, so implementations need no internal synchronization.
pub trait PackBPanel {
    /// Fills one packed panel (see the trait docs for the layout).
    fn pack_panel(&self, dst: &mut [f32], nr: usize, col0: usize, nc: usize, pc: usize, kc: usize);
}

/// The ordinary slice-backed B operand (`trans` selects `[n, k]` storage).
struct SliceB<'a> {
    b: &'a [f32],
    trans: bool,
    ldb: usize,
}

impl PackBPanel for SliceB<'_> {
    fn pack_panel(&self, dst: &mut [f32], nr: usize, col0: usize, nc: usize, pc: usize, kc: usize) {
        for (s, strip) in dst
            .chunks_exact_mut(kc * nr)
            .take(nc.div_ceil(nr))
            .enumerate()
        {
            let j0 = col0 + s * nr;
            let cols = nr.min(col0 + nc - j0);
            if self.trans {
                // B is stored [n, k]: a column of op(B) is a contiguous
                // row. Read each row once, front to back, and scatter
                // into the strip — the transpose happens on the write
                // side, where the working set is one L1-resident strip,
                // instead of as a huge-stride gather on the read side.
                for c in 0..cols {
                    let src = &self.b[(j0 + c) * self.ldb + pc..][..kc];
                    for (p, &v) in src.iter().enumerate() {
                        strip[p * nr + c] = v;
                    }
                }
                for c in cols..nr {
                    for p in 0..kc {
                        strip[p * nr + c] = 0.0;
                    }
                }
            } else {
                // B is stored [K, N]: one K level is a contiguous slice.
                for p in 0..kc {
                    let src = &self.b[(pc + p) * self.ldb + j0..];
                    let dst = &mut strip[p * nr..(p + 1) * nr];
                    copy_short(&mut dst[..cols], &src[..cols]);
                    zero_short(&mut dst[cols..]);
                }
            }
        }
    }
}

/// `kernel(kc, a_strip, b_strip, acc)`: accumulate a tile against an
/// `MR`-strided A strip.
///
/// The `unsafe` in the type is the CPU-feature contract: callers must only
/// pass kernels whose `#[target_feature]` requirements were verified via
/// `is_x86_feature_detected!` (the portable kernels have none).
type MicroKernel<const NR: usize> = unsafe fn(usize, &[f32], &[f32], &mut [[f32; NR]; MR]);

/// One kernel per active-row bucket (2, 4, 6): the tile grid picks the
/// smallest variant covering `mr_eff`, so edge strips of a skinny GEMM
/// (the batch-fused convolutions have `m` of a few tile rows) stop
/// spending FMA throughput on zero-padded rows.
type KernelFamily<const NR: usize> = [MicroKernel<NR>; 3];

/// The family index for an `mr_eff`-row tile (`1-2 → 0`, `3-4 → 1`,
/// `5-6 → 2`).
#[inline(always)]
fn family_index(mr_eff: usize) -> usize {
    (mr_eff - 1) / 2
}

#[inline(always)]
fn kernel_body<const NR: usize, const FMA: bool, const R: usize>(
    kc: usize,
    a: &[f32],
    b: &[f32],
    acc: &mut [[f32; NR]; MR],
) {
    for (ap, bp) in a.chunks_exact(MR).zip(b.chunks_exact(NR)).take(kc) {
        let ap: &[f32; MR] = ap.try_into().unwrap();
        let bp: &[f32; NR] = bp.try_into().unwrap();
        for r in 0..R {
            let av = ap[r];
            let row = &mut acc[r];
            for c in 0..NR {
                row[c] = if FMA {
                    av.mul_add(bp[c], row[c])
                } else {
                    av * bp[c] + row[c]
                };
            }
        }
    }
}

/// Safe fallback kernels; `unsafe fn` only to match [`MicroKernel`].
unsafe fn kernel_portable<const R: usize>(
    kc: usize,
    a: &[f32],
    b: &[f32],
    acc: &mut [[f32; 16]; MR],
) {
    kernel_body::<16, false, R>(kc, a, b, acc);
}

/// AVX2+FMA `R`x16 micro-kernel: `2R` ymm accumulators (R rows x 2
/// vectors), one broadcast per A element, `vfmadd231ps` throughout.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn kernel_avx2<const R: usize>(kc: usize, a: &[f32], b: &[f32], acc: &mut [[f32; 16]; MR]) {
    use core::arch::x86_64::*;
    debug_assert!(a.len() >= kc * MR && b.len() >= kc * 16);
    let mut regs = [[_mm256_setzero_ps(); 2]; R];
    let mut pa = a.as_ptr();
    let mut pb = b.as_ptr();
    for _ in 0..kc {
        let b0 = _mm256_loadu_ps(pb);
        let b1 = _mm256_loadu_ps(pb.add(8));
        for (r, row) in regs.iter_mut().enumerate() {
            let av = _mm256_set1_ps(*pa.add(r));
            row[0] = _mm256_fmadd_ps(av, b0, row[0]);
            row[1] = _mm256_fmadd_ps(av, b1, row[1]);
        }
        pa = pa.add(MR);
        pb = pb.add(16);
    }
    for (row, out) in regs.iter().zip(acc.iter_mut()) {
        _mm256_storeu_ps(out.as_mut_ptr(), row[0]);
        _mm256_storeu_ps(out.as_mut_ptr().add(8), row[1]);
    }
}

/// AVX-512 `R`x32 micro-kernel: `2R` zmm accumulators (R rows x 2
/// vectors).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn kernel_avx512<const R: usize>(
    kc: usize,
    a: &[f32],
    b: &[f32],
    acc: &mut [[f32; 32]; MR],
) {
    use core::arch::x86_64::*;
    debug_assert!(a.len() >= kc * MR && b.len() >= kc * 32);
    let mut regs = [[_mm512_setzero_ps(); 2]; R];
    let mut pa = a.as_ptr();
    let mut pb = b.as_ptr();
    for _ in 0..kc {
        let b0 = _mm512_loadu_ps(pb);
        let b1 = _mm512_loadu_ps(pb.add(16));
        for (r, row) in regs.iter_mut().enumerate() {
            let av = _mm512_set1_ps(*pa.add(r));
            row[0] = _mm512_fmadd_ps(av, b0, row[0]);
            row[1] = _mm512_fmadd_ps(av, b1, row[1]);
        }
        pa = pa.add(MR);
        pb = pb.add(32);
    }
    for (row, out) in regs.iter().zip(acc.iter_mut()) {
        _mm512_storeu_ps(out.as_mut_ptr(), row[0]);
        _mm512_storeu_ps(out.as_mut_ptr().add(16), row[1]);
    }
}

/// Packs the A slab rows `row0..row0+mc`, K levels `pc..pc+kc` into
/// `MR`-tall strips (strip-major, K-level-major inside a strip, zero
/// padded past the last row).
#[allow(clippy::too_many_arguments)]
fn pack_a(
    out: &mut [f32],
    a: &[f32],
    trans: bool,
    lda: usize,
    row0: usize,
    mc: usize,
    pc: usize,
    kc: usize,
) {
    for (s, dst) in out
        .chunks_exact_mut(kc * MR)
        .take(mc.div_ceil(MR))
        .enumerate()
    {
        let i0 = row0 + s * MR;
        let rows = MR.min(row0 + mc - i0);
        if trans {
            // A is stored [K, M]: one K level is a contiguous row.
            for p in 0..kc {
                let src = &a[(pc + p) * lda + i0..];
                let dst = &mut dst[p * MR..p * MR + MR];
                copy_short(&mut dst[..rows], &src[..rows]);
                zero_short(&mut dst[rows..]);
            }
        } else {
            // A is stored [M, K]: a row of op(A) is contiguous. Read each
            // row front to back and scatter into the (L1-resident) strip,
            // rather than gathering with an lda-sized stride per element.
            for r in 0..rows {
                let src = &a[(i0 + r) * lda + pc..][..kc];
                for (p, &v) in src.iter().enumerate() {
                    dst[p * MR + r] = v;
                }
            }
            for r in rows..MR {
                for p in 0..kc {
                    dst[p * MR + r] = 0.0;
                }
            }
        }
    }
}

/// Writes an accumulated tile into `c` (`ldc`-strided, `c` starts at this
/// thread's first row), blending with the previous contents per `beta`.
#[allow(clippy::too_many_arguments)]
fn store_tile<const NR: usize>(
    acc: &[[f32; NR]; MR],
    c: &mut [f32],
    ldc: usize,
    i0: usize,
    j0: usize,
    mr_eff: usize,
    nr_eff: usize,
    beta: f32,
) {
    for (r, acc_row) in acc.iter().enumerate().take(mr_eff) {
        let base = (i0 + r) * ldc + j0;
        let row = &mut c[base..base + nr_eff];
        if beta == 0.0 {
            copy_short(row, &acc_row[..nr_eff]);
        } else if beta == 1.0 {
            for (slot, &v) in row.iter_mut().zip(acc_row.iter()) {
                *slot += v;
            }
        } else {
            for (slot, &v) in row.iter_mut().zip(acc_row.iter()) {
                *slot = v + beta * *slot;
            }
        }
    }
}

/// Runs one packed B panel (`jc..jc+nc`, `pc..pc+kc`) against rows
/// `row0..row0+rows` of `C`: packs A one `mc` block at a time into `abuf`
/// and drives the micro-kernel over the tile grid.
///
/// `c_rows` is this worker's row chunk (`rows * ldc` elements, first row
/// `row0` of the full `C`).
#[allow(clippy::too_many_arguments)]
fn macro_kernel<const NR: usize>(
    kernels: KernelFamily<NR>,
    a: &[f32],
    trans_a: bool,
    lda: usize,
    row0: usize,
    rows: usize,
    (jc, nc): (usize, usize),
    (pc, kc): (usize, usize),
    bbuf: &[f32],
    abuf: &mut [f32],
    mc_max: usize,
    beta_cur: f32,
    c_rows: &mut [f32],
    ldc: usize,
) {
    let mut ic = 0;
    while ic < rows {
        let mc = mc_max.min(rows - ic);
        pack_a(abuf, a, trans_a, lda, row0 + ic, mc, pc, kc);
        for js in 0..nc.div_ceil(NR) {
            let j0 = js * NR;
            let nr_eff = NR.min(nc - j0);
            let b_strip = &bbuf[js * kc * NR..(js + 1) * kc * NR];
            for is in 0..mc.div_ceil(MR) {
                let i0 = is * MR;
                let mr_eff = MR.min(mc - i0);
                let a_strip = &abuf[is * kc * MR..(is + 1) * kc * MR];
                let mut acc = [[0.0f32; NR]; MR];
                let kernel = kernels[family_index(mr_eff)];
                // SAFETY: the dispatcher only selects kernel families
                // whose target features it has verified on this CPU (see
                // `dispatch`).
                unsafe { kernel(kc, a_strip, b_strip, &mut acc) };
                store_tile::<NR>(
                    &acc,
                    c_rows,
                    ldc,
                    ic + i0,
                    jc + j0,
                    mr_eff,
                    nr_eff,
                    beta_cur,
                );
            }
        }
        ic += mc;
    }
}

/// The blocked GEMM driver for one selected micro-kernel width.
///
/// Loop order is jc → pc → (parallel ic): each B panel is packed exactly
/// once by the calling thread (via `bsrc`) and shared read-only by every
/// row-chunk worker; each worker owns one pooled A buffer (`Mutex`-wrapped
/// only to satisfy the borrow checker — a worker locks its own buffer, so
/// there is never contention). All panels come from the thread-local pack
/// pool, so a steady-state caller performs no per-call allocation.
#[allow(clippy::too_many_arguments)]
fn run_gemm<const NR: usize>(
    kernels: KernelFamily<NR>,
    trans_a: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    bsrc: &dyn PackBPanel,
    beta: f32,
    c: &mut [f32],
    threads: usize,
    bl: Blocks,
) {
    use std::sync::Mutex;
    let lda = if trans_a { m } else { k };
    // A pool dedicated to packing panels (distinct from the public
    // thread-local pool) so higher-level kernels holding that pool can
    // call into GEMM freely, and panel sizes stay stable across calls.
    with_pack_scratch(|scratch| {
        let nc_max = bl.nc.min(n.div_ceil(NR) * NR);
        let mut bbuf = scratch.take(nc_max.div_ceil(NR) * NR * bl.kc);
        let rows_per_chunk = parallel::chunk_rows(m, threads);
        let abuf_len = bl.mc.div_ceil(MR) * MR * bl.kc;
        let abufs: Vec<Mutex<Vec<f32>>> = (0..m.div_ceil(rows_per_chunk))
            .map(|_| Mutex::new(scratch.take(abuf_len)))
            .collect();
        let mut jc = 0;
        while jc < n {
            let nc = bl.nc.min(n - jc);
            let mut pc = 0;
            while pc < k {
                let kc = bl.kc.min(k - pc);
                bsrc.pack_panel(&mut bbuf, NR, jc, nc, pc, kc);
                // First K slab applies the caller's beta; later slabs
                // accumulate onto the partial results.
                let beta_cur = if pc == 0 { beta } else { 1.0 };
                let (bbuf, abufs) = (&bbuf, &abufs);
                parallel::chunks_mut(c, n, Par::threads(threads), |row0, c_rows| {
                    let mut abuf = abufs[row0 / rows_per_chunk]
                        .lock()
                        .expect("gemm A-buffer lock");
                    macro_kernel::<NR>(
                        kernels,
                        a,
                        trans_a,
                        lda,
                        row0,
                        c_rows.len() / n,
                        (jc, nc),
                        (pc, kc),
                        bbuf,
                        &mut abuf,
                        bl.mc,
                        beta_cur,
                        c_rows,
                        n,
                    );
                });
                pc += kc;
            }
            jc += nc;
        }
        for abuf in abufs {
            scratch.put(abuf.into_inner().expect("gemm A-buffer lock"));
        }
        scratch.put(bbuf);
    });
}

fn with_pack_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    use std::cell::RefCell;
    thread_local! {
        static PACK: RefCell<Scratch> = RefCell::new(Scratch::new());
    }
    PACK.with(|s| f(&mut s.borrow_mut()))
}

fn scale_or_zero(c: &mut [f32], beta: f32) {
    if beta == 0.0 {
        c.fill(0.0);
    } else if beta != 1.0 {
        for v in c.iter_mut() {
            *v *= beta;
        }
    }
}

/// Selects the micro-kernel for this CPU and runs the blocked driver.
#[allow(clippy::too_many_arguments)]
fn dispatch(
    trans_a: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    bsrc: &dyn PackBPanel,
    beta: f32,
    c: &mut [f32],
    threads: usize,
    bl: Blocks,
) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        scale_or_zero(c, beta);
        return;
    }
    // Threads only pay off once the kernel has real work per row block.
    let threads = if 2 * m * n * k < 64 * 64 * 64 {
        1
    } else {
        threads
    };
    match detected_simd() {
        #[cfg(target_arch = "x86_64")]
        "avx512" => run_gemm::<32>(
            [kernel_avx512::<2>, kernel_avx512::<4>, kernel_avx512::<6>],
            trans_a,
            m,
            n,
            k,
            a,
            bsrc,
            beta,
            c,
            threads,
            bl,
        ),
        #[cfg(target_arch = "x86_64")]
        "avx2" => run_gemm::<16>(
            [kernel_avx2::<2>, kernel_avx2::<4>, kernel_avx2::<6>],
            trans_a,
            m,
            n,
            k,
            a,
            bsrc,
            beta,
            c,
            threads,
            bl,
        ),
        _ => run_gemm::<16>(
            [
                kernel_portable::<2>,
                kernel_portable::<4>,
                kernel_portable::<6>,
            ],
            trans_a,
            m,
            n,
            k,
            a,
            bsrc,
            beta,
            c,
            threads,
            bl,
        ),
    }
}

/// `C = op(A)·op(B) + beta·C` over row-major buffers, using the default
/// thread count.
///
/// `op(A)` is `[m, k]` (`A` itself is `[k, m]` when `trans_a`), `op(B)` is
/// `[k, n]`, and `C` is `[m, n]`.
///
/// # Panics
///
/// Panics if any buffer length disagrees with the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    trans_a: bool,
    trans_b: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    gemm_with_threads(
        trans_a,
        trans_b,
        m,
        n,
        k,
        a,
        b,
        beta,
        c,
        parallel::num_threads(),
    );
}

/// [`gemm`] with an explicit thread count (the property tests compare 1
/// and N threads; callers inside already-parallel regions pass 1).
#[allow(clippy::too_many_arguments)]
pub fn gemm_with_threads(
    trans_a: bool,
    trans_b: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
    threads: usize,
) {
    gemm_with_blocks(trans_a, trans_b, m, n, k, a, b, beta, c, threads, blocks());
}

/// [`gemm_with_threads`] with explicit blocking extents. This is the
/// advanced entry the blocking tests and autotuning experiments use;
/// everything else should let [`blocks`] pick.
#[allow(clippy::too_many_arguments)]
pub fn gemm_with_blocks(
    trans_a: bool,
    trans_b: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
    threads: usize,
    bl: Blocks,
) {
    assert_eq!(a.len(), m * k, "gemm: A length vs {m}x{k}");
    assert_eq!(b.len(), k * n, "gemm: B length vs {k}x{n}");
    assert_eq!(c.len(), m * n, "gemm: C length vs {m}x{n}");
    let ldb = if trans_b { k } else { n };
    let bsrc = SliceB {
        b,
        trans: trans_b,
        ldb,
    };
    dispatch(trans_a, m, n, k, a, &bsrc, beta, c, threads, bl);
}

/// `C = op(A)·op(B) + beta·C` where `op(B)` is a *virtual* `[k, n]`
/// matrix delivered panel-by-panel through a [`PackBPanel`]
/// implementation — nothing of `B` is ever materialized in full. This is
/// the entry point the batch-fused im2col convolution uses to pack column
/// panels straight from the input image.
///
/// # Panics
///
/// Panics if `a` or `c` length disagrees with the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm_custom_b(
    trans_a: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    bsrc: &dyn PackBPanel,
    beta: f32,
    c: &mut [f32],
    threads: usize,
) {
    assert_eq!(a.len(), m * k, "gemm: A length vs {m}x{k}");
    assert_eq!(c.len(), m * n, "gemm: C length vs {m}x{n}");
    dispatch(trans_a, m, n, k, a, bsrc, beta, c, threads, blocks());
}

/// The micro-kernel tier the dispatcher selects on this machine:
/// `"avx512"`, `"avx2"`, or `"portable"`. The dispatcher itself matches on
/// this value, so diagnostics (e.g. `perf_report`'s JSON header) can never
/// drift from what actually ran.
pub fn detected_simd() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return "avx512";
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return "avx2";
        }
    }
    "portable"
}

/// `C = A·B + beta·C` with `A: [m, k]`, `B: [k, n]`.
pub fn gemm_nn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], beta: f32, c: &mut [f32]) {
    gemm(false, false, m, n, k, a, b, beta, c);
}

/// `C = A·Bᵀ + beta·C` with `A: [m, k]`, `B: [n, k]` — no transpose is
/// materialized; packing reads `B` column-wise.
pub fn gemm_nt(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], beta: f32, c: &mut [f32]) {
    gemm(false, true, m, n, k, a, b, beta, c);
}

/// `C = Aᵀ·B + beta·C` with `A: [k, m]`, `B: [k, n]` — no transpose is
/// materialized; packing reads `A` column-wise.
pub fn gemm_tn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], beta: f32, c: &mut [f32]) {
    gemm(true, false, m, n, k, a, b, beta, c);
}

/// Reference kernels retained for cross-checking and perf baselines.
pub mod reference {
    /// Textbook ijk triple loop (dot-product form). The property tests
    /// compare the blocked GEMM against this.
    pub fn matmul_naive(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    /// The seed repository's matmul (ikj loop order with a flat
    /// accumulator row and a zero-skip) — kept verbatim as the perf
    /// baseline that `perf_report` measures speedups against.
    pub fn matmul_ikj(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let row_out = &mut out[i * n..(i + 1) * n];
            for p in 0..k {
                let av = a[i * k + p];
                if av == 0.0 {
                    continue;
                }
                let row_b = &b[p * n..(p + 1) * n];
                for (o, &bv) in row_out.iter_mut().zip(row_b.iter()) {
                    *o += av * bv;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg32;

    fn filled(len: usize, seed: u64) -> Vec<f32> {
        let mut v = vec![0.0f32; len];
        Pcg32::seed(seed).fill_normal(&mut v);
        v
    }

    fn assert_close(got: &[f32], want: &[f32], tag: &str) {
        assert_eq!(got.len(), want.len(), "{tag}: length");
        for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            assert!(
                (g - w).abs() <= 1e-4 * (1.0 + w.abs()),
                "{tag}[{i}]: {g} vs {w}"
            );
        }
    }

    #[test]
    fn matches_naive_across_sizes_and_threads() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (5, 7, 3),
            (6, 16, 256),
            (7, 17, 9),
            (33, 31, 65),
            (97, 130, 40),
        ] {
            let a = filled(m * k, 1 + m as u64);
            let b = filled(k * n, 2 + n as u64);
            let want = reference::matmul_naive(m, n, k, &a, &b);
            for threads in [1, 4] {
                let mut c = vec![0.0f32; m * n];
                gemm_with_threads(false, false, m, n, k, &a, &b, 0.0, &mut c, threads);
                assert_close(&c, &want, &format!("nn {m}x{n}x{k} t{threads}"));
            }
        }
    }

    #[test]
    fn transpose_variants_match_explicit_transpose() {
        let (m, n, k) = (13, 21, 17);
        let a = filled(m * k, 3);
        let b = filled(k * n, 4);
        let want = reference::matmul_naive(m, n, k, &a, &b);

        // A stored transposed: [k, m].
        let mut at = vec![0.0f32; m * k];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        let mut c = vec![0.0f32; m * n];
        gemm_tn(m, n, k, &at, &b, 0.0, &mut c);
        assert_close(&c, &want, "tn");

        // B stored transposed: [n, k].
        let mut bt = vec![0.0f32; k * n];
        for p in 0..k {
            for j in 0..n {
                bt[j * k + p] = b[p * n + j];
            }
        }
        let mut c = vec![0.0f32; m * n];
        gemm_nt(m, n, k, &a, &bt, 0.0, &mut c);
        assert_close(&c, &want, "nt");
    }

    #[test]
    fn multi_slab_and_multi_panel_blocking() {
        // Tiny explicit blocks force multiple K slabs (pc > 0
        // accumulation), multiple B panels (the jc loop), and multiple A
        // blocks (the ic loop) even at test-sized shapes — paths the
        // auto-derived extents would never reach here.
        let bl = Blocks {
            mc: 12,
            kc: 16,
            nc: 64,
        };
        for &(m, n, k) in &[(13, 40, 60), (7, 210, 12), (37, 206, 30)] {
            let a = filled(m * k, 40 + m as u64);
            let b = filled(k * n, 41 + n as u64);
            let want = reference::matmul_naive(m, n, k, &a, &b);
            for threads in [1, 3] {
                let mut c = vec![0.0f32; m * n];
                gemm_with_blocks(false, false, m, n, k, &a, &b, 0.0, &mut c, threads, bl);
                assert_close(&c, &want, &format!("blocking {m}x{n}x{k} t{threads}"));
            }
            // beta = 1 must still accumulate correctly across K slabs.
            let base = filled(m * n, 42);
            let mut c = base.clone();
            gemm_with_blocks(false, false, m, n, k, &a, &b, 1.0, &mut c, 1, bl);
            let want_acc: Vec<f32> = want.iter().zip(&base).map(|(p, c0)| p + c0).collect();
            assert_close(&c, &want_acc, &format!("blocking beta=1 {m}x{n}x{k}"));
        }
    }

    #[test]
    fn custom_b_source_matches_slice_gemm() {
        // A virtual B that computes elements on demand must produce
        // bit-identical results to the slice path over the same values:
        // the packed panels are equal, so the micro-kernel sees the same
        // inputs in the same order.
        struct VirtualB {
            n: usize,
        }
        impl VirtualB {
            fn at(&self, p: usize, j: usize) -> f32 {
                ((p * self.n + j) as f32 * 0.37).sin()
            }
        }
        impl PackBPanel for VirtualB {
            fn pack_panel(
                &self,
                dst: &mut [f32],
                nr: usize,
                col0: usize,
                nc: usize,
                pc: usize,
                kc: usize,
            ) {
                for (s, strip) in dst
                    .chunks_exact_mut(kc * nr)
                    .take(nc.div_ceil(nr))
                    .enumerate()
                {
                    let j0 = col0 + s * nr;
                    let cols = nr.min(col0 + nc - j0);
                    for p in 0..kc {
                        for c in 0..nr {
                            strip[p * nr + c] = if c < cols {
                                self.at(pc + p, j0 + c)
                            } else {
                                0.0
                            };
                        }
                    }
                }
            }
        }
        let (m, n, k) = (9, 77, 23);
        let a = filled(m * k, 50);
        let vb = VirtualB { n };
        let mut b = vec![0.0f32; k * n];
        for p in 0..k {
            for j in 0..n {
                b[p * n + j] = vb.at(p, j);
            }
        }
        let mut want = vec![0.0f32; m * n];
        gemm_nn(m, n, k, &a, &b, 0.0, &mut want);
        let mut got = vec![0.0f32; m * n];
        gemm_custom_b(false, m, n, k, &a, &vb, 0.0, &mut got, 1);
        assert_eq!(got, want, "virtual B must be bit-identical to slice B");
    }

    #[test]
    fn beta_accumulates() {
        let (m, n, k) = (9, 11, 7);
        let a = filled(m * k, 5);
        let b = filled(k * n, 6);
        let base = filled(m * n, 7);
        let want: Vec<f32> = reference::matmul_naive(m, n, k, &a, &b)
            .iter()
            .zip(base.iter())
            .map(|(p, c0)| p + c0)
            .collect();
        let mut c = base;
        gemm_nn(m, n, k, &a, &b, 1.0, &mut c);
        assert_close(&c, &want, "beta=1");
    }

    #[test]
    fn k_zero_respects_beta() {
        let mut c = vec![2.0f32; 6];
        gemm_nn(2, 3, 0, &[], &[], 0.0, &mut c);
        assert!(c.iter().all(|&v| v == 0.0));
        let mut c = vec![2.0f32; 6];
        gemm_nn(2, 3, 0, &[], &[], 1.0, &mut c);
        assert!(c.iter().all(|&v| v == 2.0));
    }

    #[test]
    fn blocks_are_sane() {
        let bl = blocks();
        assert!(bl.mc >= MR && bl.mc.is_multiple_of(MR), "mc {}", bl.mc);
        assert!((128..=768).contains(&bl.kc), "kc {}", bl.kc);
        assert!(bl.nc >= 16, "nc {}", bl.nc);
    }

    #[test]
    fn blocks_spec_parses() {
        assert_eq!(
            parse_blocks_spec("96, 256,2048"),
            Some(Blocks {
                mc: 96,
                kc: 256,
                nc: 2048
            })
        );
        assert_eq!(parse_blocks_spec(""), None);
        assert_eq!(parse_blocks_spec("96,256"), None);
        assert_eq!(parse_blocks_spec("96,0,2048"), None);
        assert_eq!(parse_blocks_spec("96,256,2048,1"), None);
    }

    #[test]
    fn cache_size_strings_parse() {
        assert_eq!(parse_cache_size("48K"), Some(48 * 1024));
        assert_eq!(parse_cache_size(" 2048K\n"), Some(2048 * 1024));
        assert_eq!(parse_cache_size("36M"), Some(36 * 1024 * 1024));
        assert_eq!(parse_cache_size("123"), Some(123));
        assert_eq!(parse_cache_size("big"), None);
    }

    #[test]
    fn ikj_reference_matches_naive() {
        let (m, n, k) = (8, 9, 10);
        let a = filled(m * k, 8);
        let b = filled(k * n, 9);
        assert_close(
            &reference::matmul_ikj(m, n, k, &a, &b),
            &reference::matmul_naive(m, n, k, &a, &b),
            "ikj",
        );
    }
}
