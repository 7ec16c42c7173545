//! Deterministic blocked reductions for the measurement pipeline.
//!
//! The tuner's oracles (curvature range, gradient variance, distance to
//! the optimum) are global reductions over the flat gradient. To let the
//! measure phase run sharded *and* stay bitwise identical for every shard
//! count, every reduction here is defined over fixed-size [`BLOCK`]
//! windows of the flat vector, independent of how the work is split:
//!
//! 1. within a block, elements are accumulated into four interleaved
//!    `f64` lanes (lane `j` takes elements `j`, `j + 4`, ...), combined
//!    as `(l0 + l1) + (l2 + l3)` — fixed structure, SIMD/ILP friendly;
//! 2. the per-block sums are folded by [`tree_reduce`], a fixed-order
//!    pairwise tree.
//!
//! A shard whose offset is a multiple of [`BLOCK`] therefore produces
//! exactly the per-block sums the whole-vector pass would, so partial
//! results from any block-aligned shard plan concatenate into the same
//! sequence and reduce to the same bits. The sharded optimizer drivers in
//! `yf-optim` align their observe partitions on this contract.
//!
//! Every block body walks its block in whole 4-element groups, one
//! constant lane index per element of a group, with the ragged tail
//! continuing lanes `0..rem` (`lane_sum`). Keep it that way: a
//! per-element lane index such as `l[i % 4] += ..` computes the same
//! sum, but LLVM then keeps the lanes in memory, so every iteration
//! reloads what the one before it stored, and the variance sweep ran
//! ~1.4x slower that way. With constant lane indices the lanes stay in
//! vector registers and the sweep is bound by the `f64` divider. The
//! grouped form changes no bit: lane `j` still adds elements `j`,
//! `j + 4`, ... in order, and each element's expression is untouched.

use crate::parallel::{self, Par};

/// Elements per reduction block. Shard offsets feeding the blocked
/// kernels must be multiples of this.
pub const BLOCK: usize = 1024;

/// Number of [`BLOCK`]-sized blocks covering `len` elements.
pub fn blocks_for(len: usize) -> usize {
    len.div_ceil(BLOCK)
}

/// The four-lane sum of one block: lane `j` adds the terms of elements
/// `j`, `j + 4`, ... in order and the lanes combine as
/// `(l0 + l1) + (l2 + l3)`. `groups` yields the terms of each whole
/// 4-element group, `tail` those of the ragged end, which continue lanes
/// `0..rem`. Walking whole groups with constant lane indices lets the
/// compiler keep the four lanes in vector registers (see the module doc).
#[inline(always)]
fn lane_sum(groups: impl Iterator<Item = [f64; 4]>, tail: impl Iterator<Item = f64>) -> f64 {
    let mut l = [0.0f64; 4];
    for t in groups {
        l[0] += t[0];
        l[1] += t[1];
        l[2] += t[2];
        l[3] += t[3];
    }
    for (j, t) in tail.enumerate() {
        l[j] += t;
    }
    (l[0] + l[1]) + (l[2] + l[3])
}

/// Σ x² over one block (≤ [`BLOCK`] elements), four-lane accumulated.
#[inline]
fn sumsq_block(xs: &[f32]) -> f64 {
    let sq = |x: f32| f64::from(x) * f64::from(x);
    let (x4, xt) = xs.as_chunks::<4>();
    lane_sum(x4.iter().map(|g| g.map(sq)), xt.iter().map(|&x| sq(x)))
}

/// Per-block Σ x² partial sums of `xs`, in block order. `xs` must start
/// on a block boundary of the enclosing flat vector for the partials to
/// line up with the whole-vector reduction.
pub fn block_sumsq(xs: &[f32]) -> Vec<f64> {
    xs.chunks(BLOCK).map(sumsq_block).collect()
}

/// Fixed-order pairwise reduction of a sum sequence: deterministic for a
/// given length, with O(log n) rounding depth instead of a serial fold's
/// O(n). Returns 0.0 for an empty slice.
pub fn tree_reduce(vals: &[f64]) -> f64 {
    match vals.len() {
        0 => 0.0,
        1 => vals[0],
        2 => vals[0] + vals[1],
        n => {
            let mid = n.div_ceil(2);
            tree_reduce(&vals[..mid]) + tree_reduce(&vals[mid..])
        }
    }
}

/// Deterministic Σ x² of a whole slice: per-block four-lane sums folded
/// by [`tree_reduce`]. Equals the concatenation-and-reduce of any
/// block-aligned sharding of `xs`.
pub fn sumsq(xs: &[f32]) -> f64 {
    if xs.len() <= BLOCK {
        return sumsq_block(xs);
    }
    tree_reduce(&block_sumsq(xs))
}

fn check_stats_lens(b1: &[f64], b2: &[f64], xs: &[f32], var_blocks: &[f64]) {
    assert_eq!(b1.len(), xs.len(), "ema stats: first-moment length");
    assert_eq!(b2.len(), xs.len(), "ema stats: second-moment length");
    assert_eq!(
        var_blocks.len(),
        blocks_for(xs.len()),
        "ema stats: block-sum length"
    );
}

/// The fused measurement kernel: one sweep over a (block-aligned) slice
/// that updates the biased first/second gradient moments
///
/// ```text
/// b1 = β b1 + (1 − β) s·x        b2 = β b2 + (1 − β) (s·x)²
/// ```
///
/// and writes the per-block debiased variance partial sums
/// `Σ max(0, b2/c − (b1/c)²)` into `var_blocks` (four-lane accumulated,
/// like every block kernel here). `corr` is the zero-debias divisor
/// *after* this update; `scale` folds a global gradient scale (clipping)
/// into the sweep so no scaled copy is ever materialized.
///
/// # Panics
///
/// Panics if the slice lengths disagree or `var_blocks` does not have
/// one slot per block of `xs`.
pub fn ema_update_stats(
    b1: &mut [f64],
    b2: &mut [f64],
    xs: &[f32],
    beta: f64,
    scale: f64,
    corr: f64,
    var_blocks: &mut [f64],
) {
    check_stats_lens(b1, b2, xs, var_blocks);
    let w = 1.0 - beta;
    let step = |g: f32, m1: &mut f64, m2: &mut f64| {
        let x = scale * f64::from(g);
        *m1 = beta * *m1 + w * x;
        *m2 = beta * *m2 + w * x * x;
        variance_term(*m1, *m2, corr)
    };
    let blocks = xs
        .chunks(BLOCK)
        .zip(b1.chunks_mut(BLOCK))
        .zip(b2.chunks_mut(BLOCK));
    for (((cx, c1), c2), v) in blocks.zip(var_blocks) {
        let (x4, xt) = cx.as_chunks::<4>();
        let (m14, m1t) = c1.as_chunks_mut::<4>();
        let (m24, m2t) = c2.as_chunks_mut::<4>();
        *v = lane_sum(
            x4.iter()
                .zip(m14)
                .zip(m24)
                .map(|((g, m1), m2)| std::array::from_fn(|j| step(g[j], &mut m1[j], &mut m2[j]))),
            xt.iter()
                .zip(m1t)
                .zip(m2t)
                .map(|((&g, m1), m2)| step(g, m1, m2)),
        );
    }
}

/// One coordinate's debiased variance `max(0, m2/c − (m1/c)²)`.
#[inline(always)]
fn variance_term(m1: f64, m2: f64, corr: f64) -> f64 {
    let d1 = m1 / corr;
    let d2 = m2 / corr;
    (d2 - d1 * d1).max(0.0)
}

/// The read-only half of [`ema_update_stats`]: recomputes the per-block
/// variance partial sums from existing moments (bitwise identical to what
/// the fused sweep produced for the same `b1`/`b2`/`corr`). Used to
/// rebuild the cached variance total after a checkpoint restore.
pub fn variance_blocks(b1: &[f64], b2: &[f64], corr: f64, var_blocks: &mut [f64]) {
    assert_eq!(b1.len(), b2.len(), "variance blocks: length mismatch");
    assert_eq!(
        var_blocks.len(),
        blocks_for(b1.len()),
        "variance blocks: block-sum length"
    );
    for ((c1, c2), v) in b1.chunks(BLOCK).zip(b2.chunks(BLOCK)).zip(var_blocks) {
        let ((m14, m1t), (m24, m2t)) = (c1.as_chunks::<4>(), c2.as_chunks::<4>());
        *v = lane_sum(
            m14.iter()
                .zip(m24)
                .map(|(m1, m2)| std::array::from_fn(|j| variance_term(m1[j], m2[j], corr))),
            m1t.iter()
                .zip(m2t)
                .map(|(&m1, &m2)| variance_term(m1, m2, corr)),
        );
    }
}

/// Parallel driver for [`ema_update_stats`]: splits the sweep into
/// block-aligned chunks per the [`Par`] budget, fans them out on the
/// persistent worker pool, and returns the tree-combined variance total.
/// Bitwise identical for every `par` value — chunk boundaries land on
/// block boundaries, each block's sum is computed by exactly one lane,
/// and the final combine is the fixed [`tree_reduce`] over all blocks in
/// order.
pub fn ema_update_stats_parallel(
    b1: &mut [f64],
    b2: &mut [f64],
    xs: &[f32],
    beta: f64,
    scale: f64,
    corr: f64,
    par: Par,
) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    let nblocks = blocks_for(n);
    let mut var_blocks = vec![0.0f64; nblocks];
    let chunks = par.budget().clamp(1, nblocks);
    if chunks <= 1 {
        ema_update_stats(b1, b2, xs, beta, scale, corr, &mut var_blocks);
        return tree_reduce(&var_blocks);
    }
    let blocks_per = nblocks.div_ceil(chunks);
    {
        type Chunk<'s> = (&'s mut [f64], &'s mut [f64], &'s mut [f64], &'s [f32]);
        let mut slots: Vec<std::sync::Mutex<Option<Chunk<'_>>>> = Vec::with_capacity(chunks);
        let (mut r1, mut r2, mut rv) = (&mut *b1, &mut *b2, &mut var_blocks[..]);
        let mut off = 0;
        while !rv.is_empty() {
            let take_blocks = blocks_per.min(rv.len());
            let take = (take_blocks * BLOCK).min(n - off);
            let (c1, t1) = r1.split_at_mut(take);
            let (c2, t2) = r2.split_at_mut(take);
            let (cv, tv) = rv.split_at_mut(take_blocks);
            let cx = &xs[off..off + take];
            off += take;
            (r1, r2, rv) = (t1, t2, tv);
            slots.push(std::sync::Mutex::new(Some((c1, c2, cv, cx))));
        }
        parallel::Pool::global().run(slots.len(), |i| {
            let (c1, c2, cv, cx) = slots[i]
                .lock()
                .expect("ema sweep chunk slot")
                .take()
                .expect("ema sweep chunk claimed twice");
            ema_update_stats(c1, c2, cx, beta, scale, corr, cv);
        });
    }
    tree_reduce(&var_blocks)
}

/// Deterministic variance total from existing moments (the combine of
/// [`variance_blocks`]); the restore-time counterpart of
/// [`ema_update_stats_parallel`]'s return value.
pub fn variance_total(b1: &[f64], b2: &[f64], corr: f64) -> f64 {
    if b1.is_empty() {
        return 0.0;
    }
    let mut var_blocks = vec![0.0f64; blocks_for(b1.len())];
    variance_blocks(b1, b2, corr, &mut var_blocks);
    tree_reduce(&var_blocks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane_reference_sumsq(xs: &[f32]) -> f64 {
        // The documented spec, written the slow way: per block, four
        // interleaved lanes combined (l0+l1)+(l2+l3), blocks tree-folded.
        let sums: Vec<f64> = xs
            .chunks(BLOCK)
            .map(|c| {
                let mut l = [0.0f64; 4];
                for (i, &x) in c.iter().enumerate() {
                    l[i % 4] += f64::from(x) * f64::from(x);
                }
                (l[0] + l[1]) + (l[2] + l[3])
            })
            .collect();
        tree_reduce(&sums)
    }

    #[test]
    fn sumsq_matches_lane_reference_bitwise() {
        let xs: Vec<f32> = (0..5000)
            .map(|i| ((i * 37) % 113) as f32 * 0.21 - 9.0)
            .collect();
        for len in [0, 1, 3, 4, 7, BLOCK - 1, BLOCK, BLOCK + 5, 5000] {
            let s = sumsq(&xs[..len]);
            assert_eq!(s.to_bits(), lane_reference_sumsq(&xs[..len]).to_bits());
        }
    }

    #[test]
    fn sumsq_close_to_serial() {
        let xs: Vec<f32> = (0..3000).map(|i| (i as f32 * 0.7).sin()).collect();
        let serial: f64 = xs.iter().map(|&x| f64::from(x) * f64::from(x)).sum();
        assert!((sumsq(&xs) - serial).abs() < 1e-9 * serial.max(1.0));
    }

    #[test]
    fn block_aligned_split_concatenates() {
        let xs: Vec<f32> = (0..(3 * BLOCK + 17))
            .map(|i| (i as f32 * 0.3).cos())
            .collect();
        let whole = block_sumsq(&xs);
        let mut stitched = block_sumsq(&xs[..2 * BLOCK]);
        stitched.extend(block_sumsq(&xs[2 * BLOCK..]));
        assert_eq!(whole, stitched, "block-aligned shards must agree");
        assert_eq!(sumsq(&xs).to_bits(), tree_reduce(&stitched).to_bits());
    }

    #[test]
    fn tree_reduce_is_permutation_sensitive_but_fixed() {
        let vals = [1e16, 1.0, -1e16, 1.0];
        // Same input, same result, every time.
        assert_eq!(tree_reduce(&vals).to_bits(), tree_reduce(&vals).to_bits());
        assert_eq!(tree_reduce(&[]), 0.0);
        assert_eq!(tree_reduce(&[5.0]), 5.0);
    }

    /// Lengths around the lane and block edges, for the sweep tests.
    const EDGE_LENS: [usize; 6] = [1, 3, 5, BLOCK - 1, BLOCK + 3, 3 * BLOCK + 7];
    const BETA: f64 = 0.9;
    /// The clip scale of each of five consecutive sweeps.
    const SCALES: [f64; 5] = [1.0, 0.5, 0.37, 1.0, 2.5];

    /// Sweep `t`'s gradient: ordinary values, with every eleventh
    /// coordinate (shifted per sweep) one of the edge values.
    fn edge_grads(len: usize, t: usize) -> Vec<f32> {
        let specials = [
            0.0,
            -0.0,
            f32::from_bits(1), // the smallest f32 subnormal
            f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        (0..len)
            .map(|i| match (i + 5 * t) % 11 {
                0 => specials[(i / 11 + t) % specials.len()],
                _ => ((i * 37 + t * 13) % 101) as f32 * 0.07 - 3.5,
            })
            .collect()
    }

    /// Moments of a tuner a few steps in, so no sweep starts from zero.
    fn start_moments(len: usize) -> (Vec<f64>, Vec<f64>) {
        let m1 = (0..len).map(|i| (i % 7) as f64 * 0.125 - 0.375).collect();
        let m2 = (0..len).map(|i| (i % 5) as f64 * 0.25).collect();
        (m1, m2)
    }

    /// One sweep written out per element: the documented moment updates
    /// and variance term, added into lane `i % 4` of the element's block,
    /// lanes combined `(l0 + l1) + (l2 + l3)`. Returns the block sums.
    fn reference_sweep(
        b1: &mut [f64],
        b2: &mut [f64],
        xs: &[f32],
        scale: f64,
        corr: f64,
    ) -> Vec<f64> {
        let w = 1.0 - BETA;
        let mut lanes = vec![[0.0f64; 4]; blocks_for(xs.len())];
        for (i, &g) in xs.iter().enumerate() {
            let x = scale * f64::from(g);
            b1[i] = BETA * b1[i] + w * x;
            b2[i] = BETA * b2[i] + w * x * x;
            let d1 = b1[i] / corr;
            let d2 = b2[i] / corr;
            lanes[i / BLOCK][i % BLOCK % 4] += (d2 - d1 * d1).max(0.0);
        }
        lanes
            .iter()
            .map(|l| (l[0] + l[1]) + (l[2] + l[3]))
            .collect()
    }

    /// Bitwise equality, except that any NaN matches any NaN: Rust leaves
    /// NaN payloads unspecified.
    fn assert_bits(what: &str, got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let same = if w.is_nan() {
                g.is_nan()
            } else {
                g.to_bits() == w.to_bits()
            };
            assert!(same, "{what}[{i}]: {g:e} against the reference {w:e}");
        }
    }

    /// Five sweeps from non-zero moments, along the real debias sequence
    /// (`corr` is the divisor after each update), with a scale that
    /// changes between sweeps and gradients holding ±0, a subnormal,
    /// `f32::MAX`, ±inf and NaN: every chunk count matches the
    /// per-element reference in moments and total, bit for bit.
    #[test]
    fn ema_update_stats_parallel_is_thread_invariant() {
        for len in EDGE_LENS {
            for chunks in [1, 2, 3, 8] {
                let (mut r1, mut r2) = start_moments(len);
                let (mut b1, mut b2) = (r1.clone(), r2.clone());
                let mut corr = 1.0 - BETA.powi(3);
                for (t, scale) in SCALES.into_iter().enumerate() {
                    corr = BETA * corr + (1.0 - BETA);
                    let xs = edge_grads(len, t);
                    let want = tree_reduce(&reference_sweep(&mut r1, &mut r2, &xs, scale, corr));
                    let par = Par::threads(chunks);
                    let got =
                        ema_update_stats_parallel(&mut b1, &mut b2, &xs, BETA, scale, corr, par);
                    let at = format!("len {len}, {chunks} chunks, sweep {t}");
                    assert_bits(&format!("{at}: first moments"), &b1, &r1);
                    assert_bits(&format!("{at}: second moments"), &b2, &r2);
                    assert_bits(&format!("{at}: variance total"), &[got], &[want]);
                }
            }
        }
    }

    /// The same five sweeps through the whole-vector kernel: its block
    /// sums match the per-element reference after every sweep, and
    /// `variance_blocks`/`variance_total` recompute them from the moments
    /// bit for bit.
    #[test]
    fn variance_blocks_matches_fused_sweep() {
        for len in EDGE_LENS {
            let (mut r1, mut r2) = start_moments(len);
            let (mut b1, mut b2) = (r1.clone(), r2.clone());
            let mut corr = 1.0 - BETA.powi(3);
            for (t, scale) in SCALES.into_iter().enumerate() {
                corr = BETA * corr + (1.0 - BETA);
                let xs = edge_grads(len, t);
                let want = reference_sweep(&mut r1, &mut r2, &xs, scale, corr);
                let mut fused = vec![0.0f64; blocks_for(len)];
                ema_update_stats(&mut b1, &mut b2, &xs, BETA, scale, corr, &mut fused);
                let at = format!("len {len}, sweep {t}");
                assert_bits(&format!("{at}: first moments"), &b1, &r1);
                assert_bits(&format!("{at}: second moments"), &b2, &r2);
                assert_bits(&format!("{at}: fused block sums"), &fused, &want);
                let mut recomputed = vec![0.0f64; blocks_for(len)];
                variance_blocks(&b1, &b2, corr, &mut recomputed);
                assert_bits(&format!("{at}: recomputed block sums"), &recomputed, &want);
                assert_bits(
                    &format!("{at}: variance total"),
                    &[variance_total(&b1, &b2, corr)],
                    &[tree_reduce(&want)],
                );
            }
        }
    }

    #[test]
    fn scaled_sweep_matches_prescaled_input() {
        // scale folded into the sweep == mathematically scaling in f64
        // before the sweep (not merely approximately: same expression).
        let xs = [1.5f32, -2.0, 0.25, 8.0, -0.125];
        let scaled_xs: Vec<f32> = xs.iter().map(|&x| 0.5 * x).collect();
        let mut a1 = vec![0.0f64; xs.len()];
        let mut a2 = vec![0.0f64; xs.len()];
        let mut b1 = vec![0.0f64; xs.len()];
        let mut b2 = vec![0.0f64; xs.len()];
        let mut va = vec![0.0f64; 1];
        let mut vb = vec![0.0f64; 1];
        ema_update_stats(&mut a1, &mut a2, &xs, 0.9, 0.5, 0.1, &mut va);
        // 0.5 is exact in f32 and f64, so the two paths agree bitwise.
        ema_update_stats(&mut b1, &mut b2, &scaled_xs, 0.9, 1.0, 0.1, &mut vb);
        assert_eq!(a1, b1);
        assert_eq!(a2, b2);
        assert_eq!(va, vb);
    }
}
