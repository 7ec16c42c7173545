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

use crate::parallel::{self, Par};

/// Elements per reduction block. Shard offsets feeding the blocked
/// kernels must be multiples of this.
pub const BLOCK: usize = 1024;

/// Number of [`BLOCK`]-sized blocks covering `len` elements.
pub fn blocks_for(len: usize) -> usize {
    len.div_ceil(BLOCK)
}

#[inline]
fn lanes_fold(xs: &[f32], mut lane: impl FnMut(usize, f64)) {
    let mut it = xs.chunks_exact(4);
    for c in it.by_ref() {
        lane(0, f64::from(c[0]));
        lane(1, f64::from(c[1]));
        lane(2, f64::from(c[2]));
        lane(3, f64::from(c[3]));
    }
    for (j, &x) in it.remainder().iter().enumerate() {
        lane(j, f64::from(x));
    }
}

/// Σ x² over one block (≤ [`BLOCK`] elements), four-lane accumulated.
#[inline]
fn sumsq_block(xs: &[f32]) -> f64 {
    let mut l = [0.0f64; 4];
    lanes_fold(xs, |j, x| l[j] += x * x);
    (l[0] + l[1]) + (l[2] + l[3])
}

/// Σ aᵢ·bᵢ over one block, four-lane accumulated.
#[inline]
fn dot_block(a: &[f32], b: &[f32]) -> f64 {
    let mut l = [0.0f64; 4];
    let mut it = a.chunks_exact(4).zip(b.chunks_exact(4));
    let mut n = 0;
    for (ca, cb) in it.by_ref() {
        l[0] += f64::from(ca[0]) * f64::from(cb[0]);
        l[1] += f64::from(ca[1]) * f64::from(cb[1]);
        l[2] += f64::from(ca[2]) * f64::from(cb[2]);
        l[3] += f64::from(ca[3]) * f64::from(cb[3]);
        n += 4;
    }
    for (j, (&x, &y)) in a[n..].iter().zip(&b[n..]).enumerate() {
        l[j] += f64::from(x) * f64::from(y);
    }
    (l[0] + l[1]) + (l[2] + l[3])
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

/// Deterministic Σ aᵢ·bᵢ with the same block structure as [`sumsq`].
///
/// # Panics
///
/// Panics on length mismatch.
pub fn dot(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    if a.len() <= BLOCK {
        return dot_block(a, b);
    }
    let sums: Vec<f64> = a
        .chunks(BLOCK)
        .zip(b.chunks(BLOCK))
        .map(|(ca, cb)| dot_block(ca, cb))
        .collect();
    tree_reduce(&sums)
}

/// Deterministic Σ xᵢ/denom over an `f64` slice with the standard block
/// structure (four lanes per block, tree combine) — the debiased-sum
/// kernel behind `VecEma::sum_debiased` in the tuner crate.
pub fn sum_div(xs: &[f64], denom: f64) -> f64 {
    let block = |c: &[f64]| {
        let mut l = [0.0f64; 4];
        let mut it = c.chunks_exact(4);
        for q in it.by_ref() {
            l[0] += q[0] / denom;
            l[1] += q[1] / denom;
            l[2] += q[2] / denom;
            l[3] += q[3] / denom;
        }
        for (j, &x) in it.remainder().iter().enumerate() {
            l[j] += x / denom;
        }
        (l[0] + l[1]) + (l[2] + l[3])
    };
    if xs.len() <= BLOCK {
        return block(xs);
    }
    let sums: Vec<f64> = xs.chunks(BLOCK).map(block).collect();
    tree_reduce(&sums)
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
    for (bi, ((cx, c1), c2)) in xs
        .chunks(BLOCK)
        .zip(b1.chunks_mut(BLOCK))
        .zip(b2.chunks_mut(BLOCK))
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
    for (bi, (c1, c2)) in b1.chunks(BLOCK).zip(b2.chunks(BLOCK)).enumerate() {
        let mut l = [0.0f64; 4];
        for (j, (&m1, &m2)) in c1.iter().zip(c2.iter()).enumerate() {
            let d1 = m1 / corr;
            let d2 = m2 / corr;
            l[j % 4] += (d2 - d1 * d1).max(0.0);
        }
        var_blocks[bi] = (l[0] + l[1]) + (l[2] + l[3]);
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
    fn dot_matches_sumsq_on_self() {
        let xs: Vec<f32> = (0..2500).map(|i| (i as f32 * 0.11).sin()).collect();
        assert_eq!(dot(&xs, &xs).to_bits(), sumsq(&xs).to_bits());
    }

    #[test]
    fn tree_reduce_is_permutation_sensitive_but_fixed() {
        let vals = [1e16, 1.0, -1e16, 1.0];
        // Same input, same result, every time.
        assert_eq!(tree_reduce(&vals).to_bits(), tree_reduce(&vals).to_bits());
        assert_eq!(tree_reduce(&[]), 0.0);
        assert_eq!(tree_reduce(&[5.0]), 5.0);
    }

    #[test]
    fn ema_update_stats_parallel_is_thread_invariant() {
        let n = 3 * BLOCK + 100;
        let xs: Vec<f32> = (0..n).map(|i| (i as f32 * 0.013).sin() * 2.0).collect();
        let run = |threads: usize| {
            let par = Par::threads(threads);
            let mut b1 = vec![0.0f64; n];
            let mut b2 = vec![0.0f64; n];
            let mut totals = Vec::new();
            let mut corr = 0.0;
            for _ in 0..3 {
                corr = 0.9 * corr + 0.1;
                totals.push(ema_update_stats_parallel(
                    &mut b1, &mut b2, &xs, 0.9, 1.0, corr, par,
                ));
            }
            (b1, b2, totals)
        };
        let base = run(1);
        for threads in [2, 3, 8] {
            let got = run(threads);
            assert_eq!(base.0, got.0, "threads = {threads}: first moments");
            assert_eq!(base.1, got.1, "threads = {threads}: second moments");
            assert_eq!(base.2, got.2, "threads = {threads}: variance totals");
        }
    }

    #[test]
    fn variance_blocks_matches_fused_sweep() {
        let n = 2 * BLOCK + 9;
        let xs: Vec<f32> = (0..n).map(|i| ((i * 7) % 23) as f32 - 11.0).collect();
        let mut b1 = vec![0.0f64; n];
        let mut b2 = vec![0.0f64; n];
        let mut fused = vec![0.0f64; blocks_for(n)];
        let corr = 0.1;
        ema_update_stats(&mut b1, &mut b2, &xs, 0.9, 1.0, corr, &mut fused);
        let mut recomputed = vec![0.0f64; blocks_for(n)];
        variance_blocks(&b1, &b2, corr, &mut recomputed);
        assert_eq!(fused, recomputed);
        assert_eq!(
            tree_reduce(&fused).to_bits(),
            variance_total(&b1, &b2, corr).to_bits()
        );
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
