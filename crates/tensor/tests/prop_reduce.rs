//! Property tests pinning the deterministic blocked reduction kernels
//! against straightforward serial `f64` references.
//!
//! The kernels' documented spec (four interleaved lanes per block,
//! fixed-order tree combine over blocks) is reimplemented here the slow,
//! obvious way; the fast kernels must match it **bitwise** for every
//! input and every thread count, and must stay within float tolerance of
//! a plain serial fold.

use proptest::prelude::*;
use yf_tensor::parallel::Par;
use yf_tensor::reduce::{self, BLOCK};

/// The spec, written naively: per-block four-lane sums, tree-combined.
fn spec_reduce(xs: &[f32], term: impl Fn(f64) -> f64) -> f64 {
    let sums: Vec<f64> = xs
        .chunks(BLOCK)
        .map(|c| {
            let mut l = [0.0f64; 4];
            for (i, &x) in c.iter().enumerate() {
                l[i % 4] += term(f64::from(x));
            }
            (l[0] + l[1]) + (l[2] + l[3])
        })
        .collect();
    reduce::tree_reduce(&sums)
}

fn grads(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-100.0f32..100.0, 0..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sumsq_matches_spec_bitwise(xs in grads(3000)) {
        let spec = spec_reduce(&xs, |x| x * x);
        prop_assert_eq!(reduce::sumsq(&xs).to_bits(), spec.to_bits());
    }

    #[test]
    fn sumsq_close_to_serial_fold(xs in grads(3000)) {
        let serial: f64 = xs.iter().map(|&x| f64::from(x) * f64::from(x)).sum();
        let tol = 1e-9 * serial.max(1.0);
        prop_assert!((reduce::sumsq(&xs) - serial).abs() <= tol);
    }

    /// Block-aligned sharding invariance: the per-block partial sums of
    /// any block-aligned split concatenate into the whole-vector block
    /// sums, so a sharded norm equals the whole-vector norm bitwise.
    #[test]
    fn block_aligned_shards_concatenate(xs in grads(6000), cut_blocks in 0usize..6) {
        let cut = (cut_blocks * BLOCK).min(xs.len());
        let whole = reduce::block_sumsq(&xs);
        let mut stitched = reduce::block_sumsq(&xs[..cut]);
        stitched.extend(reduce::block_sumsq(&xs[cut..]));
        prop_assert_eq!(&whole, &stitched);
        prop_assert_eq!(
            reduce::sumsq(&xs).to_bits(),
            reduce::tree_reduce(&stitched).to_bits()
        );
    }

    /// The fused EMA/variance sweep is bitwise thread-count invariant and
    /// matches a serial per-element reference of the same spec.
    #[test]
    fn ema_update_stats_matches_reference(
        xs in grads(3000),
        beta in 0.0f64..0.999,
        scale in 0.1f64..1.0,
        threads in 1usize..6,
    ) {
        let n = xs.len();
        // Reference: serial elementwise EMA updates + spec variance sum.
        let mut r1 = vec![0.0f64; n];
        let mut r2 = vec![0.0f64; n];
        let corr = 1.0 - beta;
        for ((b1, b2), &g) in r1.iter_mut().zip(r2.iter_mut()).zip(&xs) {
            let x = scale * f64::from(g);
            *b1 = beta * *b1 + (1.0 - beta) * x;
            *b2 = beta * *b2 + (1.0 - beta) * x * x;
        }
        let ref_var = {
            let sums: Vec<f64> = r1
                .chunks(BLOCK)
                .zip(r2.chunks(BLOCK))
                .map(|(c1, c2)| {
                    let mut l = [0.0f64; 4];
                    for (i, (&m1, &m2)) in c1.iter().zip(c2).enumerate() {
                        let d1 = m1 / corr;
                        let d2 = m2 / corr;
                        l[i % 4] += (d2 - d1 * d1).max(0.0);
                    }
                    (l[0] + l[1]) + (l[2] + l[3])
                })
                .collect();
            reduce::tree_reduce(&sums)
        };

        let mut b1 = vec![0.0f64; n];
        let mut b2 = vec![0.0f64; n];
        let total =
            reduce::ema_update_stats_parallel(&mut b1, &mut b2, &xs, beta, scale, corr, Par::threads(threads));
        prop_assert_eq!(&b1, &r1, "first moments (threads = {})", threads);
        prop_assert_eq!(&b2, &r2, "second moments (threads = {})", threads);
        prop_assert_eq!(total.to_bits(), ref_var.to_bits());
        prop_assert_eq!(
            reduce::variance_total(&b1, &b2, corr).to_bits(),
            ref_var.to_bits()
        );
    }
}
