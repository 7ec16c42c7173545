//! Property tests for the blocked GEMM: every layout variant must match
//! the naive triple loop, single- and multi-threaded.

use proptest::prelude::*;
use yf_tensor::gemm::{self, reference};
use yf_tensor::rng::Pcg32;
use yf_tensor::Tensor;

fn buf(len: usize, seed: u64) -> Vec<f32> {
    let mut v = vec![0.0f32; len];
    Pcg32::seed(seed).fill_normal(&mut v);
    v
}

fn close(got: &[f32], want: &[f32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("length {} vs {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if (g - w).abs() > 1e-4 * (1.0 + w.abs()) {
            return Err(format!("index {i}: {g} vs {w}"));
        }
    }
    Ok(())
}

fn transposed(m: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut t = vec![0.0f32; m.len()];
    for r in 0..rows {
        for c in 0..cols {
            t[c * rows + r] = m[r * cols + c];
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gemm_matches_naive_at_1_and_n_threads(
        m in 1usize..48, n in 1usize..48, k in 1usize..96, s in any::<u64>()
    ) {
        let a = buf(m * k, s);
        let b = buf(k * n, s.wrapping_add(1));
        let want = reference::matmul_naive(m, n, k, &a, &b);
        for threads in [1, 4] {
            let mut c = vec![0.0f32; m * n];
            gemm::gemm_with_threads(false, false, m, n, k, &a, &b, 0.0, &mut c, threads);
            prop_assert!(close(&c, &want).is_ok(),
                "nn {m}x{n}x{k} threads={threads}: {:?}", close(&c, &want));
        }
    }

    #[test]
    fn fused_transpose_variants_match_naive(
        m in 1usize..32, n in 1usize..32, k in 1usize..64, s in any::<u64>()
    ) {
        let a = buf(m * k, s);
        let b = buf(k * n, s.wrapping_add(7));
        let want = reference::matmul_naive(m, n, k, &a, &b);

        let at = transposed(&a, m, k); // stored [k, m]
        let bt = transposed(&b, k, n); // stored [n, k]
        for threads in [1, 4] {
            let mut c = vec![0.0f32; m * n];
            gemm::gemm_with_threads(true, false, m, n, k, &at, &b, 0.0, &mut c, threads);
            prop_assert!(close(&c, &want).is_ok(), "tn {m}x{n}x{k} t{threads}");

            let mut c = vec![0.0f32; m * n];
            gemm::gemm_with_threads(false, true, m, n, k, &a, &bt, 0.0, &mut c, threads);
            prop_assert!(close(&c, &want).is_ok(), "nt {m}x{n}x{k} t{threads}");

            let mut c = vec![0.0f32; m * n];
            gemm::gemm_with_threads(true, true, m, n, k, &at, &bt, 0.0, &mut c, threads);
            prop_assert!(close(&c, &want).is_ok(), "tt {m}x{n}x{k} t{threads}");
        }
    }

    #[test]
    fn transposed_layouts_equal_nn_on_transposed_copies_bitwise(
        m in 1usize..40, n in 1usize..80, k in 1usize..70, s in any::<u64>()
    ) {
        // GEMM bits depend only on the packed panels, the kc slab
        // boundaries and the FMA chain, so every layout must give the nn
        // call's bits. Small blocks make several K slabs, A blocks and B
        // panels; nc = 40 leaves a ragged strip inside a panel, n below the
        // micro-tile width a ragged strip alone, and kc = 18 ragged level
        // groups inside every slab.
        let bl = gemm::Blocks { mc: 12, kc: 18, nc: 40 };
        let a = buf(m * k, s);
        let b = buf(k * n, s.wrapping_add(11));
        let at = transposed(&a, m, k); // stored [k, m]
        let bt = transposed(&b, k, n); // stored [n, k]
        let mut want = vec![0.0f32; m * n];
        gemm::gemm_with_blocks(false, false, m, n, k, &a, &b, 0.0, &mut want, 1, bl);
        for (ta, tb) in [(true, false), (false, true), (true, true)] {
            let ao = if ta { &at } else { &a };
            let bo = if tb { &bt } else { &b };
            for threads in [1, 3] {
                let mut c = vec![0.0f32; m * n];
                gemm::gemm_with_blocks(ta, tb, m, n, k, ao, bo, 0.0, &mut c, threads, bl);
                prop_assert!(
                    c.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "ta={ta} tb={tb} {m}x{n}x{k} t{threads}"
                );
            }
        }
    }

    #[test]
    fn beta_one_accumulates(
        m in 1usize..24, n in 1usize..24, k in 1usize..32, s in any::<u64>()
    ) {
        let a = buf(m * k, s);
        let b = buf(k * n, s.wrapping_add(3));
        let c0 = buf(m * n, s.wrapping_add(5));
        let want: Vec<f32> = reference::matmul_naive(m, n, k, &a, &b)
            .iter().zip(&c0).map(|(p, base)| p + base).collect();
        let mut c = c0;
        gemm::gemm_nn(m, n, k, &a, &b, 1.0, &mut c);
        prop_assert!(close(&c, &want).is_ok(), "beta=1 {m}x{n}x{k}");
    }

    #[test]
    fn tensor_matmul_nt_tn_match_matmul(
        m in 1usize..16, n in 1usize..16, k in 1usize..24, s in any::<u64>()
    ) {
        let mut rng = Pcg32::seed(s);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let want = a.matmul(&b);
        let nt = a.matmul_nt(&b.transpose());
        let tn = a.transpose().matmul_tn(&b);
        prop_assert!(close(nt.data(), want.data()).is_ok(), "nt {m}x{n}x{k}");
        prop_assert!(close(tn.data(), want.data()).is_ok(), "tn {m}x{n}x{k}");
    }
}
