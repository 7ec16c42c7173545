//! Bit-exact serialization of training checkpoints and run results.
//!
//! Both are ordered files of the workspace's one state codec,
//! [`yf_optim::checkpoint`]: a header line, then fields in a fixed
//! order, with floats as [`yf_tensor::hex`] bit patterns, so a result
//! computed in a worker process and merged by the coordinator is bitwise
//! identical to one computed in-process. A checkpoint ends with a bare
//! `opt_state` marker and the optimizer's own checkpoint block.

use crate::trainer::{RunResult, TrainCheckpoint};
use yf_optim::checkpoint::{Fields, OptStateError, StateWriter};
use yf_tensor::hex::{metric_row, metric_unrow};

const CKPT_HEADER: &str = "yf-fleet-checkpoint v1";
const RESULT_HEADER: &str = "yf-fleet-result v1";

/// Serializes a [`TrainCheckpoint`] bit-exactly.
pub fn encode_checkpoint(ckpt: &TrainCheckpoint) -> String {
    let mut w = StateWriter::header(CKPT_HEADER);
    w.field("step", ckpt.step);
    w.f32_field("base_lr", ckpt.base_lr);
    w.f32_slice("params", &ckpt.params);
    w.f32_slice("losses", &ckpt.losses);
    w.field("metrics", metric_row(&ckpt.metrics));
    w.marker("opt_state");
    w.text(&ckpt.opt_state);
    w.finish()
}

/// Parses [`encode_checkpoint`] output.
///
/// # Errors
///
/// [`OptStateError`] on any structural or bit-pattern mismatch.
pub fn decode_checkpoint(text: &str) -> Result<TrainCheckpoint, OptStateError> {
    let mut f = Fields::new(text, CKPT_HEADER)?;
    let step = f.parse("step")?;
    let base_lr = f.f32("base_lr")?;
    let params = f.f32_vec("params")?;
    let losses = f.f32_vec("losses")?;
    let metrics = metric_unrow(f.field("metrics")?)?;
    f.marker("opt_state")?;
    Ok(TrainCheckpoint {
        step,
        base_lr,
        params,
        losses,
        metrics,
        opt_state: f.rest()?,
    })
}

/// Serializes a [`RunResult`] bit-exactly.
pub fn encode_result(result: &RunResult) -> String {
    let mut w = StateWriter::header(RESULT_HEADER);
    w.f32_slice("losses", &result.losses);
    w.field("metrics", metric_row(&result.metrics));
    w.f32_slice("final_params", &result.final_params);
    w.finish()
}

/// Parses [`encode_result`] output.
///
/// # Errors
///
/// [`OptStateError`] on any structural or bit-pattern mismatch.
pub fn decode_result(text: &str) -> Result<RunResult, OptStateError> {
    let mut f = Fields::new(text, RESULT_HEADER)?;
    Ok(RunResult {
        losses: f.f32_vec("losses")?,
        metrics: metric_unrow(f.field("metrics")?)?,
        final_params: f.f32_vec("final_params")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_round_trips_bit_exactly() {
        let ckpt = TrainCheckpoint {
            step: 40,
            base_lr: 0.1,
            params: vec![1.0, -2.5e-8, f32::MIN_POSITIVE, 3.0e30],
            losses: vec![0.5, 0.25],
            metrics: vec![(25, 0.875), (50, 0.9375)],
            opt_state: "kind momentum-sgd\nversion 1\nlr 3dcccccd\n".to_string(),
        };
        let text = encode_checkpoint(&ckpt);
        assert_eq!(decode_checkpoint(&text).unwrap(), ckpt);
    }

    #[test]
    fn result_round_trips_bit_exactly() {
        let r = RunResult {
            losses: vec![2.0, 1.5, 1.25],
            metrics: vec![(2, 0.5)],
            final_params: vec![0.125, -0.0625],
        };
        let text = encode_result(&r);
        let back = decode_result(&text).unwrap();
        assert_eq!(back.losses, r.losses);
        assert_eq!(back.metrics, r.metrics);
        assert_eq!(back.final_params, r.final_params);
    }

    #[test]
    fn truncated_payloads_are_rejected() {
        let ckpt = TrainCheckpoint {
            step: 1,
            base_lr: 0.1,
            params: vec![1.0],
            losses: vec![0.5],
            metrics: vec![],
            opt_state: "kind sgd\nversion 1\n".to_string(),
        };
        let text = encode_checkpoint(&ckpt);
        // Cuts in the structured field region are rejected here; cuts
        // inside the free-form opt_state tail are caught one layer down,
        // by the checksum seal (fsio::read_sealed), not the codec.
        let fields_end = text.find("opt_state").unwrap();
        for cut in [10, fields_end / 2, fields_end] {
            assert!(
                decode_checkpoint(&text[..cut]).is_err(),
                "cut at {cut} must be rejected"
            );
        }
        assert!(decode_result("yf-fleet-result v1\nlosses zz\n").is_err());
        assert!(decode_result("wrong header\n").is_err());
    }

    /// Format-freeze pin: a checkpoint whose optimizer block comes from
    /// `StateWriter` (adam), and a run result, with NaN, -0, inf and a
    /// subnormal among the parameters. Sealed fleet files resume across
    /// builds only while these bytes stay the same.
    #[test]
    fn checkpoint_and_result_bytes_are_frozen() {
        use super::super::fsio::fnv1a;
        use yf_optim::{Adam, Optimizer};
        use yf_tensor::rng::Pcg32;

        let mut rng = Pcg32::seed(64);
        let mut opt = Adam::new(0.01);
        let mut params: Vec<f32> = (0..64).map(|_| rng.normal()).collect();
        let mut losses = Vec::new();
        for _ in 0..10 {
            let grads: Vec<f32> = (0..64).map(|_| rng.normal()).collect();
            opt.step(&mut params, &grads);
            losses.push(rng.uniform());
        }
        params.extend([f32::NAN, -0.0, f32::INFINITY, f32::from_bits(1)]);
        let metrics = vec![(5, 0.5), (10, f64::from(rng.uniform()))];
        let ckpt = TrainCheckpoint {
            step: 10,
            base_lr: 0.01,
            params: params.clone(),
            losses: losses.clone(),
            metrics: metrics.clone(),
            opt_state: opt.checkpoint_state().unwrap(),
        };
        let result = RunResult {
            losses,
            metrics,
            final_params: params,
        };
        let (ckpt, result) = (encode_checkpoint(&ckpt), encode_result(&result));
        assert_eq!(
            (ckpt.len(), fnv1a(ckpt.as_bytes())),
            (2064, 0x84a3_901e_e3f4_19e5)
        );
        assert_eq!(
            (result.len(), fnv1a(result.as_bytes())),
            (788, 0xdc9e_e69d_404f_4f74)
        );
    }
}
