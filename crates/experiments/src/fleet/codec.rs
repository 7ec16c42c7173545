//! Bit-exact serialization of training checkpoints and run results.
//!
//! Floats are written as raw bit patterns via [`yf_tensor::hex`] (the
//! same codec as the optimizer state checkpoints) so a result computed
//! in a worker process and merged by the coordinator is bitwise
//! identical to one computed in-process.

use crate::trainer::{RunResult, TrainCheckpoint};
use std::fmt;
use yf_tensor::hex::{f32_hex, f32_row, f32_unhex, f32_unrow, metric_row, metric_unrow, HexError};

/// Error decoding a checkpoint or result payload.
#[derive(Debug, Clone, PartialEq)]
pub struct CodecError(String);

impl CodecError {
    fn new(msg: impl Into<String>) -> CodecError {
        CodecError(msg.into())
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fleet payload: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

impl From<HexError> for CodecError {
    fn from(e: HexError) -> CodecError {
        CodecError(e.to_string())
    }
}

/// Line-oriented `key value` reader over a fixed header.
struct Fields<'a> {
    lines: std::str::Lines<'a>,
}

impl<'a> Fields<'a> {
    fn new(text: &'a str, header: &str) -> Result<Fields<'a>, CodecError> {
        let mut lines = text.lines();
        match lines.next() {
            Some(h) if h == header => Ok(Fields { lines }),
            Some(h) => Err(CodecError::new(format!(
                "expected header {header:?}, found {h:?}"
            ))),
            None => Err(CodecError::new("empty payload")),
        }
    }

    fn field(&mut self, key: &str) -> Result<&'a str, CodecError> {
        let line = self
            .lines
            .next()
            .ok_or_else(|| CodecError::new(format!("truncated before field {key:?}")))?;
        match line.split_once(' ') {
            Some((k, v)) if k == key => Ok(v),
            _ => Err(CodecError::new(format!(
                "expected field {key:?}, found line {line:?}"
            ))),
        }
    }

    /// The remaining lines (for embedded multi-line blocks), normalized
    /// to end with a newline — matching what the encoder wrote.
    fn rest(self) -> String {
        let mut out = String::new();
        for line in self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

const CKPT_HEADER: &str = "yf-fleet-checkpoint v1";
const RESULT_HEADER: &str = "yf-fleet-result v1";

/// Serializes a [`TrainCheckpoint`] bit-exactly.
pub fn encode_checkpoint(ckpt: &TrainCheckpoint) -> String {
    let mut out = String::new();
    out.push_str(CKPT_HEADER);
    out.push('\n');
    out.push_str(&format!("step {}\n", ckpt.step));
    out.push_str(&format!("base_lr {}\n", f32_hex(ckpt.base_lr)));
    out.push_str(&format!("params {}\n", f32_row(&ckpt.params)));
    out.push_str(&format!("losses {}\n", f32_row(&ckpt.losses)));
    out.push_str(&format!("metrics {}\n", metric_row(&ckpt.metrics)));
    out.push_str("opt_state\n");
    out.push_str(&ckpt.opt_state);
    if !ckpt.opt_state.ends_with('\n') {
        out.push('\n');
    }
    out
}

/// Parses [`encode_checkpoint`] output.
///
/// # Errors
///
/// [`CodecError`] on any structural or bit-pattern mismatch.
pub fn decode_checkpoint(text: &str) -> Result<TrainCheckpoint, CodecError> {
    let mut f = Fields::new(text, CKPT_HEADER)?;
    let step = f
        .field("step")?
        .parse()
        .map_err(|_| CodecError::new("bad step"))?;
    let base_lr = f32_unhex(f.field("base_lr")?)?;
    let params = f32_unrow(f.field("params")?)?;
    let losses = f32_unrow(f.field("losses")?)?;
    let metrics = metric_unrow(f.field("metrics")?)?;
    // "opt_state" is a bare marker line; everything after it is the
    // embedded multi-line optimizer state.
    match f.lines.next() {
        Some("opt_state") => {}
        Some(line) => {
            return Err(CodecError::new(format!(
                "expected opt_state marker, found {line:?}"
            )))
        }
        None => return Err(CodecError::new("truncated before opt_state")),
    }
    let opt_state = f.rest();
    if opt_state.is_empty() {
        return Err(CodecError::new("empty opt_state block"));
    }
    Ok(TrainCheckpoint {
        step,
        base_lr,
        params,
        losses,
        metrics,
        opt_state,
    })
}

/// Serializes a [`RunResult`] bit-exactly.
pub fn encode_result(result: &RunResult) -> String {
    let mut out = String::new();
    out.push_str(RESULT_HEADER);
    out.push('\n');
    out.push_str(&format!("losses {}\n", f32_row(&result.losses)));
    out.push_str(&format!("metrics {}\n", metric_row(&result.metrics)));
    out.push_str(&format!("final_params {}\n", f32_row(&result.final_params)));
    out
}

/// Parses [`encode_result`] output.
///
/// # Errors
///
/// [`CodecError`] on any structural or bit-pattern mismatch.
pub fn decode_result(text: &str) -> Result<RunResult, CodecError> {
    let mut f = Fields::new(text, RESULT_HEADER)?;
    let losses = f32_unrow(f.field("losses")?)?;
    let metrics = metric_unrow(f.field("metrics")?)?;
    let final_params = f32_unrow(f.field("final_params")?)?;
    Ok(RunResult {
        losses,
        metrics,
        final_params,
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
