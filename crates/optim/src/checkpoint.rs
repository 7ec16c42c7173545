//! Generic optimizer-state checkpointing.
//!
//! The fleet grid runner (and any long-running training job) must be able
//! to snapshot an optimizer mid-run and restore it bit-exactly in a fresh
//! process. Each optimizer serializes its *mutable* run state — the
//! learning rate (schedules mutate it), step counters, and the
//! per-coordinate buffers stitched flat via
//! [`crate::ShardedState::flatten`] — into a small versioned text block;
//! construction-time configuration (betas, epsilons, Nesterov flag) is
//! included so a restore can cross-check it was loaded into a compatible
//! instance.
//!
//! The format is the same human-readable `key value` / hex-bits scheme
//! the `yellowfin` crate uses for its tuner checkpoints: floats travel as
//! bit patterns written by [`yf_tensor::hex`] (8 or 16 digits each,
//! comma-joined for vectors), so save → load round-trips are bitwise
//! exact and a resumed trajectory is indistinguishable from an
//! uninterrupted one. Reads are as strict as the codec: a float field
//! with a sign or the wrong number of digits is an [`OptStateError`].

use std::fmt::{self, Write as _};
use yf_tensor::hex;

/// Error from [`crate::Optimizer::restore_checkpoint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptStateError {
    message: String,
}

impl OptStateError {
    /// Wraps a human-readable description.
    pub fn new(message: impl Into<String>) -> Self {
        OptStateError {
            message: message.into(),
        }
    }
}

impl fmt::Display for OptStateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid optimizer checkpoint: {}", self.message)
    }
}

impl std::error::Error for OptStateError {}

/// Format version written into every optimizer checkpoint.
pub const OPT_STATE_VERSION: u32 = 1;

/// Serializes `key value` lines with bit-exact float encoding.
pub struct StateWriter {
    out: String,
}

impl StateWriter {
    /// Starts a checkpoint for optimizer `kind` (the value
    /// [`StateReader::new`] will demand back).
    pub fn new(kind: &str) -> Self {
        let mut w = StateWriter { out: String::new() };
        w.field("kind", kind);
        w.field("version", OPT_STATE_VERSION);
        w
    }

    /// Writes one `key value` line.
    pub fn field(&mut self, key: &str, value: impl fmt::Display) {
        let _ = writeln!(self.key(key), "{value}");
    }

    /// Starts the line of `key`, returning the output for its value.
    fn key(&mut self, key: &str) -> &mut String {
        self.out.push_str(key);
        self.out.push(' ');
        &mut self.out
    }

    /// f32 with bit-exact round-trip (hex bits).
    pub fn f32_field(&mut self, key: &str, value: f32) {
        hex::push_f32(self.key(key), value);
        self.out.push('\n');
    }

    /// f64 with bit-exact round-trip (hex bits).
    pub fn f64_field(&mut self, key: &str, value: f64) {
        hex::push_f64(self.key(key), value);
        self.out.push('\n');
    }

    /// A (possibly empty) f32 vector as comma-joined hex bits.
    pub fn f32_slice(&mut self, key: &str, values: &[f32]) {
        hex::push_f32_row(self.key(key), values);
        self.out.push('\n');
    }

    /// The finished checkpoint text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Parses [`StateWriter`] output back, with typed errors for missing or
/// malformed fields.
#[derive(Debug)]
pub struct StateReader<'a> {
    lines: std::collections::HashMap<&'a str, &'a str>,
}

impl<'a> StateReader<'a> {
    /// Parses `text`, demanding `kind` and a supported version.
    pub fn new(text: &'a str, kind: &str) -> Result<Self, OptStateError> {
        let mut lines = std::collections::HashMap::new();
        for line in text.lines() {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            // A key with an empty value (e.g. an empty vector) has no space.
            let (key, value) = line.split_once(' ').unwrap_or((line, ""));
            lines.insert(key, value);
        }
        let reader = StateReader { lines };
        let got = reader.raw("kind")?;
        if got != kind {
            return Err(OptStateError::new(format!(
                "checkpoint is for optimizer kind {got:?}, not {kind:?}"
            )));
        }
        let version: u32 = reader.parse("version")?;
        if version != OPT_STATE_VERSION {
            return Err(OptStateError::new(format!(
                "unsupported version {version} (expected {OPT_STATE_VERSION})"
            )));
        }
        Ok(reader)
    }

    /// The raw value of `key`.
    pub fn raw(&self, key: &str) -> Result<&'a str, OptStateError> {
        self.lines
            .get(key)
            .copied()
            .ok_or_else(|| OptStateError::new(format!("missing field {key}")))
    }

    /// Parses `key` with `FromStr`.
    pub fn parse<T: std::str::FromStr>(&self, key: &str) -> Result<T, OptStateError> {
        self.raw(key)?
            .parse::<T>()
            .map_err(|_| OptStateError::new(format!("unparseable field {key}")))
    }

    /// Bit-exact f32.
    pub fn f32(&self, key: &str) -> Result<f32, OptStateError> {
        hex::f32_unhex(self.raw(key)?)
            .map_err(|_| OptStateError::new(format!("bad f32 bits in {key}")))
    }

    /// Bit-exact f64.
    pub fn f64(&self, key: &str) -> Result<f64, OptStateError> {
        hex::f64_unhex(self.raw(key)?)
            .map_err(|_| OptStateError::new(format!("bad f64 bits in {key}")))
    }

    /// Bit-exact f32 vector (empty value → empty vector).
    pub fn f32_vec(&self, key: &str) -> Result<Vec<f32>, OptStateError> {
        hex::f32_unrow(self.raw(key)?)
            .map_err(|_| OptStateError::new(format!("bad f32 list in {key}")))
    }

    /// An optional dimension: `none` or a count.
    pub fn dim(&self, key: &str) -> Result<Option<usize>, OptStateError> {
        match self.raw(key)? {
            "none" => Ok(None),
            d => d
                .parse()
                .map(Some)
                .map_err(|_| OptStateError::new(format!("bad dim in {key}"))),
        }
    }
}

/// Writes an optional dimension (the lazily-bound parameter count every
/// optimizer tracks).
pub fn write_dim(w: &mut StateWriter, key: &str, dim: Option<usize>) {
    match dim {
        Some(d) => w.field(key, d),
        None => w.field(key, "none"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_fields_bit_exactly() {
        let mut w = StateWriter::new("test");
        w.f32_field("lr", 0.1);
        w.f64_field("beta", 0.999);
        w.f32_slice("buf", &[1.5, -2.25, f32::MIN_POSITIVE]);
        w.f32_slice("empty", &[]);
        w.field("t", 42u64);
        write_dim(&mut w, "dim", Some(7));
        write_dim(&mut w, "nodim", None);
        let text = w.finish();

        let r = StateReader::new(&text, "test").expect("valid");
        assert_eq!(r.f32("lr").unwrap().to_bits(), 0.1f32.to_bits());
        assert_eq!(r.f64("beta").unwrap().to_bits(), 0.999f64.to_bits());
        assert_eq!(
            r.f32_vec("buf").unwrap(),
            vec![1.5, -2.25, f32::MIN_POSITIVE]
        );
        assert!(r.f32_vec("empty").unwrap().is_empty());
        assert_eq!(r.parse::<u64>("t").unwrap(), 42);
        assert_eq!(r.dim("dim").unwrap(), Some(7));
        assert_eq!(r.dim("nodim").unwrap(), None);
    }

    #[test]
    fn rejects_wrong_kind_version_and_garbage() {
        let text = StateWriter::new("sgd").finish();
        let err = StateReader::new(&text, "adam").unwrap_err();
        assert!(err.to_string().contains("kind"));
        let bumped = text.replace("version 1", "version 99");
        assert!(StateReader::new(&bumped, "sgd").is_err());
        assert!(StateReader::new("", "sgd").is_err());
        let r = StateReader::new(&text, "sgd").unwrap();
        assert!(r.raw("absent").is_err());
        assert!(r.f32("kind").is_err(), "non-hex bits must be rejected");
        // Floats are exactly 8 or 16 hex digits: no sign, no short form.
        let text = "kind sgd\nversion 1\nlr 3dc\nsigned +3dccccc\nbeta 3fefffffffffff\n\
                    list 3dc,+1\nplus 3dcccccd,+3dccccc\nupper 3DCCCCCD\n";
        let r = StateReader::new(text, "sgd").unwrap();
        assert!(r.f32("lr").is_err());
        assert!(r.f32("signed").is_err());
        assert!(r.f64("beta").is_err());
        assert!(r.f32_vec("list").is_err());
        assert!(r.f32_vec("plus").is_err());
        assert_eq!(r.f32("upper").unwrap(), 0.1);
    }
}
