//! The one state codec: every optimizer checkpoint, tuner block, session
//! snapshot and fleet file in the workspace is written and read here.
//!
//! The fleet grid runner, the tuner server and any long-running training
//! job must be able to snapshot state mid-run and restore it bit-exactly
//! in a fresh process. All of that state is text in one dialect: one
//! `key value` field per line, with floats as bit patterns written by
//! [`yf_tensor::hex`] (8 or 16 digits each, comma-joined for vectors), so
//! save → load round-trips are bitwise exact and a resumed trajectory is
//! indistinguishable from an uninterrupted one. [`StateWriter`] writes
//! both layouts of that dialect:
//!
//! - A **keyed block** ([`StateWriter::new`], [`StateWriter::versioned`])
//!   holds one optimizer's or tuner's run state: a `kind` line for the
//!   baselines, a `version` line, then fields. [`StateReader`] looks them
//!   up by key, in any order, and ignores keys it does not know, so a
//!   whole `YellowFin` block also restores as either of its halves.
//! - An **ordered file** ([`StateWriter::header`]) is a session snapshot,
//!   a fleet checkpoint or result, or a remote tuner's checkpoint: a
//!   header line, then fields in a fixed order, line-counted blocks
//!   (`key N` and `N` lines), a bare marker line, and a trailing block to
//!   the end of the text. [`Fields`] reads it in that order and refuses
//!   any line that is not the one expected.
//!
//! Every reader returns [`OptStateError`]. Reads are as strict as the
//! float codec, and stricter than a constructor: a value that parses but
//! that a constructor would refuse (a zero window, a β outside `[0, 1)`,
//! a `dim` that disagrees with a buffer) is an error too, so restoring
//! untrusted text never panics.

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::str::FromStr;
use yf_tensor::hex::{self, HexError};

/// Error reading a state block or file.
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
        write!(f, "invalid state: {}", self.message)
    }
}

impl std::error::Error for OptStateError {}

impl From<HexError> for OptStateError {
    fn from(e: HexError) -> Self {
        OptStateError::new(e.to_string())
    }
}

/// Format version written into every keyed block.
pub const OPT_STATE_VERSION: u32 = 1;

/// Writes state text: `key value` lines with bit-exact float encoding.
pub struct StateWriter {
    out: String,
}

impl StateWriter {
    /// Starts the keyed block of optimizer `kind` (the value
    /// [`StateReader::new`] will demand back).
    pub fn new(kind: &str) -> Self {
        let mut w = StateWriter { out: String::new() };
        w.field("kind", kind);
        w.field("version", OPT_STATE_VERSION);
        w
    }

    /// Starts a keyed block with a `version` line and no `kind` (the
    /// tuner's blocks; read back by [`StateReader::versioned`]).
    pub fn versioned() -> Self {
        let mut w = StateWriter { out: String::new() };
        w.field("version", OPT_STATE_VERSION);
        w
    }

    /// Starts an ordered file with its `header` line (read back by
    /// [`Fields::new`]).
    pub fn header(header: &str) -> Self {
        let mut w = StateWriter { out: String::new() };
        w.marker(header);
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

    /// An optional f64: its hex bits, or `none`.
    pub fn opt_f64_field(&mut self, key: &str, value: Option<f64>) {
        match value {
            Some(v) => self.f64_field(key, v),
            None => self.field(key, "none"),
        }
    }

    /// A (possibly empty) f32 vector as comma-joined hex bits.
    pub fn f32_slice(&mut self, key: &str, values: &[f32]) {
        hex::push_f32_row(self.key(key), values);
        self.out.push('\n');
    }

    /// A (possibly empty) f64 vector as comma-joined hex bits.
    pub fn f64_slice(&mut self, key: &str, values: &[f64]) {
        hex::push_f64_row(self.key(key), values);
        self.out.push('\n');
    }

    /// An optional dimension (the lazily-bound parameter count every
    /// optimizer tracks): the count, or `none`.
    pub fn dim(&mut self, key: &str, dim: Option<usize>) {
        match dim {
            Some(d) => self.field(key, d),
            None => self.field(key, "none"),
        }
    }

    /// A bare line holding only `marker`.
    pub fn marker(&mut self, marker: &str) {
        self.out.push_str(marker);
        self.out.push('\n');
    }

    /// `key <line count>` and the block, or `key -` for `None`
    /// (read back by [`Fields::block`]).
    pub fn counted(&mut self, key: &str, block: Option<&str>) {
        match block {
            None => self.field(key, "-"),
            Some(text) => {
                self.field(key, text.lines().count());
                self.text(text);
            }
        }
    }

    /// Appends `text` verbatim, newline-terminated: an embedded block
    /// that runs to the end of the file.
    pub fn text(&mut self, text: &str) {
        self.out.push_str(text);
        if !text.ends_with('\n') {
            self.out.push('\n');
        }
    }

    /// The finished text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Reads a keyed block written by [`StateWriter::new`] or
/// [`StateWriter::versioned`]: fields by key, in any order, with typed
/// errors for missing, malformed or out-of-range values.
#[derive(Debug)]
pub struct StateReader<'a> {
    lines: HashMap<&'a str, &'a str>,
}

impl<'a> StateReader<'a> {
    /// Parses `text`, demanding `kind` and a supported version.
    pub fn new(text: &'a str, kind: &str) -> Result<Self, OptStateError> {
        let reader = StateReader::versioned(text)?;
        let got = reader.raw("kind")?;
        if got != kind {
            return Err(OptStateError::new(format!(
                "checkpoint is for optimizer kind {got:?}, not {kind:?}"
            )));
        }
        Ok(reader)
    }

    /// Parses `text`, demanding a supported version.
    pub fn versioned(text: &'a str) -> Result<Self, OptStateError> {
        let mut lines = HashMap::new();
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
    pub fn parse<T: FromStr>(&self, key: &str) -> Result<T, OptStateError> {
        parse_value(key, self.raw(key)?)
    }

    /// Bit-exact f32.
    pub fn f32(&self, key: &str) -> Result<f32, OptStateError> {
        f32_value(key, self.raw(key)?)
    }

    /// Bit-exact f64.
    pub fn f64(&self, key: &str) -> Result<f64, OptStateError> {
        f64_value(key, self.raw(key)?)
    }

    /// An optional f64 written by [`StateWriter::opt_f64_field`].
    pub fn opt_f64(&self, key: &str) -> Result<Option<f64>, OptStateError> {
        match self.raw(key)? {
            "none" => Ok(None),
            _ => self.f64(key).map(Some),
        }
    }

    /// Bit-exact f32 vector (empty value → empty vector).
    pub fn f32_vec(&self, key: &str) -> Result<Vec<f32>, OptStateError> {
        f32_row(key, self.raw(key)?)
    }

    /// Bit-exact f64 vector (empty value → empty vector).
    pub fn f64_vec(&self, key: &str) -> Result<Vec<f64>, OptStateError> {
        hex::f64_unrow(self.raw(key)?)
            .map_err(|_| OptStateError::new(format!("bad f64 list in {key}")))
    }

    /// A per-coordinate buffer: empty (never touched), or exactly `dim`
    /// values when a dimension is recorded.
    pub fn buffer(&self, key: &str, dim: Option<usize>) -> Result<Vec<f32>, OptStateError> {
        let values = self.f32_vec(key)?;
        check_len(key, values.len(), dim)?;
        Ok(values)
    }

    /// An optional dimension written by [`StateWriter::dim`]: `none` or
    /// a positive count.
    pub fn dim(&self, key: &str) -> Result<Option<usize>, OptStateError> {
        match self.raw(key)? {
            "none" => Ok(None),
            _ => self.positive(key).map(Some),
        }
    }

    /// A positive count, such as a window width.
    pub fn positive(&self, key: &str) -> Result<usize, OptStateError> {
        match self.parse(key)? {
            0 => Err(OptStateError::new(format!("{key} must be positive"))),
            n => Ok(n),
        }
    }

    /// An exponential-average smoothing factor: an f64 in `[0, 1)`.
    pub fn beta(&self, key: &str) -> Result<f64, OptStateError> {
        let beta = self.f64(key)?;
        if !(0.0..1.0).contains(&beta) {
            return Err(OptStateError::new(format!(
                "{key} {beta} is outside [0, 1)"
            )));
        }
        Ok(beta)
    }
}

/// Checks a per-coordinate buffer's length against a recorded
/// dimension: an empty buffer (never touched) always fits.
pub fn check_len(key: &str, len: usize, dim: Option<usize>) -> Result<(), OptStateError> {
    match dim {
        Some(d) if len != 0 && len != d => Err(OptStateError::new(format!(
            "{key} holds {len} values, not dim {d}"
        ))),
        _ => Ok(()),
    }
}

fn parse_value<T: FromStr>(key: &str, value: &str) -> Result<T, OptStateError> {
    value
        .parse()
        .map_err(|_| OptStateError::new(format!("unparseable field {key}")))
}

fn f32_value(key: &str, value: &str) -> Result<f32, OptStateError> {
    hex::f32_unhex(value).map_err(|_| OptStateError::new(format!("bad f32 bits in {key}")))
}

fn f64_value(key: &str, value: &str) -> Result<f64, OptStateError> {
    hex::f64_unhex(value).map_err(|_| OptStateError::new(format!("bad f64 bits in {key}")))
}

fn f32_row(key: &str, value: &str) -> Result<Vec<f32>, OptStateError> {
    hex::f32_unrow(value).map_err(|_| OptStateError::new(format!("bad f32 list in {key}")))
}

/// Reads an ordered file written through [`StateWriter::header`]: the
/// header, then every line in the order it was written.
pub struct Fields<'a> {
    lines: std::str::Lines<'a>,
}

impl<'a> Fields<'a> {
    /// Reads the header line, which must be `header`.
    pub fn new(text: &'a str, header: &str) -> Result<Fields<'a>, OptStateError> {
        Fields::any_of(text, &[header]).map(|(fields, _)| fields)
    }

    /// Reads the header line, which must be one of `headers` (the
    /// versions a reader accepts); returns the one found.
    pub fn any_of<'h>(
        text: &'a str,
        headers: &[&'h str],
    ) -> Result<(Fields<'a>, &'h str), OptStateError> {
        let mut lines = text.lines();
        let found = lines
            .next()
            .ok_or_else(|| OptStateError::new("empty payload"))?;
        match headers.iter().find(|&&h| h == found) {
            Some(&h) => Ok((Fields { lines }, h)),
            None => Err(OptStateError::new(format!(
                "expected header {headers:?}, found {found:?}"
            ))),
        }
    }

    fn next_line(&mut self, what: impl fmt::Display) -> Result<&'a str, OptStateError> {
        self.lines
            .next()
            .ok_or_else(|| OptStateError::new(format!("truncated before {what}")))
    }

    /// The value of the next line, which must be field `key`.
    pub fn field(&mut self, key: &str) -> Result<&'a str, OptStateError> {
        let line = self.next_line(format_args!("field {key:?}"))?;
        match line.split_once(' ') {
            Some((k, v)) if k == key => Ok(v),
            _ => Err(OptStateError::new(format!(
                "expected field {key:?}, found line {line:?}"
            ))),
        }
    }

    /// Parses the next field with `FromStr`.
    pub fn parse<T: FromStr>(&mut self, key: &str) -> Result<T, OptStateError> {
        let value = self.field(key)?;
        parse_value(key, value)
    }

    /// The next field as a bit-exact f32.
    pub fn f32(&mut self, key: &str) -> Result<f32, OptStateError> {
        let value = self.field(key)?;
        f32_value(key, value)
    }

    /// The next field as a bit-exact f64.
    pub fn f64(&mut self, key: &str) -> Result<f64, OptStateError> {
        let value = self.field(key)?;
        f64_value(key, value)
    }

    /// The next field as a bit-exact f32 vector.
    pub fn f32_vec(&mut self, key: &str) -> Result<Vec<f32>, OptStateError> {
        let value = self.field(key)?;
        f32_row(key, value)
    }

    /// A block written by [`StateWriter::counted`].
    pub fn block(&mut self, key: &str) -> Result<Option<String>, OptStateError> {
        let count: usize = match self.field(key)? {
            "-" => return Ok(None),
            n => parse_value(key, n)?,
        };
        let mut out = String::new();
        for _ in 0..count {
            out.push_str(self.next_line(format_args!("the end of the {key} block"))?);
            out.push('\n');
        }
        Ok(Some(out))
    }

    /// The next line, which must be the bare `marker`.
    pub fn marker(&mut self, marker: &str) -> Result<(), OptStateError> {
        match self.next_line(marker)? {
            line if line == marker => Ok(()),
            line => Err(OptStateError::new(format!(
                "expected {marker:?}, found line {line:?}"
            ))),
        }
    }

    /// The rest of the text, newline-terminated (what
    /// [`StateWriter::text`] wrote); it must not be empty.
    pub fn rest(self) -> Result<String, OptStateError> {
        let mut out = String::new();
        for line in self.lines {
            out.push_str(line);
            out.push('\n');
        }
        if out.is_empty() {
            return Err(OptStateError::new("empty trailing block"));
        }
        Ok(out)
    }

    /// An optional trailing block: `key present` and the rest of the
    /// text, or `key none` as the last line.
    pub fn trailing(mut self, key: &str) -> Result<Option<String>, OptStateError> {
        match self.field(key)? {
            "present" => self.rest().map(Some),
            "none" => match self.lines.next() {
                None => Ok(None),
                Some(line) => Err(OptStateError::new(format!(
                    "trailing line {line:?} after {key} none"
                ))),
            },
            other => Err(OptStateError::new(format!("bad {key} marker {other:?}"))),
        }
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
        w.dim("dim", Some(7));
        w.dim("nodim", None);
        w.opt_f64_field("some", Some(-0.0));
        w.opt_f64_field("nothing", None);
        let text = w.finish();

        let r = StateReader::new(&text, "test").expect("valid");
        assert_eq!(r.f32("lr").unwrap().to_bits(), 0.1f32.to_bits());
        assert_eq!(r.f64("beta").unwrap().to_bits(), 0.999f64.to_bits());
        assert_eq!(r.beta("beta").unwrap(), 0.999);
        assert_eq!(
            r.f32_vec("buf").unwrap(),
            vec![1.5, -2.25, f32::MIN_POSITIVE]
        );
        assert!(r.f32_vec("empty").unwrap().is_empty());
        assert_eq!(r.parse::<u64>("t").unwrap(), 42);
        assert_eq!(r.dim("dim").unwrap(), Some(7));
        assert_eq!(r.dim("nodim").unwrap(), None);
        assert_eq!(r.opt_f64("some").unwrap().map(f64::to_bits), Some(1 << 63));
        assert_eq!(r.opt_f64("nothing").unwrap(), None);
        assert_eq!(r.buffer("buf", Some(3)).unwrap().len(), 3);
        assert!(r.buffer("empty", Some(3)).unwrap().is_empty());
        assert!(r.buffer("buf", Some(4)).is_err());
        assert_eq!(r.buffer("buf", None).unwrap().len(), 3);
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

    #[test]
    fn values_a_constructor_would_refuse_are_errors() {
        let mut w = StateWriter::versioned();
        w.field("zero", 0);
        w.field("width", 20);
        w.f64_field("one", 1.0);
        w.f64_field("negative", -0.5);
        w.f64_field("nan", f64::NAN);
        w.f64_field("zero_beta", 0.0);
        let text = w.finish();
        let r = StateReader::versioned(&text).unwrap();
        assert!(r.positive("zero").is_err());
        assert!(r.dim("zero").is_err(), "a recorded dim is positive");
        assert_eq!(r.positive("width").unwrap(), 20);
        for key in ["one", "negative", "nan"] {
            assert!(r.beta(key).is_err(), "{key}");
        }
        assert_eq!(r.beta("zero_beta").unwrap(), 0.0);
    }

    #[test]
    fn ordered_files_read_back_in_order_and_nothing_else() {
        let mut w = StateWriter::header("test-file v2");
        w.field("step", 7);
        w.f32_field("lr", 0.1);
        w.f32_slice("row", &[1.0, -0.0]);
        w.counted("inner", Some("a 1\nb 2"));
        w.counted("absent", None);
        w.marker("tail");
        w.text("x 1\ny 2");
        let text = w.finish();
        assert_eq!(
            text,
            "test-file v2\nstep 7\nlr 3dcccccd\nrow 3f800000,80000000\ninner 2\na 1\nb 2\n\
             absent -\ntail\nx 1\ny 2\n"
        );

        let read = |text: &str| -> Result<_, OptStateError> {
            let (mut f, version) = Fields::any_of(text, &["test-file v1", "test-file v2"])?;
            let step: u64 = f.parse("step")?;
            let lr = f.f32("lr")?;
            let row = f.f32_vec("row")?;
            let inner = f.block("inner")?;
            let absent = f.block("absent")?;
            f.marker("tail")?;
            Ok((version, step, lr, row, inner, absent, f.rest()?))
        };
        let (version, step, lr, row, inner, absent, rest) = read(&text).unwrap();
        assert_eq!((version, step, lr), ("test-file v2", 7, 0.1));
        assert_eq!(
            row.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            [0x3f80_0000, 1 << 31]
        );
        assert_eq!(inner.as_deref(), Some("a 1\nb 2\n"));
        assert_eq!(absent, None);
        assert_eq!(rest, "x 1\ny 2\n");

        // Every cut before the trailing block, a wrong header, a field
        // out of order, a short block or a missing marker is refused.
        let tail = text.find("x 1").unwrap();
        for cut in 0..tail {
            assert!(read(&text[..cut]).is_err(), "cut at {cut}");
        }
        assert!(read(&text.replace("v2", "v3")).is_err());
        assert!(read(&text.replace("step 7\nlr 3dcccccd", "lr 3dcccccd\nstep 7")).is_err());
        assert!(read(&text.replace("inner 2", "inner 3")).is_err());
        assert!(read(&text.replace("inner 2", "inner x")).is_err());
        assert!(read(&text.replace("tail\n", "tail 1\n")).is_err());

        // A trailing block is `key present` and the rest, or `key none`
        // as the last line.
        let trailing = |text: &str| Fields::new(text, "h")?.trailing("more");
        assert_eq!(trailing("h\nmore none\n").unwrap(), None);
        assert_eq!(
            trailing("h\nmore present\nz 1\n").unwrap().as_deref(),
            Some("z 1\n")
        );
        for bad in [
            "h\nmore none\nstray\n",
            "h\nmore present\n",
            "h\nmore maybe\n",
            "h\n",
        ] {
            assert!(trailing(bad).is_err(), "{bad:?}");
        }
    }
}
