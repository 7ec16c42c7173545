//! Bit-exact float text codec: every `f32`/`f64` that leaves a process
//! as text travels as its hex bit pattern, never as a decimal literal,
//! so NaN payloads, signed zeros, subnormals and ±inf round-trip
//! bit-for-bit.
//!
//! The format is fixed-width: exactly 8 digits per `f32` and 16 per
//! `f64`, written in lowercase, with rows joined by `,` and no spaces
//! (the empty row is the empty string). Decoding is strict: an element
//! must be exactly 8 or 16 hex digits, in either case; a sign, a prefix,
//! whitespace, or a short or long element is a [`HexError`].
//!
//! The wire frames, serve session snapshots, fleet checkpoints and the
//! optimizer and tuner checkpoints all write floats through this one
//! module, so files sealed by one build resume in the next only as long
//! as these bytes do not change.
//!
//! Both directions are table-driven and allocate nothing per value:
//! encoding reserves a row once and writes digits from a 16-byte table;
//! decoding checks the row length up front, maps digits through a
//! 256-entry nibble table, checks separators in place, and fills one
//! pre-sized vector.

use std::fmt::{self, Write as _};

/// Error parsing a hex bit pattern or a row of them.
#[derive(Debug, Clone, PartialEq)]
pub struct HexError(String);

impl HexError {
    fn new(msg: impl Into<String>) -> HexError {
        HexError(msg.into())
    }
}

impl fmt::Display for HexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid hex payload: {}", self.0)
    }
}

impl std::error::Error for HexError {}

const F32_DIGITS: usize = 8;
const F64_DIGITS: usize = 16;

const DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Marks a byte that is not a hex digit in [`NIBBLES`]; every digit
/// maps below it.
const BAD: u8 = 0x10;

/// The value of each byte as a hex digit, or [`BAD`].
const NIBBLES: [u8; 256] = {
    let mut table = [BAD; 256];
    let mut i = 0;
    while i < 16 {
        table[DIGITS[i] as usize] = i as u8;
        table[DIGITS[i].to_ascii_uppercase() as usize] = i as u8;
        i += 1;
    }
    table
};

/// Row elements encoded on the stack between two `push_str` calls.
const CHUNK: usize = 256;

/// Writes the low `digits.len()` nibbles of `bits`, most significant
/// first.
fn put_digits(digits: &mut [u8], bits: u64) {
    for (i, d) in digits.iter_mut().rev().enumerate() {
        *d = DIGITS[(bits >> (4 * i)) as usize & 0xf];
    }
}

/// The value of a run of hex digits, or `None` if any byte is not one.
fn read_digits(digits: &[u8]) -> Option<u64> {
    let mut bits = 0u64;
    let mut seen = 0u8;
    for &d in digits {
        let nibble = NIBBLES[usize::from(d)];
        seen |= nibble;
        bits = bits << 4 | u64::from(nibble);
    }
    (seen & BAD == 0).then_some(bits)
}

fn push_ascii(out: &mut String, bytes: &[u8]) {
    out.push_str(std::str::from_utf8(bytes).expect("hex digits and commas are ASCII"));
}

fn push_bits(out: &mut String, bits: u64, width: usize) {
    let mut buf = [0u8; F64_DIGITS];
    put_digits(&mut buf[..width], bits);
    push_ascii(out, &buf[..width]);
}

fn push_row(out: &mut String, bits: impl ExactSizeIterator<Item = u64>, width: usize) {
    let stride = width + 1;
    out.reserve((bits.len() * stride).saturating_sub(1));
    let mut buf = [0u8; CHUNK * (F64_DIGITS + 1)];
    let mut len = 0;
    for (i, b) in bits.enumerate() {
        if i > 0 {
            buf[len] = b',';
            len += 1;
        }
        put_digits(&mut buf[len..len + width], b);
        len += width;
        if len + stride > buf.len() {
            push_ascii(out, &buf[..len]);
            len = 0;
        }
    }
    push_ascii(out, &buf[..len]);
}

fn unhex(text: &str, width: usize, what: &str) -> Result<u64, HexError> {
    if text.len() == width {
        if let Some(bits) = read_digits(text.as_bytes()) {
            return Ok(bits);
        }
    }
    Err(HexError::new(format!("bad {what} bits {text:?}")))
}

fn unrow<T>(
    text: &str,
    width: usize,
    what: &str,
    from_bits: impl Fn(u64) -> T,
) -> Result<Vec<T>, HexError> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    let bytes = text.as_bytes();
    let stride = width + 1;
    if !(bytes.len() + 1).is_multiple_of(stride) {
        return Err(HexError::new(format!(
            "{what} row of {} bytes is not a whole number of {width}-digit elements",
            bytes.len()
        )));
    }
    let mut out = Vec::with_capacity((bytes.len() + 1) / stride);
    for (i, element) in bytes.chunks(stride).enumerate() {
        let (digits, sep) = element.split_at(width);
        match read_digits(digits) {
            Some(bits) if sep.is_empty() || sep == b"," => out.push(from_bits(bits)),
            _ => {
                return Err(HexError::new(format!(
                    "bad {what} element {i}: {:?}",
                    String::from_utf8_lossy(element)
                )))
            }
        }
    }
    Ok(out)
}

/// Appends the hex bit pattern of an `f32` (8 digits).
pub fn push_f32(out: &mut String, v: f32) {
    push_bits(out, u64::from(v.to_bits()), F32_DIGITS);
}

/// Appends the hex bit pattern of an `f64` (16 digits).
pub fn push_f64(out: &mut String, v: f64) {
    push_bits(out, v.to_bits(), F64_DIGITS);
}

/// Hex bit pattern of an `f32`.
pub fn f32_hex(v: f32) -> String {
    let mut out = String::with_capacity(F32_DIGITS);
    push_f32(&mut out, v);
    out
}

/// Parses an `f32` hex bit pattern.
///
/// # Errors
///
/// [`HexError`] when the text is not exactly 8 hex digits.
pub fn f32_unhex(s: &str) -> Result<f32, HexError> {
    unhex(s, F32_DIGITS, "f32").map(|bits| f32::from_bits(bits as u32))
}

/// Hex bit pattern of an `f64`.
pub fn f64_hex(v: f64) -> String {
    let mut out = String::with_capacity(F64_DIGITS);
    push_f64(&mut out, v);
    out
}

/// Parses an `f64` hex bit pattern.
///
/// # Errors
///
/// [`HexError`] when the text is not exactly 16 hex digits.
pub fn f64_unhex(s: &str) -> Result<f64, HexError> {
    unhex(s, F64_DIGITS, "f64").map(f64::from_bits)
}

/// Appends the comma-joined hex row of an `f32` slice (nothing for an
/// empty slice).
pub fn push_f32_row(out: &mut String, values: &[f32]) {
    push_row(
        out,
        values.iter().map(|v| u64::from(v.to_bits())),
        F32_DIGITS,
    );
}

/// Appends the comma-joined hex row of an `f64` slice (nothing for an
/// empty slice).
pub fn push_f64_row(out: &mut String, values: &[f64]) {
    push_row(out, values.iter().map(|v| v.to_bits()), F64_DIGITS);
}

/// Comma-joined hex row of an `f32` slice (empty slice → empty string).
pub fn f32_row(values: &[f32]) -> String {
    let mut out = String::new();
    push_f32_row(&mut out, values);
    out
}

/// Parses [`f32_row`] output.
///
/// # Errors
///
/// [`HexError`] on any malformed element or separator.
pub fn f32_unrow(text: &str) -> Result<Vec<f32>, HexError> {
    unrow(text, F32_DIGITS, "f32", |bits| f32::from_bits(bits as u32))
}

/// Comma-joined hex row of an `f64` slice (empty slice → empty string).
pub fn f64_row(values: &[f64]) -> String {
    let mut out = String::new();
    push_f64_row(&mut out, values);
    out
}

/// Parses [`f64_row`] output.
///
/// # Errors
///
/// [`HexError`] on any malformed element or separator.
pub fn f64_unrow(text: &str) -> Result<Vec<f64>, HexError> {
    unrow(text, F64_DIGITS, "f64", f64::from_bits)
}

/// Comma-joined `step@bits` row of `(step, value)` metric pairs, the
/// step in decimal.
pub fn metric_row(metrics: &[(u64, f64)]) -> String {
    let mut out = String::with_capacity(metrics.len() * 24);
    for (i, &(step, v)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{step}@");
        push_f64(&mut out, v);
    }
    out
}

/// Parses [`metric_row`] output.
///
/// # Errors
///
/// [`HexError`] on any malformed pair; the step must be plain decimal
/// digits.
pub fn metric_unrow(text: &str) -> Result<Vec<(u64, f64)>, HexError> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(',')
        .map(|pair| {
            let (step, v) = pair
                .split_once('@')
                .ok_or_else(|| HexError::new(format!("bad metric pair {pair:?}")))?;
            let step = Some(step)
                .filter(|s| s.bytes().all(|b| b.is_ascii_digit()))
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| HexError::new(format!("bad metric step {step:?}")))?;
            Ok((step, f64_unhex(v)?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn special_values_round_trip_bitwise() {
        for v in [
            0.0f32,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MIN_POSITIVE,
            f32::from_bits(0x7fc0_dead), // NaN with payload
        ] {
            let back = f32_unhex(&f32_hex(v)).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        for v in [
            0.0f64,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0x7ff8_0000_0000_beef),
        ] {
            let back = f64_unhex(&f64_hex(v)).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn malformed_patterns_are_rejected() {
        assert!(f32_unhex("3dcccc").is_err()); // too short
        assert!(f32_unhex("3dcccccdff").is_err()); // too long
        assert!(f32_unhex("3dccccgg").is_err()); // non-hex
        assert!(f64_unhex("0123").is_err());
        assert!(f32_unrow("3dcccccd,zz").is_err());
        assert!(metric_unrow("5@0123").is_err());
        assert!(metric_unrow("x@3ff0000000000000").is_err());
        assert!(metric_unrow("nopair").is_err());
        // Exactly 8 or 16 digits per element: no sign, no short or
        // long elements, no stray separators or spaces.
        assert!(f32_unhex("+3dccccc").is_err());
        assert!(f32_unhex("-3dccccc").is_err());
        assert!(f64_unhex("+3ff000000000000").is_err());
        assert!(f32_unrow("+3dccccc").is_err());
        assert!(f32_unrow("3dcccccd,+3dccccc").is_err());
        assert!(f32_unrow("3dc,+1").is_err());
        assert!(f32_unrow("3dcccccd,").is_err());
        assert!(f32_unrow(",3dcccccd").is_err());
        assert!(f32_unrow("3dcccccd;3dcccccd").is_err());
        assert!(f32_unrow("3dcccccd 3dcccccd").is_err());
        assert!(f64_unrow("3ff0000000000000,3ff00000").is_err());
        assert!(metric_unrow("+5@3ff0000000000000").is_err());
        // Uppercase digits still decode.
        assert_eq!(f32_unhex("3DCCCCCD").unwrap(), 0.1f32);
        assert_eq!(f32_unrow("3DCCCCCD,3dcccccd").unwrap(), vec![0.1f32, 0.1]);
    }

    #[test]
    fn empty_rows_round_trip() {
        assert_eq!(f32_unrow("").unwrap(), Vec::<f32>::new());
        assert_eq!(f64_unrow("").unwrap(), Vec::<f64>::new());
        assert_eq!(metric_unrow("").unwrap(), Vec::<(u64, f64)>::new());
        assert_eq!(f32_row(&[]), "");
    }

    #[test]
    fn appending_forms_extend_the_callers_string() {
        let mut out = String::from("grads ");
        push_f32_row(&mut out, &[0.1, -0.0]);
        out.push(' ');
        push_f64(&mut out, 1.0);
        assert_eq!(out, "grads 3dcccccd,80000000 3ff0000000000000");
        // Rows longer than one stack chunk stay one comma-joined row.
        let long: Vec<f64> = (0..3 * CHUNK + 5).map(|i| i as f64).collect();
        assert_eq!(f64_unrow(&f64_row(&long)).unwrap(), long);
    }
}
