//! The capped line reader under every yf stream.
//!
//! Serve connections, the chaos proxy and the fleet links between
//! coordinator and workers all carry newline-delimited JSON, and all of
//! them read it through [`read_line`]. It reads bytes up to `\n`, so it
//! never fails halfway through a line on what the line holds:
//!
//! - a line longer than [`MAX_LINE`] is cut off with
//!   [`ReadError::LineTooLong`] once that many bytes are buffered, so a
//!   peer that never sends `\n` cannot grow the buffer without limit;
//! - a line that is not UTF-8 is consumed whole and returned as
//!   [`ReadError::NotUtf8`], so the stream stays in sync and the caller
//!   decides what a bad line costs (the server answers it with an
//!   `error` frame and keeps reading).

use std::fmt;
use std::io::{self, BufRead, Read};
use std::string::FromUtf8Error;

/// Upper bound on a line, newline included: the JSON `measure` line of
/// a 2^24-element gradient. Each f32 costs 9 bytes there (8 hex digits
/// and a separator), and the 64 KiB of headroom covers the line's other
/// fields.
pub const MAX_LINE: usize = (1 << 24) * 9 + (1 << 16);

/// A line read failure.
#[derive(Debug)]
pub enum ReadError {
    /// Transport failure (including timeouts, surfaced as
    /// `WouldBlock`/`TimedOut` by the socket layer).
    Io(io::Error),
    /// A line ran past [`MAX_LINE`] bytes without a newline; the stream
    /// can no longer be re-synchronized.
    LineTooLong,
    /// A whole line that is not UTF-8, with its terminator stripped. It
    /// was consumed, so the next read starts at the next line; the error
    /// still holds its bytes.
    NotUtf8(FromUtf8Error),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "transport: {e}"),
            ReadError::LineTooLong => {
                write!(f, "framing: line exceeds the {MAX_LINE} byte cap")
            }
            ReadError::NotUtf8(e) => write!(f, "framing: line is not UTF-8: {e}"),
        }
    }
}

impl std::error::Error for ReadError {}

/// Reads the next line, with its `\n` and any `\r` before it stripped.
/// Returns `Ok(None)` at a clean EOF; a last line without a newline is
/// still a line.
///
/// # Errors
///
/// [`ReadError::Io`] from the reader, [`ReadError::LineTooLong`] once
/// [`MAX_LINE`] bytes hold no newline, and [`ReadError::NotUtf8`] for a
/// whole line that is not UTF-8.
pub fn read_line<R: BufRead>(reader: &mut R) -> Result<Option<String>, ReadError> {
    let mut bytes = Vec::new();
    reader
        .take(MAX_LINE as u64)
        .read_until(b'\n', &mut bytes)
        .map_err(ReadError::Io)?;
    if bytes.is_empty() {
        return Ok(None);
    }
    if bytes.len() == MAX_LINE && bytes.last() != Some(&b'\n') {
        return Err(ReadError::LineTooLong);
    }
    if bytes.last() == Some(&b'\n') {
        bytes.pop();
    }
    while bytes.last() == Some(&b'\r') {
        bytes.pop();
    }
    String::from_utf8(bytes)
        .map(Some)
        .map_err(ReadError::NotUtf8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caps_a_line_that_never_ends() {
        // A peer streaming text with no newline: the reader must give up
        // with a typed error once MAX_LINE bytes are buffered.
        struct Endless(usize);
        impl Read for Endless {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                buf.fill(b'x');
                self.0 += buf.len();
                Ok(buf.len())
            }
        }
        let chunk = 1 << 16;
        let mut r = io::BufReader::with_capacity(chunk, Endless(0));
        assert!(matches!(read_line(&mut r), Err(ReadError::LineTooLong)));
        let pulled = r.get_ref().0;
        assert!(
            pulled <= MAX_LINE + chunk,
            "read {pulled} bytes for a {MAX_LINE}-byte cap"
        );
    }
}
