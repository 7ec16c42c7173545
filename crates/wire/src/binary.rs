//! Length-prefixed binary frames — the wire dialect's fast path.
//!
//! Line JSON (see [`crate::json`]) stays the control-plane encoding:
//! it is greppable, debuggable with `nc`, and forward-compatible. But
//! hex-encoding a dim-4096 gradient costs ~9 bytes per float plus a
//! UTF-8 decode on the far side, and PR 8's `serve_measure_*` perf
//! entries showed the serve stack spending ~99% of its time in exactly
//! that framing. This module adds a binary frame format for the data
//! path, designed to coexist byte-by-byte with JSON lines on the same
//! stream:
//!
//! ```text
//! offset  size  field
//! 0       1     magic0 = 0xF5   (invalid UTF-8 lead byte: can never
//!                                start a JSON line, which begins '{')
//! 1       1     magic1 = 0x59   ('Y')
//! 2       1     version = 1
//! 3       1     frame tag       (meaning assigned by the protocol layer)
//! 4       4     payload length, u32 little-endian
//! 8       len   payload         (f32/f64 carried as LE bit patterns)
//! 8+len   8     FNV-1a 64 checksum of bytes [0, 8+len), u64 LE —
//!               the same seal as [`crate::fsio`]'s sealed files
//! ```
//!
//! Because `0xF5` cannot begin a UTF-8 sequence, a reader can dispatch
//! on the first byte of a stream position: `0xF5` starts a binary
//! frame, anything else starts a text line. [`read_frame`] implements
//! that mixed-dialect reader; servers, clients, and the chaos proxy
//! all share it so every layer frames binary traffic identically.
//!
//! Everything here returns typed errors ([`BinError`], [`ReadError`]) —
//! decoding attacker- or chaos-controlled bytes must never panic and
//! never over-read (the payload length is capped at [`MAX_PAYLOAD`]
//! before any allocation, and a text line at [`MAX_LINE`] while it is
//! read).

use std::fmt;
use std::io::{self, BufRead, Read};

use crate::fsio::fnv1a;

/// First two bytes of every binary frame. `MAGIC[0]` is an invalid
/// UTF-8 lead byte, which is what lets binary frames share a stream
/// with JSON lines.
pub const MAGIC: [u8; 2] = [0xF5, 0x59];

/// Binary frame format version carried in byte 2.
pub const VERSION: u8 = 1;

/// Header length: magic (2) + version (1) + tag (1) + payload len (4).
pub const HEADER_LEN: usize = 8;

/// Trailer length: one u64 LE FNV-1a checksum.
pub const TRAILER_LEN: usize = 8;

/// Upper bound on a frame's payload (64 MiB). A mutated length prefix
/// is rejected against this cap before any buffer is allocated, so a
/// corrupt frame can neither over-read nor balloon memory.
pub const MAX_PAYLOAD: usize = 1 << 26;

/// Upper bound on a text line, newline included. It fits the JSON
/// `measure` line of the largest gradient a binary frame can carry: an
/// f32 is 4 payload bytes in binary but 9 in JSON (8 hex digits and a
/// separator), and the 64 KiB of headroom covers the line's other
/// fields. A peer that never sends `\n` is cut off here instead of
/// growing the buffer without limit.
pub const MAX_LINE: usize = MAX_PAYLOAD / 4 * 9 + (1 << 16);

/// A typed binary-decode failure. Decoding never panics; every
/// malformed input maps to one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinError {
    /// The buffer ended before the frame (or payload field) did.
    Truncated { need: usize, have: usize },
    /// The first two bytes were not [`MAGIC`].
    BadMagic([u8; 2]),
    /// Unknown format version byte.
    BadVersion(u8),
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    Oversize(u32),
    /// The FNV-1a trailer does not match the frame bytes.
    BadChecksum { want: u64, got: u64 },
    /// The frame tag is not one the caller understands.
    BadTag(u8),
    /// Structurally invalid payload contents.
    Malformed(String),
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinError::Truncated { need, have } => {
                write!(f, "truncated frame: need {need} bytes, have {have}")
            }
            BinError::BadMagic(m) => {
                write!(f, "bad frame magic {:#04x} {:#04x}", m[0], m[1])
            }
            BinError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            BinError::Oversize(len) => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {MAX_PAYLOAD} byte cap"
                )
            }
            BinError::BadChecksum { want, got } => {
                write!(
                    f,
                    "frame checksum mismatch: computed {want:#018x}, frame says {got:#018x}"
                )
            }
            BinError::BadTag(t) => write!(f, "unknown frame tag {t}"),
            BinError::Malformed(msg) => write!(f, "malformed frame payload: {msg}"),
        }
    }
}

impl std::error::Error for BinError {}

/// Encodes one complete frame: header, payload, checksum trailer.
/// Encoding is deterministic — identical input bytes produce identical
/// frames — which is what lets tests pin bitwise stream equality.
///
/// # Panics
///
/// If `payload` exceeds [`MAX_PAYLOAD`]; frame payloads are produced by
/// this codebase (gradients are dimension-bounded), never by a peer.
pub fn frame(tag: u8, payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_PAYLOAD,
        "frame payload exceeds MAX_PAYLOAD"
    );
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(tag);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Validates and decodes one complete frame, returning `(tag, payload)`
/// borrowed from the input. The input must be exactly one frame;
/// trailing bytes are rejected (a stream reader hands this function
/// frames it already length-delimited).
pub fn decode(buf: &[u8]) -> Result<(u8, &[u8]), BinError> {
    if buf.len() < HEADER_LEN + TRAILER_LEN {
        return Err(BinError::Truncated {
            need: HEADER_LEN + TRAILER_LEN,
            have: buf.len(),
        });
    }
    if buf[..2] != MAGIC {
        return Err(BinError::BadMagic([buf[0], buf[1]]));
    }
    if buf[2] != VERSION {
        return Err(BinError::BadVersion(buf[2]));
    }
    let len32 = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    let len = len32 as usize;
    if len > MAX_PAYLOAD {
        return Err(BinError::Oversize(len32));
    }
    let total = HEADER_LEN + len + TRAILER_LEN;
    if buf.len() < total {
        return Err(BinError::Truncated {
            need: total,
            have: buf.len(),
        });
    }
    if buf.len() > total {
        return Err(BinError::Malformed(format!(
            "{} trailing bytes after the frame",
            buf.len() - total
        )));
    }
    let want = fnv1a(&buf[..HEADER_LEN + len]);
    let got = u64::from_le_bytes(
        buf[HEADER_LEN + len..total]
            .try_into()
            .expect("trailer is 8 bytes"),
    );
    if want != got {
        return Err(BinError::BadChecksum { want, got });
    }
    Ok((buf[3], &buf[HEADER_LEN..HEADER_LEN + len]))
}

/// One unit read from a mixed-dialect stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RawFrame {
    /// A text line, with the trailing `\n`/`\r` already stripped.
    Line(String),
    /// A complete binary frame, raw bytes including header and trailer.
    /// Only the *framing* (magic, version, length cap) has been
    /// validated — the checksum has not, so a forwarding proxy can pass
    /// damaged frames through verbatim and let the endpoint's
    /// [`decode`] report the typed failure.
    Binary(Vec<u8>),
}

/// A mixed-dialect read failure.
#[derive(Debug)]
pub enum ReadError {
    /// Transport failure (including timeouts, surfaced as
    /// `WouldBlock`/`TimedOut` by the socket layer).
    Io(io::Error),
    /// The stream positioned us at a binary frame whose framing itself
    /// is invalid; the stream can no longer be re-synchronized.
    Frame(BinError),
    /// A text line ran past [`MAX_LINE`] bytes without a newline; the
    /// stream can no longer be re-synchronized.
    LineTooLong,
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "transport: {e}"),
            ReadError::Frame(e) => write!(f, "framing: {e}"),
            ReadError::LineTooLong => {
                write!(f, "framing: text line exceeds the {MAX_LINE} byte cap")
            }
        }
    }
}

impl std::error::Error for ReadError {}

/// Reads the next unit from a stream that may interleave JSON lines
/// and binary frames: a leading `0xF5` byte starts a binary frame,
/// anything else a text line. Returns `Ok(None)` at a clean EOF.
///
/// Binary frames are read to their declared length (validated against
/// [`MAX_PAYLOAD`] *before* the payload is buffered) and returned raw;
/// call [`decode`] to checksum-verify and extract the payload. An EOF
/// in the middle of a binary frame is an `UnexpectedEof` I/O error,
/// mirroring how a torn line read fails. A text line stops buffering at
/// [`MAX_LINE`] bytes and fails with [`ReadError::LineTooLong`].
pub fn read_frame<R: BufRead>(reader: &mut R) -> Result<Option<RawFrame>, ReadError> {
    let first = {
        let buf = reader.fill_buf().map_err(ReadError::Io)?;
        match buf.first() {
            None => return Ok(None),
            Some(&b) => b,
        }
    };
    if first != MAGIC[0] {
        let mut line = String::new();
        reader
            .take(MAX_LINE as u64)
            .read_line(&mut line)
            .map_err(ReadError::Io)?;
        if line.len() == MAX_LINE && !line.ends_with('\n') {
            return Err(ReadError::LineTooLong);
        }
        while line.ends_with(['\n', '\r']) {
            line.pop();
        }
        return Ok(Some(RawFrame::Line(line)));
    }
    let mut header = [0u8; HEADER_LEN];
    reader.read_exact(&mut header).map_err(ReadError::Io)?;
    if header[..2] != MAGIC {
        return Err(ReadError::Frame(BinError::BadMagic([header[0], header[1]])));
    }
    if header[2] != VERSION {
        return Err(ReadError::Frame(BinError::BadVersion(header[2])));
    }
    let len32 = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    let len = len32 as usize;
    if len > MAX_PAYLOAD {
        return Err(ReadError::Frame(BinError::Oversize(len32)));
    }
    let mut raw = vec![0u8; HEADER_LEN + len + TRAILER_LEN];
    raw[..HEADER_LEN].copy_from_slice(&header);
    reader
        .read_exact(&mut raw[HEADER_LEN..])
        .map_err(ReadError::Io)?;
    Ok(Some(RawFrame::Binary(raw)))
}

/// A little-endian payload reader. Every accessor is bounds-checked
/// and returns [`BinError::Truncated`] instead of slicing past the
/// end, so payload decoding inherits the never-panic contract.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], BinError> {
        if self.remaining() < n {
            return Err(BinError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8, BinError> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, BinError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    pub fn u32(&mut self) -> Result<u32, BinError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    pub fn u64(&mut self) -> Result<u64, BinError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// A length-prefixed string: u16 LE byte count, then UTF-8 bytes.
    pub fn str16(&mut self) -> Result<&'a str, BinError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map_err(|e| BinError::Malformed(format!("str16 is not UTF-8: {e}")))
    }

    /// Succeeds only if the whole payload was consumed — trailing
    /// bytes mean the peer and we disagree about the layout.
    pub fn finish(self) -> Result<(), BinError> {
        if self.pos != self.buf.len() {
            return Err(BinError::Malformed(format!(
                "{} trailing payload bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// The write-side twin of [`Cursor`]: appends little-endian fields to
/// a payload buffer.
#[derive(Default)]
pub struct Builder(Vec<u8>);

impl Builder {
    pub fn new() -> Self {
        Builder(Vec::new())
    }

    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.0.push(v);
        self
    }

    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// A contiguous run of f32s as LE bit-pattern words — the gradient
    /// payload hot path: one resize, then a flat vectorizable copy
    /// instead of a bounds-checked `u32` append per coordinate.
    pub fn f32_words(&mut self, values: &[f32]) -> &mut Self {
        let start = self.0.len();
        self.0.resize(start + values.len() * 4, 0);
        for (chunk, &v) in self.0[start..].chunks_exact_mut(4).zip(values) {
            chunk.copy_from_slice(&v.to_bits().to_le_bytes());
        }
        self
    }

    /// A length-prefixed string (u16 LE byte count + UTF-8 bytes).
    ///
    /// # Panics
    ///
    /// If `v` exceeds 65535 bytes; str16 fields carry session names and
    /// rejection reasons, both bounded well below that by validation.
    pub fn str16(&mut self, v: &str) -> &mut Self {
        assert!(
            v.len() <= u16::MAX as usize,
            "str16 field exceeds 65535 bytes"
        );
        self.u16(v.len() as u16);
        self.0.extend_from_slice(v.as_bytes());
        self
    }

    pub fn into_payload(self) -> Vec<u8> {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor as IoCursor;

    #[test]
    fn frames_round_trip_with_valid_checksums() {
        for payload in [&b""[..], b"x", b"hello binary world", &[0u8; 1000]] {
            let f = frame(7, payload);
            assert_eq!(f.len(), HEADER_LEN + payload.len() + TRAILER_LEN);
            let (tag, got) = decode(&f).unwrap();
            assert_eq!(tag, 7);
            assert_eq!(got, payload);
        }
    }

    #[test]
    fn magic_lead_byte_is_invalid_utf8_so_json_lines_cannot_collide() {
        // 0xF5..0xFF never appear in well-formed UTF-8, so no JSON line
        // can ever start with the frame magic.
        assert!(std::str::from_utf8(&[MAGIC[0]]).is_err());
        assert!(String::from("{").as_bytes()[0] != MAGIC[0]);
    }

    #[test]
    fn decode_rejects_each_kind_of_damage_with_a_typed_error() {
        let good = frame(3, b"payload");
        assert!(matches!(
            decode(&good[..5]),
            Err(BinError::Truncated { .. })
        ));
        assert!(matches!(
            decode(&good[..good.len() - 1]),
            Err(BinError::Truncated { .. })
        ));

        let mut bad_magic = good.clone();
        bad_magic[0] = b'{';
        assert!(matches!(decode(&bad_magic), Err(BinError::BadMagic(_))));

        let mut bad_version = good.clone();
        bad_version[2] = 9;
        assert_eq!(decode(&bad_version), Err(BinError::BadVersion(9)));

        let mut oversize = good.clone();
        oversize[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&oversize), Err(BinError::Oversize(_))));

        let mut flipped = good.clone();
        let mid = HEADER_LEN + 3;
        flipped[mid] ^= 0x40;
        assert!(matches!(
            decode(&flipped),
            Err(BinError::BadChecksum { .. })
        ));

        let mut trailing = good.clone();
        trailing.push(0);
        assert!(matches!(decode(&trailing), Err(BinError::Malformed(_))));
    }

    #[test]
    fn read_frame_interleaves_lines_and_binary_frames() {
        let mut stream = Vec::new();
        stream.extend_from_slice(b"{\"type\":\"open\"}\n");
        stream.extend_from_slice(&frame(1, b"abc"));
        stream.extend_from_slice(b"{\"type\":\"close\"}\r\n");
        stream.extend_from_slice(&frame(2, b""));
        let mut r = IoCursor::new(stream);

        assert_eq!(
            read_frame(&mut r).unwrap(),
            Some(RawFrame::Line("{\"type\":\"open\"}".to_string()))
        );
        match read_frame(&mut r).unwrap() {
            Some(RawFrame::Binary(raw)) => assert_eq!(decode(&raw).unwrap(), (1, &b"abc"[..])),
            other => panic!("expected binary frame, got {other:?}"),
        }
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Some(RawFrame::Line("{\"type\":\"close\"}".to_string()))
        );
        match read_frame(&mut r).unwrap() {
            Some(RawFrame::Binary(raw)) => assert_eq!(decode(&raw).unwrap(), (2, &b""[..])),
            other => panic!("expected binary frame, got {other:?}"),
        }
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn read_frame_reports_torn_binary_frames_as_unexpected_eof() {
        let full = frame(1, b"abcdef");
        let mut r = IoCursor::new(full[..full.len() - 2].to_vec());
        match read_frame(&mut r) {
            Err(ReadError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected UnexpectedEof, got {other:?}"),
        }
    }

    #[test]
    fn read_frame_caps_a_mutated_length_prefix_before_allocating() {
        let mut f = frame(1, b"abc");
        f[4..8].copy_from_slice(&(u32::MAX).to_le_bytes());
        let mut r = IoCursor::new(f);
        match read_frame(&mut r) {
            Err(ReadError::Frame(BinError::Oversize(_))) => {}
            other => panic!("expected Oversize, got {other:?}"),
        }
    }

    #[test]
    fn read_frame_caps_a_line_that_never_ends() {
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
        assert!(matches!(read_frame(&mut r), Err(ReadError::LineTooLong)));
        let pulled = r.get_ref().0;
        assert!(
            pulled <= MAX_LINE + chunk,
            "read {pulled} bytes for a {MAX_LINE}-byte cap"
        );
    }

    #[test]
    fn cursor_and_builder_are_inverse() {
        let mut b = Builder::new();
        b.u8(5).u16(513).u32(70_000).u64(1 << 40).str16("session-a");
        let payload = b.into_payload();
        let mut c = Cursor::new(&payload);
        assert_eq!(c.u8().unwrap(), 5);
        assert_eq!(c.u16().unwrap(), 513);
        assert_eq!(c.u32().unwrap(), 70_000);
        assert_eq!(c.u64().unwrap(), 1 << 40);
        assert_eq!(c.str16().unwrap(), "session-a");
        c.finish().unwrap();
    }

    #[test]
    fn cursor_rejects_short_reads_and_trailing_bytes() {
        let mut c = Cursor::new(&[1, 2]);
        assert!(matches!(c.u32(), Err(BinError::Truncated { .. })));
        let mut c = Cursor::new(&[1, 2, 3]);
        c.u8().unwrap();
        assert!(matches!(c.finish(), Err(BinError::Malformed(_))));
    }
}
