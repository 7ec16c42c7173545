//! Property tests pinning the wire dialect: arbitrary bit patterns
//! (including NaN payloads, ±inf, signed zeros, subnormals) must
//! round-trip bit-exactly as hex strings through the JSON layer, any
//! string must escape exactly like a per-character reference escaper,
//! and torn frames/files must be rejected, never silently accepted.
//! The line reader under every stream splits any byte stream exactly as
//! a reference splitter does, and types each line that is not UTF-8
//! instead of failing the stream on it.
//!
//! The float codec itself is `yf_tensor::hex`, pinned in that crate's
//! `prop_hex` tests; rows here are built inline, in the same format.

use proptest::prelude::*;
use std::io::{BufReader, Cursor};
use yf_wire::json::{self, Json};
use yf_wire::line::{self, ReadError};

/// An `f32` row in the wire format: `{:08x}` per value, joined with `,`.
fn hex_row(bits: &[u32]) -> String {
    bits.iter()
        .map(|b| format!("{b:08x}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// A character drawn to stress the escaper: quotes, backslashes, every
/// control character, printable ASCII, and any Unicode scalar (2-, 3-
/// and 4-byte UTF-8).
fn stress_char(seed: u32) -> char {
    let pick = seed / 4;
    match seed % 4 {
        0 => ['"', '\\', '/', '\u{7f}'][pick as usize % 4],
        1 => char::from_u32(pick % 0x20).unwrap(),
        2 => char::from_u32(0x20 + pick % 0x5f).unwrap(),
        _ => char::from_u32(pick % 0x11_0000).unwrap_or('\u{fffd}'),
    }
}

/// Bytes drawn to stress the line reader: newlines, carriage returns,
/// any single byte (often one that cannot stand alone in UTF-8), and
/// the encodings of [`stress_char`]s.
fn stress_bytes(seed: u32) -> Vec<u8> {
    let pick = seed / 8;
    match seed % 8 {
        0 | 1 => vec![b'\n'],
        2 => vec![b'\r'],
        3 => vec![pick as u8],
        _ => stress_char(pick).to_string().into_bytes(),
    }
}

/// The splitter the line reader must match: split on `\n`, drop the
/// empty piece after a final newline, and strip each line's trailing
/// `\r`s.
fn reference_lines(stream: &[u8]) -> Vec<&[u8]> {
    let mut lines: Vec<&[u8]> = stream.split(|&b| b == b'\n').collect();
    if lines.last().is_some_and(|l| l.is_empty()) {
        lines.pop();
    }
    for l in &mut lines {
        while let [rest @ .., b'\r'] = *l {
            *l = rest;
        }
    }
    lines
}

/// The escaper the writer must match, one character at a time.
fn reference_escape(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn strings_escape_like_the_reference_and_parse_back(
        seeds in prop::collection::vec(any::<u32>(), 0..40),
    ) {
        let s: String = seeds.iter().map(|&seed| stress_char(seed)).collect();
        let quoted = reference_escape(&s);
        prop_assert_eq!(&Json::Str(s.clone()).to_string(), &quoted);
        prop_assert_eq!(json::parse(&quoted).unwrap(), Json::Str(s.clone()));
        // Object keys go through the same escaper.
        let obj = Json::Obj(vec![(s.clone(), Json::Null)]);
        prop_assert_eq!(obj.to_string(), format!("{{{quoted}:null}}"));
        prop_assert_eq!(json::parse(&obj.to_string()).unwrap(), obj);
    }

    #[test]
    fn hex_floats_survive_a_json_frame(bits in prop::collection::vec(any::<u32>(), 1..20)) {
        // The dialect in one frame: floats as hex strings inside a
        // protocol-shaped object, serialized to a line and parsed back.
        let frame = Json::obj(vec![
            ("type", Json::str("measure")),
            ("step", Json::u64(bits.len() as u64)),
            ("grads", Json::str(hex_row(&bits))),
        ]);
        let line = frame.to_string();
        let back = json::parse(&line).unwrap();
        let back_bits: Vec<u32> = back
            .str_field("grads")
            .unwrap()
            .split(',')
            .map(|digits| u32::from_str_radix(digits, 16).unwrap())
            .collect();
        prop_assert_eq!(back_bits, bits);
    }

    #[test]
    fn torn_json_frames_are_rejected(bits in any::<u32>(), cut_seed in any::<u64>()) {
        // Any strict prefix of an object frame is torn and must fail to
        // parse; only the full line parses.
        let frame = Json::obj(vec![
            ("type", Json::str("hyper")),
            ("lr", Json::str(format!("{bits:08x}"))),
        ]);
        let line = frame.to_string();
        prop_assert!(json::parse(&line).is_ok());
        let cut = 1 + (cut_seed as usize) % (line.len() - 1);
        if line.is_char_boundary(cut) {
            prop_assert!(json::parse(&line[..cut]).is_err(), "cut at {}", cut);
        }
    }

    #[test]
    fn mutated_frames_parse_or_error_but_never_panic(
        bits in prop::collection::vec(any::<u32>(), 1..12),
        step in any::<u64>(),
        pos_seed in any::<u64>(),
        byte in any::<u8>(),
        cut_seed in any::<u64>(),
    ) {
        // The chaos proxy's corrupt-frame fault hands the decoder
        // arbitrary line damage; this pins the decoder's contract under
        // it: a typed `JsonError` or a (possibly nonsensical but valid)
        // value — never a panic, for any truncation or byte mutation.
        let frame = Json::obj(vec![
            ("type", Json::str("measure")),
            ("session", Json::str("fuzz \"target\" \\ line")),
            ("step", Json::u64(step)),
            ("grads", Json::str(hex_row(&bits))),
        ]);
        let line = frame.to_string();

        // Truncation at every byte offset the seed lands on.
        let cut = (cut_seed as usize) % (line.len() + 1);
        if line.is_char_boundary(cut) {
            let _ = json::parse(&line[..cut]);
        }

        // Single-byte overwrite anywhere in the frame. The damaged
        // bytes may no longer be UTF-8, so they re-enter the decoder
        // the way a socket read would: lossily re-decoded.
        let mut damaged = line.clone().into_bytes();
        let pos = (pos_seed as usize) % damaged.len();
        damaged[pos] = byte;
        let damaged = String::from_utf8_lossy(&damaged);
        let _ = json::parse(&damaged);
    }

    #[test]
    fn torn_sealed_files_are_rejected(body_bits in prop::collection::vec(any::<u64>(), 1..16),
                                      cut_seed in any::<u64>()) {
        // A sealed file truncated anywhere strictly inside must come
        // back `Torn`, never as silently shortened content.
        let body: String = body_bits
            .iter()
            .map(|&b| format!("v {b:016x}\n"))
            .collect();
        let dir = std::env::temp_dir().join(format!("yf-wire-prop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sealed.txt");
        yf_wire::fsio::write_sealed(&path, &body).unwrap();
        let sealed = std::fs::read_to_string(&path).unwrap();
        prop_assert_eq!(yf_wire::fsio::read_sealed(&path).unwrap(), body.clone());
        let cut = (cut_seed as usize) % sealed.len();
        std::fs::write(&path, &sealed[..cut]).unwrap();
        match yf_wire::fsio::read_sealed(&path) {
            Err(yf_wire::fsio::SealedFileError::Torn { .. }) => {}
            other => prop_assert!(false, "cut at {} must be Torn, got {:?}", cut, other.is_ok()),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn lines_read_like_the_reference_and_non_utf8_lines_are_typed(
        seeds in prop::collection::vec(any::<u32>(), 0..64),
        capacity in 1usize..16,
    ) {
        let stream: Vec<u8> = seeds.iter().flat_map(|&seed| stress_bytes(seed)).collect();
        // A small buffer makes lines straddle refills, as on a socket.
        let mut reader = BufReader::with_capacity(capacity, Cursor::new(stream.clone()));
        for want in reference_lines(&stream) {
            match (line::read_line(&mut reader), std::str::from_utf8(want)) {
                (Ok(Some(got)), Ok(want)) => prop_assert_eq!(got, want),
                (Err(ReadError::NotUtf8(e)), Err(_)) => prop_assert_eq!(e.as_bytes(), want),
                (got, want) => prop_assert!(false, "got {:?}, reference {:?}", got, want),
            }
        }
        prop_assert!(matches!(line::read_line(&mut reader), Ok(None)));
    }
}
