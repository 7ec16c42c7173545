//! Property tests pinning the wire dialect: arbitrary bit patterns
//! (including NaN payloads, ±inf, signed zeros, subnormals) must
//! round-trip bit-exactly as hex strings through the JSON layer, any
//! string must escape exactly like a per-character reference escaper,
//! and torn frames/files must be rejected, never silently accepted.
//! The binary dialect gets the same treatment: framed payloads
//! round-trip bit-exactly, and every truncation, length
//! mutation, or checksum flip yields a typed [`binary::BinError`] —
//! the decoders never panic and never read past the frame.
//!
//! The float codec itself is `yf_tensor::hex`, pinned in that crate's
//! `prop_hex` tests; rows here are built inline, in the same format.

use proptest::prelude::*;
use std::io::Cursor;
use yf_wire::binary::{self, RawFrame};
use yf_wire::json::{self, Json};

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
    fn binary_frames_round_trip_any_payload(tag in any::<u8>(),
                                            payload in prop::collection::vec(any::<u8>(), 0..512)) {
        let framed = binary::frame(tag, &payload);
        let (t, p) = binary::decode(&framed).unwrap();
        prop_assert_eq!(t, tag);
        prop_assert_eq!(p, &payload[..]);
        // And through the mixed-dialect reader: one frame, then EOF.
        let mut reader = Cursor::new(framed.clone());
        match binary::read_frame(&mut reader).unwrap() {
            Some(RawFrame::Binary(raw)) => prop_assert_eq!(raw, framed),
            other => prop_assert!(false, "expected binary frame, got {:?}", other),
        }
        prop_assert!(binary::read_frame(&mut reader).unwrap().is_none());
    }

    #[test]
    fn mutated_binary_frames_error_typed_but_never_panic(
        tag in any::<u8>(),
        payload in prop::collection::vec(any::<u8>(), 0..256),
        pos_seed in any::<u64>(),
        byte in any::<u8>(),
        cut_seed in any::<u64>(),
    ) {
        // Every single-byte overwrite (including the length prefix and
        // the checksum trailer) and every truncation must come back as
        // a typed error or a different-but-valid frame — never a panic,
        // and never an over-read past the buffer.
        let framed = binary::frame(tag, &payload);

        let cut = (cut_seed as usize) % framed.len();
        prop_assert!(binary::decode(&framed[..cut]).is_err(), "strict prefix must be torn");

        let mut damaged = framed.clone();
        let pos = (pos_seed as usize) % damaged.len();
        damaged[pos] = byte;
        match binary::decode(&damaged) {
            // A mutation that lands on the payload byte it already had,
            // or forges a consistent frame, may still decode; anything
            // else must be one of the typed failures.
            Ok(_) | Err(_) => {}
        }

        // The streaming reader on the same damage: reads a frame, hits
        // a typed framing error, or reports clean EOF — never panics,
        // never blocks past the buffer.
        let mut reader = Cursor::new(damaged);
        let _ = binary::read_frame(&mut reader);

        // Truncation through the reader, too (torn stream => Io error
        // or a clean EOF when the cut lands on a frame boundary).
        let mut reader = Cursor::new(framed[..cut].to_vec());
        let _ = binary::read_frame(&mut reader);
    }

    #[test]
    fn oversize_length_prefixes_are_rejected_before_allocation(
        len_bits in (binary::MAX_PAYLOAD as u32 + 1)..u32::MAX,
        tag in any::<u8>(),
    ) {
        // A forged length prefix above the cap must be rejected from
        // the 8 header bytes alone — not by attempting the allocation.
        let mut header = Vec::new();
        header.extend_from_slice(&binary::MAGIC);
        header.push(binary::VERSION);
        header.push(tag);
        header.extend_from_slice(&len_bits.to_le_bytes());
        let mut reader = Cursor::new(header.clone());
        match binary::read_frame(&mut reader) {
            Err(binary::ReadError::Frame(binary::BinError::Oversize(n))) =>
                prop_assert_eq!(n, len_bits),
            other => prop_assert!(false, "expected Oversize, got {:?}", other.is_ok()),
        }
        prop_assert!(matches!(
            binary::decode(&header),
            Err(binary::BinError::Oversize(_)) | Err(binary::BinError::Truncated { .. })
        ));
    }
}
