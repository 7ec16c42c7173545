//! Property tests pinning the float text codec: arbitrary bit patterns
//! (including NaN payloads, ±inf, signed zeros, subnormals) must
//! round-trip bit-exactly, every row must encode byte-for-byte like a
//! plain `format!` reference (the bytes earlier builds sealed into
//! snapshots and checkpoints), and damaged or truncated rows must fail
//! with a typed error, never panic and never decode to other values.

use proptest::prelude::*;
use yf_tensor::hex;

/// The reference encoding of an `f32` row: `{:08x}` per value, joined
/// with `,`.
fn f32_reference(bits: &[u32]) -> String {
    bits.iter()
        .map(|b| format!("{b:08x}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// The reference encoding of an `f64` row: `{:016x}` per value, joined
/// with `,`.
fn f64_reference(bits: &[u64]) -> String {
    bits.iter()
        .map(|b| format!("{b:016x}"))
        .collect::<Vec<_>>()
        .join(",")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn f32_bits_round_trip(bits in any::<u32>()) {
        let v = f32::from_bits(bits);
        let text = hex::f32_hex(v);
        prop_assert_eq!(&text, &format!("{bits:08x}"));
        let back = hex::f32_unhex(&text).unwrap();
        prop_assert_eq!(back.to_bits(), bits);
        let back = hex::f32_unhex(&text.to_ascii_uppercase()).unwrap();
        prop_assert_eq!(back.to_bits(), bits);
    }

    #[test]
    fn f64_bits_round_trip(bits in any::<u64>()) {
        let v = f64::from_bits(bits);
        let text = hex::f64_hex(v);
        prop_assert_eq!(&text, &format!("{bits:016x}"));
        let back = hex::f64_unhex(&text).unwrap();
        prop_assert_eq!(back.to_bits(), bits);
        let back = hex::f64_unhex(&text.to_ascii_uppercase()).unwrap();
        prop_assert_eq!(back.to_bits(), bits);
    }

    #[test]
    fn f32_rows_round_trip(bits in prop::collection::vec(any::<u32>(), 0..40)) {
        let values: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let row = hex::f32_row(&values);
        prop_assert_eq!(&row, &f32_reference(&bits));
        let mut appended = String::from("grads ");
        hex::push_f32_row(&mut appended, &values);
        prop_assert_eq!(&appended[6..], &row[..]);
        let back = hex::f32_unrow(&row).unwrap();
        let back_bits: Vec<u32> = back.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(back_bits, bits);
    }

    #[test]
    fn f64_rows_round_trip(bits in prop::collection::vec(any::<u64>(), 0..40)) {
        let values: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        let row = hex::f64_row(&values);
        prop_assert_eq!(&row, &f64_reference(&bits));
        let mut appended = String::from("biased ");
        hex::push_f64_row(&mut appended, &values);
        prop_assert_eq!(&appended[7..], &row[..]);
        let back = hex::f64_unrow(&row).unwrap();
        let back_bits: Vec<u64> = back.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(back_bits, bits);
    }

    #[test]
    fn metric_rows_round_trip(pairs in prop::collection::vec((any::<u64>(), any::<u64>()), 0..20)) {
        let metrics: Vec<(u64, f64)> = pairs
            .iter()
            .map(|&(i, b)| (i, f64::from_bits(b)))
            .collect();
        let row = hex::metric_row(&metrics);
        let reference = pairs
            .iter()
            .map(|(i, b)| format!("{i}@{b:016x}"))
            .collect::<Vec<_>>()
            .join(",");
        prop_assert_eq!(&row, &reference);
        let back = hex::metric_unrow(&row).unwrap();
        prop_assert_eq!(back.len(), metrics.len());
        for (got, want) in back.iter().zip(metrics.iter()) {
            prop_assert_eq!(got.0, want.0);
            prop_assert_eq!(got.1.to_bits(), want.1.to_bits());
        }
    }

    #[test]
    fn mutated_hex_rows_error_but_never_panic(
        bits in prop::collection::vec(any::<u32>(), 1..12),
        pos_seed in any::<u64>(),
        byte in any::<u8>(),
    ) {
        let values: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let mut row = hex::f32_row(&values).into_bytes();
        let pos = (pos_seed as usize) % row.len();
        row[pos] = byte;
        let row = String::from_utf8_lossy(&row);
        // Only a digit swapped for another digit still decodes, and then
        // to the same number of values.
        match hex::f32_unrow(&row) {
            Ok(back) => prop_assert_eq!(back.len(), values.len()),
            Err(e) => prop_assert!(!e.to_string().is_empty(), "typed error with a message"),
        }
    }

    #[test]
    fn truncated_hex_rows_decode_only_at_element_boundaries(
        bits in prop::collection::vec(any::<u64>(), 1..12),
        cut_seed in any::<u64>(),
    ) {
        // A row carries no length, so a cut right before a comma is a
        // shorter valid row; every other non-empty cut must be rejected.
        let f64_row = f64_reference(&bits);
        let cut = 1 + (cut_seed as usize) % (f64_row.len() - 1);
        match hex::f64_unrow(&f64_row[..cut]) {
            Ok(back) => {
                prop_assert_eq!((cut + 1) % 17, 0, "cut at {} decoded", cut);
                let back_bits: Vec<u64> = back.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(&back_bits[..], &bits[..back.len()]);
            }
            Err(_) => prop_assert!(!(cut + 1).is_multiple_of(17), "cut at {} rejected", cut),
        }
        let narrow: Vec<u32> = bits.iter().map(|&b| b as u32).collect();
        let f32_row = f32_reference(&narrow);
        let cut = 1 + (cut_seed as usize) % (f32_row.len() - 1);
        match hex::f32_unrow(&f32_row[..cut]) {
            Ok(back) => {
                prop_assert_eq!((cut + 1) % 9, 0, "cut at {} decoded", cut);
                let back_bits: Vec<u32> = back.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(&back_bits[..], &narrow[..back.len()]);
            }
            Err(_) => prop_assert!(!(cut + 1).is_multiple_of(9), "cut at {} rejected", cut),
        }
    }
}
