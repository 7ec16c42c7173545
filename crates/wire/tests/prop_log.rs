//! Property tests pinning the durable log's crash contract: a log cut at
//! any byte opens to exactly the records that were whole before the cut
//! and takes appends after it, and a flipped byte in any record before
//! the last is a typed error, never a skipped record.

use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use yf_wire::log::{Log, LogError};

/// A record body char: any control character but the newline, printable
/// ASCII, or any Unicode scalar.
fn body_char(seed: u32) -> char {
    let pick = seed / 3;
    let c = match seed % 3 {
        0 => char::from_u32(pick % 0x20).unwrap(),
        1 => char::from_u32(0x20 + pick % 0x5f).unwrap(),
        _ => char::from_u32(pick % 0x11_0000).unwrap_or('\u{fffd}'),
    };
    if c == '\n' {
        '\t'
    } else {
        c
    }
}

fn log_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("yf-prop-log-{tag}-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("prop.log");
    let _ = fs::remove_file(&path);
    path
}

/// Appends `bodies` to a fresh log at `path`; returns where each record
/// ends.
fn write_log(path: &Path, bodies: &[String]) -> Vec<usize> {
    let (mut log, records) = Log::open(path).unwrap();
    assert!(records.is_empty());
    bodies
        .iter()
        .map(|body| {
            log.append(body).unwrap();
            log.bytes() as usize
        })
        .collect()
}

fn bodies(seeds: &[Vec<u32>]) -> Vec<String> {
    seeds
        .iter()
        .map(|chars| chars.iter().map(|&c| body_char(c)).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_log_cut_at_any_byte_opens_to_its_whole_records_and_takes_appends(
        seeds in prop::collection::vec(prop::collection::vec(any::<u32>(), 0..10), 1..5),
    ) {
        let bodies = bodies(&seeds);
        let path = log_path("cut");
        let ends = write_log(&path, &bodies);
        let full = fs::read(&path).unwrap();
        for cut in 0..=full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            let (mut log, records) = Log::open(&path).unwrap();
            prop_assert_eq!(&records[..], &bodies[..whole], "cut at {}", cut);
            let kept = if whole == 0 { 0 } else { ends[whole - 1] };
            prop_assert_eq!(log.bytes() as usize, kept);
            prop_assert_eq!(fs::read(&path).unwrap(), &full[..kept]);
            log.append("after the cut").unwrap();
            drop(log);
            let (_, records) = Log::open(&path).unwrap();
            prop_assert_eq!(&records[..whole], &bodies[..whole]);
            prop_assert_eq!(&records[whole..], &["after the cut".to_string()][..]);
        }
    }

    #[test]
    fn a_flipped_byte_before_the_last_record_is_a_typed_error(
        seeds in prop::collection::vec(prop::collection::vec(any::<u32>(), 0..10), 2..5),
        pos_seed in any::<u64>(),
        bit in 0u32..8,
    ) {
        let bodies = bodies(&seeds);
        let path = log_path("flip");
        let ends = write_log(&path, &bodies);
        let mut damaged = fs::read(&path).unwrap();
        let pos = (pos_seed % ends[ends.len() - 2] as u64) as usize;
        damaged[pos] ^= 1 << bit;
        fs::write(&path, &damaged).unwrap();
        match Log::open(&path) {
            Err(LogError::Corrupt { .. }) => {}
            other => prop_assert!(false, "flip at {} bit {}: got {:?}", pos, bit, other),
        }
        prop_assert_eq!(fs::read(&path).unwrap(), damaged, "corruption is left as it is");
    }
}
