//! A durable append-only log of self-checking records.
//!
//! Each record is one line, `<body>\t<fnv1a(body) as 16 hex digits>\n`,
//! so a record checks itself. An append is one `write` plus one
//! `fdatasync` on a handle kept open between appends, which is far
//! cheaper than the tmp + fsync + rename + directory fsync of
//! [`crate::fsio::write_sealed`]. Bodies are single lines: the
//! [`crate::json`] writer escapes every control character, so an encoded
//! JSON value never holds a raw tab or newline.
//!
//! [`Log::open`] returns every whole record (one that ends in `\n` and
//! whose check matches) and cuts a torn tail before the first append,
//! so a new record never lands on a torn fragment. An append writes its
//! record, newline last, in one `write`, so a crash can leave only a
//! prefix of the record in flight: the torn tail is the bytes after the
//! last newline. A line that ends in its newline but is not a whole
//! record was damaged at rest, and is a typed [`LogError::Corrupt`],
//! never skipped.
//!
//! What a record means is the user's business, and so is compaction:
//! seal a snapshot that supersedes every record, then
//! [`Log::truncate`]. `yf-serve` keeps one log per session this way, and
//! the fleet journal is one log that is never compacted.

use crate::fsio::{fnv1a, parent_dir, sync_dir};
use std::fmt::{self, Write as _};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Error opening a log.
#[derive(Debug)]
pub enum LogError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Line `line` (1-based) ends in its newline but is not a whole
    /// record: the log was damaged at rest, not torn by a crash.
    Corrupt {
        /// The damaged line.
        line: usize,
        /// Why it is not a whole record.
        detail: &'static str,
    },
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "log i/o: {e}"),
            LogError::Corrupt { line, detail } => write!(
                f,
                "line {line} is not a checked `<body>\\t<fnv1a>` record ({detail})"
            ),
        }
    }
}

impl std::error::Error for LogError {}

impl From<io::Error> for LogError {
    fn from(e: io::Error) -> Self {
        LogError::Io(e)
    }
}

/// An open log. After a failed [`Log::append`] the file may end in a
/// fragment: drop the log and open it again, which cuts the fragment.
#[derive(Debug)]
pub struct Log {
    file: File,
    /// The log's directory until the first append has synced it, so the
    /// file's directory entry is durable before any acknowledged record.
    unsynced_dir: Option<PathBuf>,
    /// Bytes of whole records in the file.
    bytes: u64,
}

impl Log {
    /// Opens the log at `path`, creating it when absent, and returns it
    /// with every whole record's body in order. A torn tail is cut off
    /// and the cut synced before this returns.
    ///
    /// # Errors
    ///
    /// [`LogError::Io`] on an I/O failure, [`LogError::Corrupt`] when a
    /// line is not a whole record.
    pub fn open(path: &Path) -> Result<(Log, Vec<String>), LogError> {
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, whole) = scan(&bytes)?;
        if whole < bytes.len() {
            file.set_len(whole as u64)?;
            file.sync_all()?;
        }
        let log = Log {
            file,
            unsynced_dir: Some(parent_dir(path).to_path_buf()),
            bytes: whole as u64,
        };
        Ok((log, records))
    }

    /// Durably appends one record: one `write` and one `fdatasync`. The
    /// first append after [`Log::open`] syncs the log's directory first.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when `body` holds a newline; otherwise the
    /// underlying I/O error, after which the log must be re-opened.
    pub fn append(&mut self, body: &str) -> io::Result<()> {
        if body.contains('\n') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a log record cannot hold a newline",
            ));
        }
        if let Some(dir) = &self.unsynced_dir {
            sync_dir(dir)?;
            self.unsynced_dir = None;
        }
        let mut line = String::with_capacity(body.len() + 18);
        line.push_str(body);
        let _ = writeln!(line, "\t{:016x}", fnv1a(body.as_bytes()));
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()?;
        self.bytes += line.len() as u64;
        Ok(())
    }

    /// Bytes of whole records in the log.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Durably empties the log: the second half of a compaction, once
    /// the state that supersedes every record is sealed.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn truncate(&mut self) -> io::Result<()> {
        if self.bytes > 0 {
            self.file.set_len(0)?;
            self.file.sync_all()?;
            self.bytes = 0;
        }
        Ok(())
    }
}

/// Splits `bytes` into record bodies and the length of the whole-record
/// prefix; the bytes after it, which hold no newline, are the torn tail.
fn scan(bytes: &[u8]) -> Result<(Vec<String>, usize), LogError> {
    let mut records = Vec::new();
    let (mut at, mut line) = (0, 0);
    while let Some(end) = bytes[at..].iter().position(|&b| b == b'\n') {
        line += 1;
        let body =
            record(&bytes[at..at + end]).map_err(|detail| LogError::Corrupt { line, detail })?;
        records.push(body.to_string());
        at += end + 1;
    }
    Ok((records, at))
}

/// The body of one line (without its newline), when it is a whole
/// record.
fn record(line: &[u8]) -> Result<&str, &'static str> {
    let split = line
        .len()
        .checked_sub(17)
        .filter(|&i| line[i] == b'\t')
        .ok_or("no record check")?;
    let claimed = line[split + 1..]
        .iter()
        .try_fold(0u64, |acc, &b| {
            let digit = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                _ => return None,
            };
            Some(acc << 4 | u64::from(digit))
        })
        .ok_or("malformed record check")?;
    let body = &line[..split];
    if fnv1a(body) != claimed {
        return Err("record check mismatch");
    }
    std::str::from_utf8(body).map_err(|_| "record is not UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("yf-log-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn appends_replay_in_order_and_truncate_empties() {
        let dir = tmpdir("append");
        let path = dir.join("a.log");
        let (mut log, records) = Log::open(&path).unwrap();
        assert!(records.is_empty());
        log.append("{\"e\":\"a\"}").unwrap();
        log.append("tab\\tescaped").unwrap();
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            format!(
                "{{\"e\":\"a\"}}\t{:016x}\ntab\\tescaped\t{:016x}\n",
                fnv1a(b"{\"e\":\"a\"}"),
                fnv1a(b"tab\\tescaped")
            )
        );
        assert_eq!(log.bytes(), fs::metadata(&path).unwrap().len());
        let err = log.append("two\nlines").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        drop(log);
        let (mut log, records) = Log::open(&path).unwrap();
        assert_eq!(records, ["{\"e\":\"a\"}", "tab\\tescaped"]);
        log.truncate().unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), 0);
        log.append("after").unwrap();
        drop(log);
        assert_eq!(Log::open(&path).unwrap().1, ["after"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn only_an_unterminated_tail_is_torn() {
        let dir = tmpdir("torn");
        let path = dir.join("t.log");
        let (mut log, _) = Log::open(&path).unwrap();
        log.append("one").unwrap();
        log.append("two").unwrap();
        drop(log);
        let whole = fs::read(&path).unwrap();
        let mut torn = whole.clone();
        torn.extend_from_slice(b"three\t0123");
        fs::write(&path, &torn).unwrap();
        assert_eq!(Log::open(&path).unwrap().1, ["one", "two"]);
        assert_eq!(fs::read(&path).unwrap(), whole, "the torn tail is cut");
        // A terminated line that is not a whole record is corruption,
        // wherever it sits, and is left on disk as it is.
        for (damaged, want) in [
            (
                [&whole[..], b"three\t0123456789abcdef\n"].concat(),
                (3, "record check mismatch"),
            ),
            ([&whole[..], b"\n"].concat(), (3, "no record check")),
            (
                [&b"legacy line\n"[..], &whole[..]].concat(),
                (1, "no record check"),
            ),
        ] {
            fs::write(&path, &damaged).unwrap();
            match Log::open(&path) {
                Err(LogError::Corrupt { line, detail }) => assert_eq!((line, detail), want),
                other => panic!("expected {want:?}, got {other:?}"),
            }
            assert_eq!(fs::read(&path).unwrap(), damaged);
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
