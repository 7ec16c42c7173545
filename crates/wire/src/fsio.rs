//! Crash-safe file primitives: atomic whole-file writes,
//! checksum-sealed reads that reject torn files with typed errors, and
//! the directory fsync that makes a created or renamed file durable.
//!
//! Every whole-state artifact (fleet checkpoints and per-cell results,
//! serve session snapshots) is written to a temporary sibling, fsynced,
//! and renamed into place, so a crash at any instant leaves either the
//! old file or the new one — never a mix. On top of that, sealed files
//! end with a checksum footer so even a file torn by a non-atomic writer
//! (or a fault injection simulating one) is detected at load time
//! instead of producing silent garbage. Appended state (serve session
//! logs, the fleet journal) lives in [`crate::log`] instead.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Error loading a sealed file.
#[derive(Debug)]
pub enum SealedFileError {
    /// The file does not exist.
    Missing(PathBuf),
    /// I/O error reading the file.
    Io(PathBuf, io::Error),
    /// The checksum footer is absent or does not match the body — the
    /// file was torn mid-write or corrupted at rest.
    Torn {
        /// The offending file.
        path: PathBuf,
        /// Why the seal was rejected.
        detail: String,
    },
}

impl fmt::Display for SealedFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SealedFileError::Missing(p) => write!(f, "{}: not found", p.display()),
            SealedFileError::Io(p, e) => write!(f, "{}: {e}", p.display()),
            SealedFileError::Torn { path, detail } => {
                write!(f, "{}: torn file rejected ({detail})", path.display())
            }
        }
    }
}

impl std::error::Error for SealedFileError {}

/// FNV-1a 64-bit checksum — stable, dependency-free, and plenty for
/// detecting truncation and bit rot in our own files.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const SEAL_PREFIX: &str = "#seal fnv1a ";

/// Appends the checksum footer to `body`.
fn seal(body: &str) -> String {
    let mut out = String::with_capacity(body.len() + 32);
    out.push_str(body);
    if !body.is_empty() && !body.ends_with('\n') {
        out.push('\n');
    }
    let hash = fnv1a(out.as_bytes());
    out.push_str(SEAL_PREFIX);
    out.push_str(&format!("{hash:016x}\n"));
    out
}

/// Splits a sealed payload back into its body, verifying the footer.
fn unseal(path: &Path, sealed: &str) -> Result<String, SealedFileError> {
    let torn = |detail: &str| SealedFileError::Torn {
        path: path.to_path_buf(),
        detail: detail.to_string(),
    };
    let without_nl = sealed
        .strip_suffix('\n')
        .ok_or_else(|| torn("no trailing newline"))?;
    let footer_at = without_nl.rfind('\n').map(|i| i + 1).unwrap_or(0);
    let footer = &without_nl[footer_at..];
    let hex = footer
        .strip_prefix(SEAL_PREFIX)
        .ok_or_else(|| torn("checksum footer missing"))?;
    let claimed = u64::from_str_radix(hex, 16).map_err(|_| torn("malformed checksum"))?;
    let body = &sealed[..footer_at];
    if fnv1a(body.as_bytes()) != claimed {
        return Err(torn("checksum mismatch"));
    }
    Ok(body.to_string())
}

/// Atomically replaces `path` with `body` plus a checksum footer: writes
/// a temporary sibling, fsyncs it, renames it over `path`, and fsyncs the
/// directory so the rename itself is durable.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_sealed(path: &Path, body: &str) -> io::Result<()> {
    write_atomic(path, seal(body).as_bytes())
}

/// Loads a file written by [`write_sealed`], rejecting torn or corrupted
/// content with a typed error.
///
/// # Errors
///
/// [`SealedFileError::Missing`] when absent, [`SealedFileError::Torn`]
/// when the checksum footer is absent or wrong.
pub fn read_sealed(path: &Path) -> Result<String, SealedFileError> {
    let mut text = String::new();
    match File::open(path) {
        Ok(mut f) => f
            .read_to_string(&mut text)
            .map_err(|e| SealedFileError::Io(path.to_path_buf(), e))?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Err(SealedFileError::Missing(path.to_path_buf()))
        }
        Err(e) => return Err(SealedFileError::Io(path.to_path_buf(), e)),
    };
    unseal(path, &text)
}

/// Atomically replaces `path` with `bytes` (tmp + fsync + rename +
/// directory fsync). Use [`write_sealed`] for files that will be read
/// back by the fleet; this raw variant serves reports and other
/// human-facing outputs that only need to never be half-written.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = path.with_file_name(format!(".{file_name}.tmp"));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    sync_dir(parent_dir(path))
}

/// The directory holding `path` (`.` for a bare file name).
pub(crate) fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

/// Fsyncs the directory `dir`, so the entries created in it or renamed
/// into it so far are durable.
///
/// # Errors
///
/// Every error of opening or syncing the directory, except the
/// `EINVAL` with which filesystems that cannot fsync a directory answer.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    match File::open(dir).and_then(|d| d.sync_all()) {
        Err(e) if e.kind() == io::ErrorKind::InvalidInput => Ok(()),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("yf-fsio-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn sealed_round_trip_and_replacement() {
        let dir = tmpdir("seal");
        let path = dir.join("state.txt");
        write_sealed(&path, "alpha 1\nbeta 2\n").unwrap();
        assert_eq!(read_sealed(&path).unwrap(), "alpha 1\nbeta 2\n");
        // Overwrite atomically; no tmp residue.
        write_sealed(&path, "gamma 3\n").unwrap();
        assert_eq!(read_sealed(&path).unwrap(), "gamma 3\n");
        assert!(!dir.join(".state.txt.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_files_are_rejected_with_typed_errors() {
        let dir = tmpdir("torn");
        let path = dir.join("state.txt");
        write_sealed(&path, "alpha 1\nbeta 2\n").unwrap();
        let sealed = fs::read_to_string(&path).unwrap();
        // Truncate mid-body: footer gone.
        fs::write(&path, &sealed[..sealed.len() / 2]).unwrap();
        assert!(matches!(
            read_sealed(&path),
            Err(SealedFileError::Torn { .. })
        ));
        // Flip a body byte under an intact footer: checksum mismatch.
        let corrupted = sealed.replacen("alpha", "alphA", 1);
        fs::write(&path, corrupted).unwrap();
        assert!(matches!(
            read_sealed(&path),
            Err(SealedFileError::Torn { .. })
        ));
        assert!(matches!(
            read_sealed(&dir.join("absent.txt")),
            Err(SealedFileError::Missing(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_dir_reports_a_missing_directory() {
        let dir = tmpdir("syncdir");
        sync_dir(&dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        assert!(sync_dir(&dir).is_err());
    }
}
