//! The durable job journal: an append-only JSONL event log that makes a
//! grid sweep's progress survive coordinator and worker crashes.
//!
//! Every state transition of every `(value, seed)` cell is one fsynced
//! line — `job` (enqueued), `lease` (dispatched to a worker), `done`
//! (result durably on disk), `fail` (attempt ended without a result).
//! Replaying the log reconstructs exactly which cells are finished and
//! how many attempts each open cell has consumed, so a restarted
//! coordinator resumes the sweep without re-running completed cells. A
//! torn final line (the classic crash-mid-append) is tolerated: replay
//! ignores it and the next append supersedes it.

use super::fsio::append_line_durable;
use super::json::{self, Json};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use yf_tensor::hex;

/// One journal event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A cell was enqueued with its grid coordinates.
    Job {
        /// Cell index in canonical grid order.
        cell: usize,
        /// Grid value, as `f32` bits.
        value_bits: u32,
        /// Training seed.
        seed: u64,
    },
    /// A cell was dispatched to a worker.
    Lease {
        /// Cell index.
        cell: usize,
        /// Worker slot it went to.
        worker: usize,
        /// 0-based dispatch attempt.
        attempt: u32,
    },
    /// A cell's result is durably on disk.
    Done {
        /// Cell index.
        cell: usize,
    },
    /// A dispatch attempt failed.
    Fail {
        /// Cell index.
        cell: usize,
        /// The attempt that failed.
        attempt: u32,
        /// Why.
        error: String,
    },
}

impl Event {
    fn to_json(&self) -> Json {
        match self {
            Event::Job {
                cell,
                value_bits,
                seed,
            } => Json::obj(vec![
                ("e", Json::str("job")),
                ("cell", Json::u64(*cell as u64)),
                (
                    "value",
                    Json::str(hex::f32_hex(f32::from_bits(*value_bits))),
                ),
                ("seed", Json::u64(*seed)),
            ]),
            Event::Lease {
                cell,
                worker,
                attempt,
            } => Json::obj(vec![
                ("e", Json::str("lease")),
                ("cell", Json::u64(*cell as u64)),
                ("worker", Json::u64(*worker as u64)),
                ("attempt", Json::u64(u64::from(*attempt))),
            ]),
            Event::Done { cell } => Json::obj(vec![
                ("e", Json::str("done")),
                ("cell", Json::u64(*cell as u64)),
            ]),
            Event::Fail {
                cell,
                attempt,
                error,
            } => Json::obj(vec![
                ("e", Json::str("fail")),
                ("cell", Json::u64(*cell as u64)),
                ("attempt", Json::u64(u64::from(*attempt))),
                ("error", Json::str(error.clone())),
            ]),
        }
    }

    fn from_json(v: &Json) -> Result<Event, JournalError> {
        let bad = |msg: String| JournalError::Malformed(msg);
        let kind = v
            .str_field("e")
            .map_err(|e| bad(e.to_string()))?
            .to_string();
        let cell = v.u64_field("cell").map_err(|e| bad(e.to_string()))? as usize;
        match kind.as_str() {
            "job" => {
                let text = v.str_field("value").map_err(|e| bad(e.to_string()))?;
                let value_bits = hex::f32_unhex(text)
                    .map_err(|_| bad(format!("bad value bits {text:?}")))?
                    .to_bits();
                let seed = v.u64_field("seed").map_err(|e| bad(e.to_string()))?;
                Ok(Event::Job {
                    cell,
                    value_bits,
                    seed,
                })
            }
            "lease" => Ok(Event::Lease {
                cell,
                worker: v.u64_field("worker").map_err(|e| bad(e.to_string()))? as usize,
                attempt: v.u64_field("attempt").map_err(|e| bad(e.to_string()))? as u32,
            }),
            "done" => Ok(Event::Done { cell }),
            "fail" => Ok(Event::Fail {
                cell,
                attempt: v.u64_field("attempt").map_err(|e| bad(e.to_string()))? as u32,
                error: v
                    .str_field("error")
                    .map_err(|e| bad(e.to_string()))?
                    .to_string(),
            }),
            other => Err(bad(format!("unknown event kind {other:?}"))),
        }
    }
}

/// Journal I/O or format error.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// An interior line (not the torn tail) failed to parse.
    Malformed(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o: {e}"),
            JournalError::Malformed(m) => write!(f, "journal corrupt: {m}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Replayed per-cell state.
#[derive(Debug, Clone, PartialEq)]
pub struct CellState {
    /// Grid value bits from the `job` event.
    pub value_bits: u32,
    /// Seed from the `job` event.
    pub seed: u64,
    /// Dispatch attempts consumed so far (`lease` events seen).
    pub attempts: u32,
    /// Whether a `done` event was recorded.
    pub done: bool,
    /// Last failure message, if any attempt failed.
    pub last_error: Option<String>,
}

/// The whole sweep's replayed state.
#[derive(Debug, Default)]
pub struct Replay {
    /// Per-cell states, indexed by cell (dense; `job` events define it).
    pub cells: Vec<CellState>,
    /// Whether a torn trailing line was dropped during replay.
    pub dropped_torn_tail: bool,
}

/// The append-only journal file.
pub struct Journal {
    path: PathBuf,
}

impl Journal {
    /// Opens (or names) the journal at `dir/journal.jsonl`.
    pub fn open(dir: &Path) -> Journal {
        Journal {
            path: dir.join("journal.jsonl"),
        }
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Durably appends one event (single fsynced line).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn append(&self, event: &Event) -> Result<(), JournalError> {
        append_line_durable(&self.path, &event.to_json().to_string())?;
        Ok(())
    }

    /// Replays the journal into per-cell state. A missing file replays to
    /// an empty sweep; a torn *final* line is dropped (crash mid-append);
    /// a malformed interior line is corruption and errors.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on read failure, [`JournalError::Malformed`]
    /// on interior corruption or events referencing unknown cells.
    pub fn replay(&self) -> Result<Replay, JournalError> {
        let text = match std::fs::read_to_string(&self.path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Replay::default()),
            Err(e) => return Err(JournalError::Io(e)),
        };
        let lines: Vec<&str> = text.lines().collect();
        let mut replay = Replay::default();
        for (i, line) in lines.iter().enumerate() {
            let last = i + 1 == lines.len();
            let parsed = json::parse(line)
                .map_err(|e| e.to_string())
                .and_then(|v| Event::from_json(&v).map_err(|e| e.to_string()));
            let event = match parsed {
                Ok(ev) => ev,
                Err(_) if last && !text.ends_with('\n') => {
                    // Torn tail: the process died mid-append. The event
                    // never became durable; drop it.
                    replay.dropped_torn_tail = true;
                    break;
                }
                Err(e) => return Err(JournalError::Malformed(format!("line {}: {e}", i + 1))),
            };
            replay.apply(event, i + 1)?;
        }
        Ok(replay)
    }
}

impl Replay {
    fn apply(&mut self, event: Event, line_no: usize) -> Result<(), JournalError> {
        let known = |cells: &mut Vec<CellState>, cell: usize| -> Result<(), JournalError> {
            if cell >= cells.len() {
                return Err(JournalError::Malformed(format!(
                    "line {line_no}: event for unknown cell {cell}"
                )));
            }
            Ok(())
        };
        match event {
            Event::Job {
                cell,
                value_bits,
                seed,
            } => {
                if cell != self.cells.len() {
                    return Err(JournalError::Malformed(format!(
                        "line {line_no}: job event for cell {cell}, expected {}",
                        self.cells.len()
                    )));
                }
                self.cells.push(CellState {
                    value_bits,
                    seed,
                    attempts: 0,
                    done: false,
                    last_error: None,
                });
            }
            Event::Lease { cell, .. } => {
                known(&mut self.cells, cell)?;
                self.cells[cell].attempts += 1;
            }
            Event::Done { cell } => {
                known(&mut self.cells, cell)?;
                self.cells[cell].done = true;
            }
            Event::Fail { cell, error, .. } => {
                known(&mut self.cells, cell)?;
                self.cells[cell].last_error = Some(error);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("yf-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn replay_reconstructs_cell_states() {
        let dir = tmpdir("replay");
        let j = Journal::open(&dir);
        j.append(&Event::Job {
            cell: 0,
            value_bits: 0x3dcc_cccd,
            seed: 7,
        })
        .unwrap();
        j.append(&Event::Job {
            cell: 1,
            value_bits: 0x3e4c_cccd,
            seed: 7,
        })
        .unwrap();
        j.append(&Event::Lease {
            cell: 0,
            worker: 0,
            attempt: 0,
        })
        .unwrap();
        j.append(&Event::Fail {
            cell: 0,
            attempt: 0,
            error: "worker died".to_string(),
        })
        .unwrap();
        j.append(&Event::Lease {
            cell: 0,
            worker: 1,
            attempt: 1,
        })
        .unwrap();
        j.append(&Event::Done { cell: 0 }).unwrap();
        let r = j.replay().unwrap();
        assert_eq!(r.cells.len(), 2);
        assert!(r.cells[0].done);
        assert_eq!(r.cells[0].attempts, 2);
        assert_eq!(r.cells[0].last_error.as_deref(), Some("worker died"));
        assert!(!r.cells[1].done);
        assert_eq!(r.cells[1].attempts, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_interior_corruption_is_fatal() {
        let dir = tmpdir("torn");
        let j = Journal::open(&dir);
        j.append(&Event::Job {
            cell: 0,
            value_bits: 1,
            seed: 1,
        })
        .unwrap();
        // Simulate a crash mid-append: a partial line with no newline.
        use std::io::Write;
        let mut f = fs::OpenOptions::new().append(true).open(j.path()).unwrap();
        f.write_all(b"{\"e\":\"done\",\"cel").unwrap();
        drop(f);
        let r = j.replay().unwrap();
        assert!(r.dropped_torn_tail);
        assert_eq!(r.cells.len(), 1);
        assert!(!r.cells[0].done, "torn done event must not count");

        // Interior corruption (a complete but malformed line) is fatal.
        fs::write(
            j.path(),
            "{\"e\":\"job\",\"cell\":0,\"value\":\"01\",\"seed\":1}\nnot json\n{\"e\":\"done\",\"cell\":0}\n",
        )
        .unwrap();
        assert!(matches!(j.replay(), Err(JournalError::Malformed(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_journal_replays_empty() {
        let dir = tmpdir("empty");
        let r = Journal::open(&dir).replay().unwrap();
        assert!(r.cells.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}
