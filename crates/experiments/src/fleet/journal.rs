//! The durable job journal: an append-only log of JSON events that
//! makes a grid sweep's progress survive coordinator and worker crashes.
//!
//! Every state transition of every `(value, seed)` cell is one record
//! of a [`Log`], fsynced before the coordinator acts on
//! it — `job` (enqueued), `lease` (dispatched to a worker), `done`
//! (result durably on disk), `fail` (attempt ended without a result).
//! Replaying the log reconstructs exactly which cells are finished and
//! how many attempts each open cell has consumed, so a restarted
//! coordinator resumes the sweep without re-running completed cells.
//! Each record checks itself, and replay cuts a torn final record (the
//! classic crash-mid-append) off the file before the next append, so a
//! new event never lands on the fragment.

use super::json::{self, Json};
use super::log::{Log, LogError};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
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
    /// A record other than the torn tail is damaged or fails to parse,
    /// or the journal predates checked records.
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

impl From<LogError> for JournalError {
    fn from(e: LogError) -> Self {
        match e {
            LogError::Io(e) => JournalError::Io(e),
            corrupt => JournalError::Malformed(corrupt.to_string()),
        }
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
}

/// The append-only journal file.
pub struct Journal {
    path: PathBuf,
    /// The log as the last replay or append left it open; `None` before
    /// either and after a failed append, so the next use re-opens the
    /// file and cuts whatever the failure left.
    log: Mutex<Option<Log>>,
}

impl Journal {
    /// Names the journal at `dir/journal.jsonl`; the file is opened on
    /// first use.
    pub fn open(dir: &Path) -> Journal {
        Journal {
            path: dir.join("journal.jsonl"),
            log: Mutex::new(None),
        }
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Durably appends one event (one fsynced record).
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on I/O failure; opening the journal for its
    /// first append can also fail as [`Journal::replay`] does.
    pub fn append(&self, event: &Event) -> Result<(), JournalError> {
        let mut slot = self.log.lock().expect("journal lock poisoned");
        let log = match slot.as_mut() {
            Some(log) => log,
            None => slot.insert(Log::open(&self.path)?.0),
        };
        let appended = log.append(&event.to_json().to_string());
        if appended.is_err() {
            *slot = None;
        }
        Ok(appended?)
    }

    /// Replays the journal into per-cell state, creating an empty
    /// journal when none exists. A torn final record (crash mid-append)
    /// is cut off the file; damage anywhere else is corruption.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on I/O failure, [`JournalError::Malformed`]
    /// on corruption, a journal without record checks, or events
    /// referencing unknown cells.
    pub fn replay(&self) -> Result<Replay, JournalError> {
        let (log, records) = Log::open(&self.path)?;
        let mut replay = Replay::default();
        for (i, record) in records.iter().enumerate() {
            let event = json::parse(record)
                .map_err(|e| e.to_string())
                .and_then(|v| Event::from_json(&v).map_err(|e| e.to_string()))
                .map_err(|e| JournalError::Malformed(format!("line {}: {e}", i + 1)))?;
            replay.apply(event, i + 1)?;
        }
        *self.log.lock().expect("journal lock poisoned") = Some(log);
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

    /// Appends raw bytes behind the journal's back, as a crash
    /// mid-append or a damaged disk would leave them.
    fn append_raw(j: &Journal, bytes: &[u8]) {
        use std::io::Write;
        let mut f = fs::OpenOptions::new().append(true).open(j.path()).unwrap();
        f.write_all(bytes).unwrap();
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
        let whole = fs::read(j.path()).unwrap();
        // Simulate a crash mid-append: a partial line with no newline.
        append_raw(&j, b"{\"e\":\"done\",\"cel");
        let r = j.replay().unwrap();
        assert_eq!(r.cells.len(), 1);
        assert!(!r.cells[0].done, "torn done event must not count");
        assert_eq!(
            fs::read(j.path()).unwrap(),
            whole,
            "replay cuts the torn tail"
        );

        // Interior corruption (a damaged record before a whole one) is
        // fatal, and the journal is left as it is.
        let mut damaged = whole.clone();
        damaged[3] ^= 0x20;
        damaged.extend_from_slice(&whole);
        fs::write(j.path(), &damaged).unwrap();
        assert!(matches!(j.replay(), Err(JournalError::Malformed(_))));
        assert_eq!(fs::read(j.path()).unwrap(), damaged);

        // A whole record that is not an event is malformed too.
        fs::write(j.path(), b"").unwrap();
        let mut log = Log::open(j.path()).unwrap().0;
        log.append("not json").unwrap();
        assert!(matches!(j.replay(), Err(JournalError::Malformed(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_append_after_a_torn_tail_is_replayed_whole() {
        // A torn tail that replay dropped but left on disk would glue
        // the next event onto the fragment, and every later replay of
        // the sweep would fail on the glued line.
        let dir = tmpdir("glue");
        let j = Journal::open(&dir);
        j.append(&Event::Job {
            cell: 0,
            value_bits: 1,
            seed: 1,
        })
        .unwrap();
        append_raw(&j, b"{\"e\":\"done\",\"cel");
        assert_eq!(j.replay().unwrap().cells.len(), 1);
        j.append(&Event::Lease {
            cell: 0,
            worker: 0,
            attempt: 0,
        })
        .unwrap();
        let r = Journal::open(&dir).replay().unwrap();
        assert_eq!(r.cells.len(), 1);
        assert_eq!(r.cells[0].attempts, 1, "the lease counts");
        assert!(!r.cells[0].done);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journals_without_record_checks_are_refused() {
        // The format before checked records: one bare JSON event a line.
        let dir = tmpdir("legacy");
        let j = Journal::open(&dir);
        let legacy = "{\"e\":\"job\",\"cell\":0,\"value\":\"3dcccccd\",\"seed\":7}\n\
                      {\"e\":\"lease\",\"cell\":0,\"worker\":0,\"attempt\":0}\n";
        fs::write(j.path(), legacy).unwrap();
        match j.replay() {
            Err(JournalError::Malformed(msg)) => {
                assert!(msg.contains("line 1 is not a checked"), "{msg}");
            }
            other => panic!("expected a refused journal, got {other:?}"),
        }
        assert_eq!(
            fs::read_to_string(j.path()).unwrap(),
            legacy,
            "left as it is"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn job_record_bytes_are_frozen() {
        // Format-freeze pin: journals resume across builds only while a
        // record's bytes stay the same.
        let dir = tmpdir("pin");
        let j = Journal::open(&dir);
        j.append(&Event::Job {
            cell: 3,
            value_bits: 0x3dcc_cccd,
            seed: 7,
        })
        .unwrap();
        let record = fs::read(j.path()).unwrap();
        assert_eq!(
            (record.len(), super::super::fsio::fnv1a(&record)),
            (66, 0xb2f8_5f56_c8f4_0c4b),
            "{}",
            String::from_utf8_lossy(&record)
        );
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
