//! Fleet fault-injection matrix: every recovery path must converge to a
//! merged [`GridOutcome`] bitwise identical to the uninterrupted
//! in-process sweep.
//!
//! Each test arms one deterministic fault (`YF_FAULT` in the spawned
//! workers, via [`FleetConfig::fault_spec`]), lets the coordinator
//! recover, and compares the outcome against [`grid_search`] run in this
//! process with the same registry builders.

use std::path::{Path, PathBuf};
use std::time::Duration;
use yf_experiments::fleet::{
    self, codec, fsio,
    journal::{Event, Journal},
    registry, run_fleet, FleetConfig, FleetError, FleetSpec, WorkerTransport,
};
use yf_experiments::grid::{grid_cells, grid_search, GridOutcome};
use yf_experiments::trainer::RunConfig;

const VALUES: [f32; 2] = [0.05, 0.1];
const SEEDS: [u64; 2] = [1, 2];
const ITERS: usize = 60;
const EVAL_EVERY: usize = 20;
const WINDOW: usize = 5;

fn spec() -> FleetSpec {
    FleetSpec {
        task: "toy-mlp".to_string(),
        opt: "momentum".to_string(),
        values: VALUES.to_vec(),
        seeds: SEEDS.to_vec(),
        iters: ITERS,
        eval_every: EVAL_EVERY,
        window: WINDOW,
    }
}

fn config(fault: Option<&str>) -> FleetConfig {
    FleetConfig {
        workers: 2,
        transport: WorkerTransport::Stdio,
        max_attempts: 3,
        lease_timeout: Duration::from_secs(20),
        backoff_base: Duration::from_millis(5),
        checkpoint_every: 10,
        fault_spec: fault.map(str::to_string),
        chaos_spec: None,
    }
}

fn worker_bin() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_yf-fleet-worker"))
}

fn sweep_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("yf-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The ground truth: the same grid swept uninterrupted in this process.
fn baseline() -> GridOutcome {
    let cfg = RunConfig::plain(ITERS).with_eval(EVAL_EVERY);
    let make_task = registry::task_builder("toy-mlp").unwrap();
    let make_opt = registry::opt_builder("momentum").unwrap();
    grid_search(
        &VALUES,
        &SEEDS,
        WINDOW,
        &cfg,
        |seed| make_task(seed),
        |value| make_opt(value),
    )
}

#[test]
fn fault_free_fleet_matches_in_process_sweep() {
    let dir = sweep_dir("clean");
    let report = run_fleet(&spec(), &config(None), &dir, worker_bin()).unwrap();
    assert_eq!(
        report.outcome,
        baseline(),
        "fleet outcome must be bitwise identical"
    );
    assert_eq!(report.executed_cells, 4);
    assert_eq!(report.retries, 0);
    assert_eq!(report.recovered_results, 0);
    // Every cell ended durably done in the journal.
    let replay = Journal::open(&dir).replay().unwrap();
    assert_eq!(replay.cells.len(), 4);
    assert!(replay.cells.iter().all(|c| c.done));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkilled_worker_mid_cell_recovers_bitwise() {
    // SIGKILL the worker at step 25 of cell 1 (attempt 0 only): the
    // retry must resume from the step-20 checkpoint and the merged
    // outcome must not show a single flipped bit.
    let dir = sweep_dir("kill");
    let report = run_fleet(&spec(), &config(Some("kill:1:25")), &dir, worker_bin()).unwrap();
    assert_eq!(report.outcome, baseline());
    assert!(report.retries >= 1, "the killed cell must be re-dispatched");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panicking_worker_is_retried_to_the_same_bits() {
    let dir = sweep_dir("panic");
    let report = run_fleet(&spec(), &config(Some("panic:3:15")), &dir, worker_bin()).unwrap();
    assert_eq!(report.outcome, baseline());
    assert!(report.retries >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_checkpoint_write_is_rejected_and_recovered() {
    // The worker writes the step-20 checkpoint of cell 0 truncated and
    // unsealed, then dies cold. The retry must reject the torn file,
    // restart the cell from scratch, and still merge identically.
    let dir = sweep_dir("torn");
    let report = run_fleet(&spec(), &config(Some("torn:0:20")), &dir, worker_bin()).unwrap();
    assert_eq!(report.outcome, baseline());
    assert!(report.retries >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hung_worker_is_reaped_by_the_lease_timeout() {
    // The worker stops making progress at step 30 of cell 2; no
    // heartbeats arrive, the lease expires, the coordinator SIGKILLs the
    // worker and re-dispatches the cell.
    let dir = sweep_dir("hang");
    let cfg = FleetConfig {
        lease_timeout: Duration::from_millis(900),
        ..config(Some("hang:2:30"))
    };
    let report = run_fleet(&spec(), &cfg, &dir, worker_bin()).unwrap();
    assert_eq!(report.outcome, baseline());
    assert!(report.retries >= 1, "the hung cell must be re-dispatched");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exhausted_attempts_fail_the_sweep_with_a_typed_error() {
    // Arm the fault on every attempt the config allows: the cell can
    // never finish and the sweep must surface JobFailed (leaving the
    // journal behind for a later resume).
    let dir = sweep_dir("exhaust");
    let cfg = FleetConfig {
        max_attempts: 1,
        ..config(Some("panic:0:5"))
    };
    let err = run_fleet(&spec(), &cfg, &dir, worker_bin()).unwrap_err();
    match err {
        FleetError::JobFailed { cell, attempts, .. } => {
            assert_eq!(cell, 0);
            assert_eq!(attempts, 1);
        }
        other => panic!("expected JobFailed, got {other}"),
    }
    assert!(Journal::open(&dir).path().exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn coordinator_restart_resumes_without_rerunning_done_cells() {
    // Phase 1: a single worker sweeps cells in order and is SIGKILLed at
    // step 25 of cell 2 with retries disabled — the sweep fails with
    // cells 0 and 1 durably done and cell 2's step-20 checkpoint sealed
    // on disk.
    let dir = sweep_dir("restart");
    let crash_cfg = FleetConfig {
        workers: 1,
        max_attempts: 1,
        ..config(Some("kill:2:25"))
    };
    let err = run_fleet(&spec(), &crash_cfg, &dir, worker_bin()).unwrap_err();
    assert!(
        matches!(err, FleetError::JobFailed { cell: 2, .. }),
        "{err}"
    );
    let replay = Journal::open(&dir).replay().unwrap();
    assert!(replay.cells[0].done && replay.cells[1].done);
    assert!(!replay.cells[2].done && !replay.cells[3].done);
    let ckpt_text = fsio::read_sealed(&fleet::checkpoint_path(&dir, 2)).unwrap();
    let ckpt = codec::decode_checkpoint(&ckpt_text).unwrap();
    assert_eq!(ckpt.step, 20, "the step-20 checkpoint survived the SIGKILL");

    // Phase 2: a fresh coordinator against the same directory resumes
    // from the journal — done cells are recovered, not re-run; cell 2
    // resumes from its checkpoint; the merge is still bit-identical.
    let report = run_fleet(&spec(), &config(None), &dir, worker_bin()).unwrap();
    assert_eq!(report.recovered_results, 2, "done cells must not re-run");
    assert_eq!(report.executed_cells, 2, "only cells 2 and 3 run again");
    assert_eq!(report.outcome, baseline());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_journal_tail_resumes_and_resumes_again_bitwise() {
    // A sweep directory whose journal ends in a torn event, as a
    // coordinator killed mid-append leaves it: every cell enqueued, then
    // half a lease. The first run resumes the sweep and appends its
    // events after the torn tail; the second must still read them all.
    let dir = sweep_dir("torn-journal");
    std::fs::create_dir_all(&dir).unwrap();
    let journal = Journal::open(&dir);
    for (cell, (value, seed)) in grid_cells(&VALUES, &SEEDS).into_iter().enumerate() {
        journal
            .append(&Event::Job {
                cell,
                value_bits: value.to_bits(),
                seed,
            })
            .unwrap();
    }
    drop(journal);
    let mut tail = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("journal.jsonl"))
        .unwrap();
    std::io::Write::write_all(&mut tail, b"{\"e\":\"lease\",\"cel").unwrap();
    drop(tail);

    let first = run_fleet(&spec(), &config(None), &dir, worker_bin()).unwrap();
    assert_eq!(first.outcome, baseline());
    assert_eq!(first.executed_cells, 4);
    let second = run_fleet(&spec(), &config(None), &dir, worker_bin()).unwrap();
    assert_eq!(second.outcome, baseline());
    assert_eq!(second.recovered_results, 4, "done cells must not re-run");
    assert_eq!(second.executed_cells, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tcp_transport_sweeps_to_the_same_bits_as_stdio() {
    // The acceptance bar for the network transport: the same grid over
    // `--transport tcp` merges to a GridOutcome bitwise identical to the
    // stdio path (which the clean test above pins to the in-process
    // baseline).
    let dir = sweep_dir("tcp");
    let cfg = FleetConfig {
        transport: WorkerTransport::Tcp,
        ..config(None)
    };
    let report = run_fleet(&spec(), &cfg, &dir, worker_bin()).unwrap();
    assert_eq!(
        report.outcome,
        baseline(),
        "tcp fleet outcome must be bitwise identical to stdio/in-process"
    );
    assert_eq!(report.executed_cells, 4);
    assert_eq!(report.retries, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tcp_transport_recovers_a_sigkilled_worker_bitwise() {
    // Same fault as the stdio kill test, but the dead worker takes its
    // TCP connection with it: the reader thread sees EOF, the slot is
    // relaunched (new socket), and the retry resumes from the sealed
    // checkpoint to the same bits.
    let dir = sweep_dir("tcp-kill");
    let cfg = FleetConfig {
        transport: WorkerTransport::Tcp,
        ..config(Some("kill:1:25"))
    };
    let report = run_fleet(&spec(), &cfg, &dir, worker_bin()).unwrap();
    assert_eq!(report.outcome, baseline());
    assert!(report.retries >= 1, "the killed cell must be re-dispatched");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tcp_transport_survives_a_chaos_dropped_connection_bitwise() {
    // A chaos proxy sits between the worker and the coordinator and
    // drops the connection after the 8th worker→coordinator frame
    // (mid-sweep, between heartbeats). The coordinator's reader thread
    // sees EOF, the slot is replaced, and the replacement worker dials
    // the proxy again (the drop fault is one-shot); the retry resumes
    // from the sealed checkpoint to the same bits. One worker keeps the
    // chaos frame schedule deterministic.
    let dir = sweep_dir("tcp-chaos-drop");
    let cfg = FleetConfig {
        workers: 1,
        transport: WorkerTransport::Tcp,
        chaos_spec: Some("drop:8".to_string()),
        ..config(None)
    };
    let report = run_fleet(&spec(), &cfg, &dir, worker_bin()).unwrap();
    assert_eq!(
        report.outcome,
        baseline(),
        "chaos-dropped tcp fleet must still merge bitwise identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tcp_transport_absorbs_chaos_duplicates_and_delays_bitwise() {
    // Mixed chaos: the 7th worker→coordinator frame (a `done`) is
    // delivered twice, and the 5th coordinator→worker frame (a `run`
    // dispatch) is delayed in flight. The coordinator's done-guard makes
    // the duplicate a no-op and the delay is pure latency: no retries,
    // same bits.
    let dir = sweep_dir("tcp-chaos-dup");
    let cfg = FleetConfig {
        workers: 1,
        transport: WorkerTransport::Tcp,
        chaos_spec: Some("duplicate:7,delay:5:s2c".to_string()),
        ..config(None)
    };
    let report = run_fleet(&spec(), &cfg, &dir, worker_bin()).unwrap();
    assert_eq!(
        report.outcome,
        baseline(),
        "duplicated/delayed tcp fleet must still merge bitwise identical"
    );
    assert_eq!(
        report.retries, 0,
        "duplicates and delays must not burn attempts"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_rejects_grids_that_do_not_match_the_journal() {
    let dir = sweep_dir("mismatch");
    run_fleet(&spec(), &config(None), &dir, worker_bin()).unwrap();
    let mut changed = spec();
    changed.values = vec![0.05, 0.2];
    let err = run_fleet(&changed, &config(None), &dir, worker_bin()).unwrap_err();
    assert!(matches!(err, FleetError::SpecMismatch(_)), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
