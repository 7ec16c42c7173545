//! The repository benchmark. One run measures one workload:
//!
//! ```text
//! yf-benchmark --workload <resnet-train|tuner-wide|serve-remote|lstm-sweep>
//!              --seed <n> --seconds <s> --trace <0|1>
//!              --serve-bin <yf-serve> --worker-bin <yf-fleet-worker>
//!              --out-dir <dir> [--commit <id>] [--break-check]
//! ```
//!
//! `benchmark/run.py` builds the binaries and passes the paths. The run
//! prints a header, its output checks, every metric with its unit and
//! sample count, and as its last line the JSON result. It exits 1 when
//! an output check fails. See `README.md` beside this package.

mod inproc;
mod model;
mod quad;
mod report;
mod serve;
mod sweep;
mod trace;
mod train;

use report::Report;
use std::path::{Path, PathBuf};
use std::time::Instant;
use yf_tensor::{gemm, parallel};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: PathBuf,
    pub worker_bin: PathBuf,
    /// Scratch for snapshot and fleet directories (removed when the run
    /// ends) and trace files (kept).
    pub out_dir: PathBuf,
    pub commit: String,
    /// Corrupts the data under one output check, so the self-test can
    /// see a failed check end the run with a non-zero code.
    pub break_check: bool,
}

impl Args {
    /// Steps for a run sized to last about `--seconds` at `rate` steps
    /// per second, and never fewer than `min`.
    pub fn steps(&self, rate: f64, min: usize) -> usize {
        ((self.seconds * rate).round() as usize).max(min)
    }

    /// A directory for this run's scratch files, removed on drop.
    pub fn scratch(&self, name: &str) -> DirGuard {
        let dir = self
            .out_dir
            .join(format!("run-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("creating scratch directory");
        DirGuard(dir)
    }

    pub fn trace_path(&self) -> PathBuf {
        self.out_dir
            .join("traces")
            .join(format!("{}-seed{}.jsonl", self.workload, self.seed))
    }
}

/// Removes its directory when dropped, including on panic.
pub struct DirGuard(pub PathBuf);

impl DirGuard {
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Replaces the last element with NaN when `brk` is set (the self-test's
/// broken check).
pub fn maybe_break(mut v: Vec<f32>, brk: bool) -> Vec<f32> {
    if brk {
        if let Some(x) = v.last_mut() {
            *x = f32::NAN;
        }
    }
    v
}

/// Quiets the machine before set-up and before the timed phase, outside
/// every measured interval: flushes dirty pages, so writes from set-up
/// or an earlier run are not flushed during the timed phase, and hands
/// the allocator's free pages back, so the peak resident size reflects
/// the live data of the timed phase rather than the heap layout set-up
/// left behind.
pub fn settle() {
    if let Err(e) = std::process::Command::new("sync").status() {
        eprintln!("yf-benchmark: sync: {e}");
    }
    report::live_rss_kb();
}

/// Wall time net of host steal ([`report::Steal`]).
pub struct NetTimer(Instant, report::Steal);

impl NetTimer {
    pub fn start() -> NetTimer {
        NetTimer(Instant::now(), report::Steal::start())
    }

    /// `(wall seconds, steal share)` since `start`.
    pub fn read(&self) -> (f64, f64) {
        (self.0.elapsed().as_secs_f64(), self.1.share())
    }

    /// Seconds since `start`, less the host's steal share of them.
    pub fn net_s(&self) -> f64 {
        let (wall, steal) = self.read();
        wall * (1.0 - steal)
    }
}

/// Median of the set-up times.
pub fn setup_metric(report: &mut Report, setups: &[f64]) {
    report.metric("setup_s", report::median(setups), setups.len());
}

fn usage(msg: &str) -> ! {
    eprintln!("yf-benchmark: {msg}");
    eprintln!(
        "usage: yf-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> \
         --serve-bin <path> --worker-bin <path> --out-dir <dir> [--commit <id>] [--break-check]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut worker_bin = None;
    let mut out_dir = None;
    let mut commit = "unknown".to_string();
    let mut break_check = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--break-check" {
            break_check = true;
            continue;
        }
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--worker-bin" => worker_bin = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            "--commit" => commit = value,
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed takes a whole number")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds takes a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        serve_bin: serve_bin.unwrap_or_else(|| usage("--serve-bin is required")),
        worker_bin: worker_bin.unwrap_or_else(|| usage("--worker-bin is required")),
        out_dir: out_dir.unwrap_or_else(|| usage("--out-dir is required")),
        commit,
        break_check,
    }
}

fn main() {
    // Hermetic runs: no `YF_*` knob may reach this process's kernels,
    // the yf-serve child or the fleet workers (which inherit this
    // environment). Done before any thread starts.
    let scrubbed: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("YF_"))
        .collect();
    for k in &scrubbed {
        std::env::remove_var(k);
    }
    let args = parse_args();
    let blocks = gemm::blocks();
    println!(
        "# yf-benchmark workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# nproc={} threads={} simd={} gemm_blocks={},{},{} commit={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        parallel::num_threads(),
        gemm::detected_simd(),
        blocks.mc,
        blocks.kc,
        blocks.nc,
        args.commit
    );
    println!("# removed from the environment: [{}]", scrubbed.join(", "));
    let started = Instant::now();
    let mut report = Report::default();
    match args.workload.as_str() {
        "resnet-train" => inproc::run(inproc::Kind::Resnet, &args, &mut report),
        "tuner-wide" => inproc::run(inproc::Kind::Tuner, &args, &mut report),
        "serve-remote" => serve::run(&args, &mut report),
        "lstm-sweep" => sweep::run(&args, &mut report),
        other => usage(&format!("unknown workload {other:?}")),
    }
    println!("# run took {:.1} s", started.elapsed().as_secs_f64());
    report.print(args.trace);
    if !report.correct() {
        std::process::exit(1);
    }
}
