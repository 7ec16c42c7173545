//! Metric collection, output checks, and the printed result.

use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("train_steps_per_s", "1/s"),
    ("step_p50_ms", "ms"),
    ("step_p90_ms", "ms"),
    ("final_loss", "loss"),
    ("peak_rss_mb", "MiB"),
    ("server_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run. A layer that is not
/// on a workload's path reads 0 there.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("trainer.step_us", "us"),
    ("model.loss_grad_us", "us"),
    ("data.batch_us", "us"),
    ("nn.forward_us", "us"),
    ("autograd.backward_us", "us"),
    ("task.grad_us", "us"),
    ("optim.step_us", "us"),
    ("optim.measure_us", "us"),
    ("core.combine_us", "us"),
    ("optim.apply_us", "us"),
    ("optim.dispatch_us", "us"),
    ("tensor.fanouts_per_step", "count"),
    ("trainer.unaccounted_us", "us"),
    ("remote.step_us", "us"),
    ("wire.measure_frame_bytes", "B"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("serve.session_measure_us", "us"),
    ("serve.snapshot_encode_us", "us"),
    ("serve.snapshot_bytes", "B"),
    ("fsio.write_sealed_us", "us"),
    ("serve.ping_rtt_us", "us"),
    ("serve.unaccounted_us", "us"),
    ("serve.session_state_kb", "KiB"),
    ("fleet.sweep_s", "s"),
    ("fleet.cell_s", "s"),
    ("fleet.overhead_share", "ratio"),
    ("fleet.checkpoint_us", "us"),
    ("fleet.checkpoint_bytes", "B"),
    ("fleet.journal_events", "count"),
    ("trace.overhead_share", "ratio"),
];

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// Everything one run prints.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    checks: Vec<(String, bool, String)>,
    /// Operations attempted: steps, or cell dispatches on lstm-sweep.
    pub attempted: u64,
    /// Operations that failed: non-finite losses, degraded or rejected
    /// remote steps, retried or failed cells.
    pub failed: u64,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

impl Report {
    /// Records a metric measured over `samples` samples.
    pub fn metric(&mut self, name: &str, value: f64, samples: usize) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit_of(name),
            samples,
        });
    }

    pub fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }

    /// Records an output check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok) && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Prints the check and metric tables, then the result line. The
    /// result carries the end-to-end metrics (untraced run) or the
    /// per-layer metrics (traced run); absent layers read 0.
    pub fn print(&mut self, traced: bool) {
        let names: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        for &(name, _) in names {
            if !self.metrics.iter().any(|m| m.name == name) {
                assert!(traced, "end-to-end metric {name} was not measured");
                self.metric(name, 0.0, 0);
            }
        }
        for (name, ok, detail) in &self.checks {
            let verdict = if *ok { "ok" } else { "FAILED" };
            println!("check {name}: {verdict} ({detail})");
        }
        println!(
            "operations: attempted={} failed={}",
            self.attempted, self.failed
        );
        for m in &self.metrics {
            println!(
                "metric {} = {} {} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, &(name, _)) in names.iter().enumerate() {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == name)
                .expect("filled above");
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Nearest-rank percentile (`p` in 0..=100).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// A `/proc/<pid>/status` field in KiB (`pid` None = this process).
pub fn proc_status_kb(pid: Option<u32>, key: &str) -> Option<u64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

extern "C" {
    /// glibc: hands the allocator's free heap pages back to the system.
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// This process's VmRSS once the allocator has returned its free pages,
/// so the figure is the memory live data holds rather than what the
/// allocator happened to keep from earlier steps (which varied by a
/// factor of two between runs of one seed).
pub fn live_rss_kb() -> Option<u64> {
    // SAFETY: `malloc_trim` takes no pointer and only walks the
    // allocator's own free lists under its own locks.
    unsafe {
        malloc_trim(0);
    }
    proc_status_kb(None, "VmRSS")
}

/// `(steal, busy)` CPU ticks of the whole machine from `/proc/stat`:
/// time the hypervisor ran other guests while a vCPU of this machine was
/// runnable, and all runnable time (non-idle time plus that steal).
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal
    let runnable = fields.iter().take(8).sum::<u64>() - fields.get(3)? - fields.get(4)?;
    Some((*fields.get(7)?, runnable))
}

/// Host steal over an interval: the share of this machine's runnable CPU
/// time the hypervisor gave to other guests. On a shared VM it is the
/// main cause of run-to-run spread in every timing (it reached 28% in
/// some runs and 0.2% in others), so timings are reported net of it.
pub struct Steal(Option<(u64, u64)>);

impl Steal {
    pub fn start() -> Steal {
        Steal(cpu_ticks())
    }

    /// The share since `start`; 0 when `/proc/stat` cannot be read.
    pub fn share(&self) -> f64 {
        match (self.0, cpu_ticks()) {
            (Some((s0, r0)), Some((s1, r1))) if r1 > r0 => (s1 - s0) as f64 / (r1 - r0) as f64,
            _ => 0.0,
        }
    }
}

pub fn mib(kb: Option<u64>) -> f64 {
    kb.map_or(f64::NAN, |k| k as f64 / 1024.0)
}
