//! Asynchronous training with closed-loop YellowFin.
//!
//! Uses the paper's deterministic round-robin protocol (16 workers,
//! gradient staleness 15) to compare closed-loop momentum control with
//! open-loop YellowFin.
//!
//! Run with: `cargo run --release --example async_training`

use yellowfin::{ClosedLoopYellowFin, YellowFinConfig};
use yf_experiments::smoothing::smooth;
use yf_experiments::trainer::{train_async, RunConfig};
use yf_experiments::workloads::cifar100_like;

const WORKERS: usize = 16;

fn main() {
    println!("round-robin async (16 workers, staleness 15)\n");
    let iters = 600;
    let cfg = RunConfig::plain(iters);

    let mut open_task = cifar100_like(4);
    let mut open_opt = yellowfin::YellowFin::default();
    let open = train_async(open_task.as_mut(), &mut open_opt, WORKERS, &cfg);

    let mut closed_task = cifar100_like(4);
    let mut closed_opt = ClosedLoopYellowFin::new(YellowFinConfig::default(), WORKERS - 1, 0.01);
    let closed = train_async(closed_task.as_mut(), &mut closed_opt, WORKERS, &cfg);

    let open_final = smooth(&open.losses, 20).last().copied().unwrap_or(f64::NAN);
    let closed_final = smooth(&closed.losses, 20)
        .last()
        .copied()
        .unwrap_or(f64::NAN);
    println!("open-loop YellowFin   final smoothed loss: {open_final:.4}");
    println!("closed-loop YellowFin final smoothed loss: {closed_final:.4}");
    println!(
        "closed-loop lowered algorithmic momentum to {:.3} (target {:.3}) to absorb\n\
         asynchrony-induced momentum",
        closed_opt.algorithmic_momentum(),
        closed_opt.target_momentum()
    );
}
