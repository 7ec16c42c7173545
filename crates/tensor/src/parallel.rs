//! The persistent worker-pool runtime of the kernel layer.
//!
//! The build environment is offline, so there is no rayon: this module is
//! the minimal std-only substitute the compute kernels share. Work is
//! always split into *contiguous, disjoint* chunks of an output buffer, so
//! the only synchronization a dispatch needs is the pool's own completion
//! barrier.
//!
//! # Pool lifecycle
//!
//! [`Pool::global`] lazily spawns [`num_threads`]` - 1` workers on first
//! use and pins them for the rest of the process — the calling thread
//! always participates in its own dispatch, so the pool plus the caller
//! together are exactly `num_threads()` lanes. Every parallel region in
//! the workspace (GEMM row partitioning, norm kernels, the fused EMA
//! sweep, the sharded optimizer step) publishes its job to this one pool
//! instead of opening a fresh [`std::thread::scope`]; a dispatch is a
//! mutex/condvar hand-off, not a spawn/join round.
//!
//! Dispatching *from inside* a dispatch (a kernel called from a pool
//! task) runs inline on the current thread: chunk *plans* — not worker
//! counts — determine results in this codebase (reductions are
//! block-structured and fixed-order, see `yf_tensor::reduce`), so the
//! inline path is bitwise identical and oversubscription is impossible by
//! construction. A panic inside a task is caught, the pool survives, and
//! the panic payload resurfaces on the publishing thread — the same
//! observable behavior scoped joins had.
//!
//! # Naming parallelism: [`Par`]
//!
//! Kernels take a single [`Par`] parameter instead of an ad-hoc trailing
//! `threads: usize`: [`Par::pool`] (full kernel-layer width),
//! [`Par::serial`], or [`Par::threads`]`(n)` for "at most `n` chunks".
//!
//! The thread count comes from `YF_NUM_THREADS` when set (any positive
//! integer), else from [`std::thread::available_parallelism`]. It is read
//! **once per process** (first call to [`num_threads`]) and cached;
//! changing the environment variable afterwards has no effect.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Minimum elements of work per additional worker. Below this a dispatch
/// costs more than the loop it offloads; kernels gate their fan-out on it
/// via [`threads_for`].
pub const MIN_PAR_ELEMS: usize = 1 << 14;

/// Chunk count for a kernel touching `elems` elements: one lane per
/// [`MIN_PAR_ELEMS`] block of work, capped at [`num_threads`]. Small
/// workloads get 1 (a plain call), and the fan-out grows with the
/// workload instead of jumping straight to the machine width.
pub fn threads_for(elems: usize) -> usize {
    (elems / MIN_PAR_ELEMS).clamp(1, num_threads())
}

/// The kernel-layer thread count: `YF_NUM_THREADS` if set and positive,
/// otherwise the machine's available parallelism (1 if unknown).
///
/// Resolved on the first call and cached for the process lifetime (the
/// global pool is sized from it, so a later change could not take effect
/// anyway).
pub fn num_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        crate::env::positive_usize("YF_NUM_THREADS").unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    })
}

/// How a kernel should split its work — the one way every kernel
/// signature in the workspace names parallelism.
///
/// `Par` decides a *chunk budget*; the kernel still clamps it to the
/// workload via [`threads_for`]-style gating, and the chunk plan (not the
/// number of workers that happen to execute it) determines the result
/// bitwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Par {
    /// Use the full kernel-layer width ([`num_threads`]).
    #[default]
    Pool,
    /// Run serially on the calling thread.
    Serial,
    /// Split into at most this many chunks (0 is treated as 1).
    Threads(usize),
}

impl Par {
    /// Full kernel-layer width.
    pub fn pool() -> Self {
        Par::Pool
    }

    /// Single-chunk, calling-thread execution.
    pub fn serial() -> Self {
        Par::Serial
    }

    /// At most `n` chunks — what a trailing `threads: usize` used to mean.
    pub fn threads(n: usize) -> Self {
        Par::Threads(n)
    }

    /// The chunk budget before workload-based clamping.
    pub fn budget(self) -> usize {
        match self {
            Par::Pool => num_threads(),
            Par::Serial => 1,
            Par::Threads(n) => n.max(1),
        }
    }

    /// The chunk count for a workload of `elems` elements: the budget
    /// capped by [`threads_for`] (so small workloads stay serial).
    pub fn chunks_for(self, elems: usize) -> usize {
        self.budget().min(threads_for(elems))
    }
}

thread_local! {
    /// Count of top-level pool dispatches ("fan-outs") published from
    /// this thread. Nested dispatches (which run inline) and single-chunk
    /// plans (plain calls) do not count.
    static FANOUTS: Cell<u64> = const { Cell::new(0) };
}

/// The number of top-level pool fan-outs this thread has published. Take
/// a delta around a region to count its dispatches — `perf_report` uses
/// this to assert the fused optimizer step costs exactly one fan-out.
/// Thread-local, so concurrent activity elsewhere cannot skew a count.
pub fn fanout_count() -> u64 {
    FANOUTS.with(|c| c.get())
}

thread_local! {
    /// Count of mid-section dispatches this thread has published onto
    /// the parked workers of an open phased job (see
    /// [`Pool::run_phased`]). These are *not* fan-outs — the workers are
    /// already attached to the job — but tests use the counter to prove
    /// a sweep left the inline path.
    static MID_FANOUTS: Cell<u64> = const { Cell::new(0) };
}

/// The number of mid-section dispatches this thread has published onto
/// parked phase workers. Take a delta around a region to check that a
/// combine-internal sweep (e.g. the variance EMA update) really ran on
/// the pool instead of inline. Thread-local, like [`fanout_count`].
pub fn mid_fanout_count() -> u64 {
    MID_FANOUTS.with(|c| c.get())
}

thread_local! {
    /// True while this thread is executing inside a pool dispatch —
    /// either as a worker or as a publishing caller. Nested dispatches
    /// check it and run inline.
    static IN_DISPATCH: Cell<bool> = const { Cell::new(false) };
}

thread_local! {
    /// While the publisher of a phased job executes the `mid` section,
    /// this points at the job whose workers are parked at the phase
    /// barrier. A nested dispatch from the mid section publishes its
    /// task list onto those parked workers instead of running inline
    /// (see [`Pool::run_phased`]).
    static MID_HOST: Cell<Option<*const Job>> = const { Cell::new(None) };
}

/// Scoped set/restore of [`MID_HOST`]; restores on unwind too.
struct MidHostGuard {
    prev: Option<*const Job>,
}

impl MidHostGuard {
    fn enter(job: Option<*const Job>) -> MidHostGuard {
        let prev = MID_HOST.with(|c| c.replace(job));
        MidHostGuard { prev }
    }
}

impl Drop for MidHostGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        MID_HOST.with(|c| c.set(prev));
    }
}

struct DispatchGuard;

impl DispatchGuard {
    fn enter() -> DispatchGuard {
        IN_DISPATCH.with(|f| f.set(true));
        DispatchGuard
    }
}

impl Drop for DispatchGuard {
    fn drop(&mut self) {
        IN_DISPATCH.with(|f| f.set(false));
    }
}

/// A task function with its borrow lifetime erased so it can sit in the
/// pool's job slot. Only dereferenced while the publisher is blocked in
/// the same dispatch, which keeps the closure alive.
type RawTask = *const (dyn Fn(usize) + Sync);

fn erase<'a>(f: &'a (dyn Fn(usize) + Sync + 'a)) -> RawTask {
    let p: *const (dyn Fn(usize) + Sync + 'a) = f;
    // A fat pointer's layout does not depend on its lifetime bound; this
    // only forgets the borrow, which `Job`'s completion barrier restores
    // the meaning of (no deref after the publisher unblocks).
    unsafe { std::mem::transmute::<*const (dyn Fn(usize) + Sync + 'a), RawTask>(p) }
}

/// One published dispatch: up to two phases of indexed tasks with a
/// caller-side critical section between them (see [`Pool::run_phased`]).
struct Job {
    f1: RawTask,
    n1: usize,
    f2: RawTask,
    n2: usize,
    /// Next unclaimed task index per phase. Claiming is lock-free; a
    /// claim at or past the phase length means "no work left".
    next1: AtomicUsize,
    next2: AtomicUsize,
    sync: Mutex<Progress>,
    cv: Condvar,
}

/// A task list the publisher hands to the workers parked at the phase
/// barrier, from inside the mid section. The closure lives on the
/// publisher's stack; the publisher blocks in [`Job::run_mid`] until
/// every index completed, so no worker dereferences `f` after it dies
/// (a late worker's claim comes back `>= n` and it never touches `f`).
struct MidTask {
    f: RawTask,
    n: usize,
    /// Next unclaimed task index; claims at or past `n` mean "done".
    next: AtomicUsize,
}

// SAFETY: same argument as `Job` — the raw pointer is only dereferenced
// under an in-range claim, and the publisher outlives every claim.
unsafe impl Send for MidTask {}
unsafe impl Sync for MidTask {}

struct Progress {
    done1: usize,
    done2: usize,
    /// Set by the publisher once phase 1 and the mid section finished;
    /// workers park on the job condvar until then.
    phase2_open: bool,
    /// The mid-section task list currently offered to parked workers
    /// (cleared by the publisher once it drained).
    mid: Option<Arc<MidTask>>,
    /// Bumped per mid publish, so a parked worker that already drained
    /// one list does not busy-loop on it while waiting for the next.
    mid_gen: u64,
    /// Completed tasks of the current mid list.
    mid_done: usize,
    /// First panic payload from any task, rethrown by the publisher.
    panic: Option<Box<dyn Any + Send>>,
}

// SAFETY: the raw task pointers are only dereferenced by threads that
// claimed an in-range task index, and the publisher does not return (or
// unwind) before every claimed index of a phase has completed — the
// closures therefore outlive every dereference. All other state is
// atomics or mutex-protected.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    fn new(f1: RawTask, n1: usize, f2: RawTask, n2: usize) -> Job {
        Job {
            f1,
            n1,
            f2,
            n2,
            next1: AtomicUsize::new(0),
            next2: AtomicUsize::new(0),
            sync: Mutex::new(Progress {
                done1: 0,
                done2: 0,
                phase2_open: false,
                mid: None,
                mid_gen: 0,
                mid_done: 0,
                panic: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Claims and runs tasks of one phase until none remain. Panics are
    /// caught into `Progress::panic`; completion counts always advance,
    /// so barriers cannot hang on a panicking task.
    fn run_tasks(&self, phase2: bool) {
        let (next, n, f) = if phase2 {
            (&self.next2, self.n2, self.f2)
        } else {
            (&self.next1, self.n1, self.f1)
        };
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return;
            }
            // SAFETY: `i < n`, so the publisher is still blocked in this
            // dispatch and the closure is alive (see `Job`'s safety note).
            let task = unsafe { &*f };
            let result = catch_unwind(AssertUnwindSafe(|| task(i)));
            let mut g = self.sync.lock().expect("pool job lock");
            if let Err(p) = result {
                g.panic.get_or_insert(p);
            }
            if phase2 {
                g.done2 += 1;
            } else {
                g.done1 += 1;
            }
            drop(g);
            self.cv.notify_all();
        }
    }

    /// Worker-side entry: help with phase 1, park at the phase barrier —
    /// executing any task lists the publisher's mid section hands over —
    /// then help with phase 2. Returns quickly on jobs that are already
    /// finished (a worker can pick a completed job out of the slot:
    /// `phase2_open` was set before its publisher left).
    fn assist(&self) {
        self.run_tasks(false);
        let mut seen_mid = 0u64;
        let mut g = self.sync.lock().expect("pool job lock");
        while !g.phase2_open {
            if g.mid_gen != seen_mid {
                if let Some(mt) = g.mid.clone() {
                    seen_mid = g.mid_gen;
                    drop(g);
                    self.run_mid_tasks(&mt);
                    g = self.sync.lock().expect("pool job lock");
                    continue;
                }
                seen_mid = g.mid_gen;
            }
            g = self.cv.wait(g).expect("pool job lock");
        }
        drop(g);
        self.run_tasks(true);
    }

    /// Claims and runs tasks of a mid list until none remain. Mirrors
    /// [`Job::run_tasks`]: panics are caught into `Progress::panic` and
    /// the completion count always advances.
    fn run_mid_tasks(&self, mt: &MidTask) {
        loop {
            let i = mt.next.fetch_add(1, Ordering::Relaxed);
            if i >= mt.n {
                return;
            }
            // SAFETY: `i < mt.n`, so the publisher is still blocked in
            // `run_mid` and the closure is alive.
            let task = unsafe { &*mt.f };
            let result = catch_unwind(AssertUnwindSafe(|| task(i)));
            let mut g = self.sync.lock().expect("pool job lock");
            if let Err(p) = result {
                g.panic.get_or_insert(p);
            }
            g.mid_done += 1;
            drop(g);
            self.cv.notify_all();
        }
    }

    /// Publisher-side mid dispatch: offers `n` indexed calls of `f` to
    /// the workers parked at this job's phase barrier, participates in
    /// the claiming itself, and blocks until every index completed. A
    /// task panic resumes on the publisher (inside its mid section).
    ///
    /// Only called from the thread that published this job, from inside
    /// its mid section — phases 1 and 2 are quiescent the whole time.
    fn run_mid(&self, f: &(dyn Fn(usize) + Sync), n: usize) {
        let mt = Arc::new(MidTask {
            f: erase(f),
            n,
            next: AtomicUsize::new(0),
        });
        {
            let mut g = self.sync.lock().expect("pool job lock");
            g.mid = Some(Arc::clone(&mt));
            g.mid_gen += 1;
            g.mid_done = 0;
        }
        self.cv.notify_all();
        self.run_mid_tasks(&mt);
        let mut g = self.sync.lock().expect("pool job lock");
        while g.mid_done < n {
            g = self.cv.wait(g).expect("pool job lock");
        }
        g.mid = None;
        let panic = g.panic.take();
        drop(g);
        if let Some(p) = panic {
            resume_unwind(p);
        }
    }

    /// Blocks until all tasks of the phase completed (panicked tasks
    /// count as completed; the payload is picked up separately).
    fn wait_done(&self, phase2: bool) {
        let n = if phase2 { self.n2 } else { self.n1 };
        let mut g = self.sync.lock().expect("pool job lock");
        while (if phase2 { g.done2 } else { g.done1 }) < n {
            g = self.cv.wait(g).expect("pool job lock");
        }
    }

    /// Releases workers into phase 2. With `skip`, phase-2 tasks are
    /// abandoned first (claim counter exhausted) so workers drain and
    /// exit without touching `f2` — the publisher is about to unwind.
    fn open_phase2(&self, skip: bool) {
        if skip {
            self.next2.store(self.n2, Ordering::Relaxed);
        }
        let mut g = self.sync.lock().expect("pool job lock");
        g.phase2_open = true;
        drop(g);
        self.cv.notify_all();
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.sync.lock().expect("pool job lock").panic.take()
    }
}

struct SlotState {
    /// Bumped on every publish; workers re-check the slot when it moves.
    generation: u64,
    job: Option<Arc<Job>>,
    shutdown: bool,
}

struct PoolShared {
    slot: Mutex<SlotState>,
    cv: Condvar,
}

/// A set of persistent worker threads that kernel fan-outs dispatch onto.
///
/// Almost all code wants [`Pool::global`]; private pools exist so tests
/// can pin behavior at specific worker counts. The publishing thread
/// always participates in its own job — a pool with zero workers is
/// valid and simply runs everything inline.
///
/// Publishing is a single shared job slot: each dispatch overwrites it
/// and wakes the workers, which claim task indices from an atomic
/// counter. Because the publisher drives its own job to completion, a
/// job bumped out of the slot by a concurrent publisher merely loses
/// helpers — progress never depends on workers seeing any particular
/// job, so concurrent dispatches from independent threads are safe (if
/// rare: the main trainers publish from one thread).
pub struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// A private pool with exactly `workers` worker threads (plus the
    /// caller, at dispatch time). Dropping it shuts the workers down.
    pub fn new(workers: usize) -> Pool {
        let shared = Arc::new(PoolShared {
            slot: Mutex::new(SlotState {
                generation: 0,
                job: None,
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("yf-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("pool: spawning worker thread")
            })
            .collect();
        Pool {
            shared,
            workers: handles,
        }
    }

    /// The process-wide pool: `num_threads() - 1` workers, spawned on
    /// first use, pinned until process exit.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::new(num_threads().saturating_sub(1)))
    }

    /// Number of worker threads (the caller lane is not counted).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Fans `tasks` indexed calls of `f` out over the pool and the
    /// calling thread, returning when all completed. One task (or a
    /// nested dispatch) runs inline. If a task panics, the pool survives
    /// and the panic resumes on this thread after the barrier.
    pub fn run<F>(&self, tasks: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.run_phased(tasks, f, || (), 0, |_| {});
    }

    /// One dispatch, two task phases, with a caller-side critical
    /// section between them: runs `f1(0..n1)` across the pool, then
    /// `mid()` exactly once on the calling thread after *all* phase-1
    /// tasks completed, then `f2(0..n2)` across the pool. Workers stay
    /// parked on the job between the phases — the whole thing is a
    /// single fan-out, which is what lets a sharded optimizer step run
    /// measure → combine → apply without a second spawn round.
    ///
    /// `mid` may freely mutate state the phase closures borrow shared
    /// (via locks/interior mutability): the phase barrier guarantees no
    /// task is executing while it runs.
    ///
    /// A dispatch published *from inside* `mid` (a kernel the combine
    /// step calls, say) does not run inline like other nested dispatches:
    /// its task list is handed to the workers parked at the phase
    /// barrier, so combine-internal sweeps parallelize while the whole
    /// step still costs one fan-out. The chunk plan — not who executes
    /// it — determines results, so this is bitwise identical to the
    /// inline path. [`mid_fanout_count`] counts these hand-offs.
    ///
    /// Panic semantics match scoped threads: a phase-1 (or `mid`) panic
    /// skips everything after it and resumes on the caller; phase-2
    /// panics resume after the final barrier. The pool always survives.
    pub fn run_phased<R, F1, M, F2>(&self, n1: usize, f1: F1, mid: M, n2: usize, f2: F2) -> R
    where
        F1: Fn(usize) + Sync,
        M: FnOnce() -> R,
        F2: Fn(usize) + Sync,
    {
        let inline = |f1: &F1, mid: M, f2: &F2| {
            for i in 0..n1 {
                f1(i);
            }
            let r = mid();
            for i in 0..n2 {
                f2(i);
            }
            r
        };
        if IN_DISPATCH.with(|f| f.get()) {
            if n1 + n2 > 1 {
                if let Some(host) = MID_HOST.with(|c| c.get()) {
                    // Published from a mid section: hand the task lists
                    // to the workers parked at the host job's barrier.
                    // SAFETY: MID_HOST is only set on the publisher
                    // thread while it is inside `mid`, so the host job
                    // is alive and its phases are quiescent.
                    let host = unsafe { &*host };
                    return run_phased_on_mid_host(host, n1, &f1, mid, n2, &f2);
                }
            }
            // Nested dispatch: bitwise identical inline (the chunk plan,
            // not the execution, determines results), and it keeps an
            // optimizer step at exactly one fan-out.
            return inline(&f1, mid, &f2);
        }
        if n1 + n2 <= 1 {
            // A plain call, not a fan-out.
            return inline(&f1, mid, &f2);
        }
        let _guard = DispatchGuard::enter();
        // Count the logical fan-out even on a worker-less pool (1-core
        // machines still measure "one dispatch per step" honestly).
        FANOUTS.with(|c| c.set(c.get() + 1));
        if self.workers.is_empty() {
            return inline(&f1, mid, &f2);
        }
        let job = Arc::new(Job::new(erase(&f1), n1, erase(&f2), n2));
        {
            let mut slot = self.shared.slot.lock().expect("pool slot lock");
            slot.generation += 1;
            slot.job = Some(Arc::clone(&job));
        }
        self.shared.cv.notify_all();
        job.run_tasks(false);
        job.wait_done(false);
        if let Some(p) = job.take_panic() {
            job.open_phase2(true);
            resume_unwind(p);
        }
        let r = {
            let job = &job;
            match catch_unwind(AssertUnwindSafe(|| {
                let _mid = MidHostGuard::enter(Some(Arc::as_ptr(job)));
                mid()
            })) {
                Ok(r) => r,
                Err(p) => {
                    job.open_phase2(true);
                    resume_unwind(p);
                }
            }
        };
        job.open_phase2(false);
        job.run_tasks(true);
        job.wait_done(true);
        if let Some(p) = job.take_panic() {
            resume_unwind(p);
        }
        r
    }

    /// Splits `data` into contiguous chunks of whole `unit`-element rows
    /// per the `par` budget and runs `f(first_row, chunk)` on every chunk
    /// across the pool. With a single-chunk plan this is a plain call, so
    /// serial use has zero overhead.
    ///
    /// `data.len()` must be a multiple of `unit`.
    ///
    /// # Panics
    ///
    /// Panics if `unit == 0` or `data.len()` is not a multiple of `unit`.
    pub fn chunks_mut<T, F>(&self, data: &mut [T], unit: usize, par: Par, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(unit > 0, "chunks_mut: unit must be positive");
        assert_eq!(
            data.len() % unit,
            0,
            "chunks_mut: data length {} is not a multiple of unit {unit}",
            data.len()
        );
        if data.is_empty() {
            return;
        }
        let rows = data.len() / unit;
        let chunks = par.budget().clamp(1, rows);
        if chunks <= 1 {
            f(0, data);
            return;
        }
        let rows_per_chunk = chunk_rows(rows, chunks);
        type Slot<'s, T> = Mutex<Option<(usize, &'s mut [T])>>;
        let mut slots: Vec<Slot<'_, T>> = Vec::with_capacity(chunks);
        let mut rest = data;
        let mut row = 0;
        while !rest.is_empty() {
            let take = (rows_per_chunk * unit).min(rest.len());
            let (chunk, tail) = rest.split_at_mut(take);
            slots.push(Mutex::new(Some((row, chunk))));
            row += take / unit;
            rest = tail;
        }
        self.run(slots.len(), |i| {
            let (first_row, chunk) = slots[i]
                .lock()
                .expect("pool chunk slot")
                .take()
                .expect("pool chunk claimed twice");
            f(first_row, chunk);
        });
    }

    /// Like [`Pool::chunks_mut`] but splits **two** buffers by the same
    /// row partition: row `r` of `a` is `unit_a` elements, row `r` of `b`
    /// is `unit_b` elements, and `f(first_row, a_chunk, b_chunk)` receives
    /// the matching chunks. This is what reduction kernels that produce
    /// paired outputs (values + indices, means + inverse stds) fan out on.
    ///
    /// # Panics
    ///
    /// Panics if either unit is zero, either length is not a multiple of
    /// its unit, or the row counts disagree.
    pub fn chunks_mut2<A, B, F>(
        &self,
        a: &mut [A],
        unit_a: usize,
        b: &mut [B],
        unit_b: usize,
        par: Par,
        f: F,
    ) where
        A: Send,
        B: Send,
        F: Fn(usize, &mut [A], &mut [B]) + Sync,
    {
        assert!(
            unit_a > 0 && unit_b > 0,
            "chunks_mut2: units must be positive"
        );
        assert_eq!(
            a.len() % unit_a,
            0,
            "chunks_mut2: a length {} vs unit {unit_a}",
            a.len()
        );
        assert_eq!(
            b.len() % unit_b,
            0,
            "chunks_mut2: b length {} vs unit {unit_b}",
            b.len()
        );
        let rows = a.len() / unit_a;
        assert_eq!(rows, b.len() / unit_b, "chunks_mut2: row count mismatch");
        if rows == 0 {
            return;
        }
        let chunks = par.budget().clamp(1, rows);
        if chunks <= 1 {
            f(0, a, b);
            return;
        }
        let rows_per_chunk = chunk_rows(rows, chunks);
        type Slot2<'s, A, B> = Mutex<Option<(usize, &'s mut [A], &'s mut [B])>>;
        let mut slots: Vec<Slot2<'_, A, B>> = Vec::with_capacity(chunks);
        let (mut rest_a, mut rest_b) = (a, b);
        let mut row = 0;
        while !rest_a.is_empty() {
            let take_rows = rows_per_chunk.min(rest_a.len() / unit_a);
            let (chunk_a, tail_a) = rest_a.split_at_mut(take_rows * unit_a);
            let (chunk_b, tail_b) = rest_b.split_at_mut(take_rows * unit_b);
            slots.push(Mutex::new(Some((row, chunk_a, chunk_b))));
            row += take_rows;
            rest_a = tail_a;
            rest_b = tail_b;
        }
        self.run(slots.len(), |i| {
            let (first_row, chunk_a, chunk_b) = slots[i]
                .lock()
                .expect("pool chunk slot")
                .take()
                .expect("pool chunk claimed twice");
            f(first_row, chunk_a, chunk_b);
        });
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock().expect("pool slot lock");
            slot.shutdown = true;
        }
        self.shared.cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

/// A nested `run_phased` published from inside a host job's mid section:
/// each task phase becomes a mid task list executed by the workers parked
/// at the host's phase barrier (the publisher participates), with the
/// nested mid section running inline between them. `MID_HOST` is cleared
/// for the duration, so anything *these* tasks dispatch runs inline — the
/// parked workers are already occupied.
fn run_phased_on_mid_host<R, F1, M, F2>(
    host: &Job,
    n1: usize,
    f1: &F1,
    mid: M,
    n2: usize,
    f2: &F2,
) -> R
where
    F1: Fn(usize) + Sync,
    M: FnOnce() -> R,
    F2: Fn(usize) + Sync,
{
    let _guard = MidHostGuard::enter(None);
    if n1 > 1 {
        MID_FANOUTS.with(|c| c.set(c.get() + 1));
        host.run_mid(f1, n1);
    } else {
        for i in 0..n1 {
            f1(i);
        }
    }
    let r = mid();
    if n2 > 1 {
        MID_FANOUTS.with(|c| c.set(c.get() + 1));
        host.run_mid(f2, n2);
    } else {
        for i in 0..n2 {
            f2(i);
        }
    }
    r
}

fn worker_loop(shared: &PoolShared) {
    // A worker is permanently "inside a dispatch": anything a task calls
    // that would fan out runs inline on this thread instead.
    IN_DISPATCH.with(|f| f.set(true));
    let mut seen = 0u64;
    loop {
        let job = {
            let mut slot = shared.slot.lock().expect("pool slot lock");
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.generation != seen {
                    seen = slot.generation;
                    break slot.job.clone();
                }
                slot = shared.cv.wait(slot).expect("pool slot lock");
            }
        };
        if let Some(job) = job {
            job.assist();
        }
    }
}

/// Rows per chunk that [`chunks_mut`] hands each worker for a `rows`-row
/// workload at a `threads`-chunk budget. Exposed so callers can
/// pre-provision per-chunk state (chunk index = `first_row / chunk_rows`).
///
/// # Panics
///
/// Panics if `rows == 0`.
pub fn chunk_rows(rows: usize, threads: usize) -> usize {
    assert!(rows > 0, "chunk_rows: no rows");
    rows.div_ceil(threads.clamp(1, rows))
}

/// [`Pool::chunks_mut`] on the global pool — the way kernels fan row
/// ranges of an output buffer out.
pub fn chunks_mut<T, F>(data: &mut [T], unit: usize, par: Par, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    Pool::global().chunks_mut(data, unit, par, f);
}

/// [`Pool::chunks_mut2`] on the global pool.
pub fn chunks_mut2<A, B, F>(a: &mut [A], unit_a: usize, b: &mut [B], unit_b: usize, par: Par, f: F)
where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    Pool::global().chunks_mut2(a, unit_a, b, unit_b, par, f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn covers_all_rows_once() {
        for threads in [1, 2, 3, 7, 64] {
            let mut data = vec![0u32; 10 * 3];
            chunks_mut(&mut data, 3, Par::threads(threads), |first_row, chunk| {
                for (r, row) in chunk.chunks_mut(3).enumerate() {
                    for v in row {
                        *v += (first_row + r) as u32 + 1;
                    }
                }
            });
            let expect: Vec<u32> = (0..10u32).flat_map(|r| [r + 1; 3]).collect();
            assert_eq!(data, expect, "threads = {threads}");
        }
    }

    #[test]
    fn empty_input_is_a_noop() {
        let mut data: Vec<f32> = Vec::new();
        chunks_mut(&mut data, 4, Par::threads(8), |_, _| {
            panic!("no chunks expected")
        });
    }

    #[test]
    fn num_threads_is_positive_and_stable() {
        assert!(num_threads() >= 1);
        // Cached: the same value on every call.
        assert_eq!(num_threads(), num_threads());
    }

    #[test]
    fn threads_for_scales_with_work() {
        assert_eq!(threads_for(0), 1);
        assert_eq!(threads_for(MIN_PAR_ELEMS - 1), 1);
        assert!(threads_for(2 * MIN_PAR_ELEMS) >= 1);
        assert!(threads_for(usize::MAX / 2) <= num_threads());
    }

    #[test]
    fn paired_chunks_stay_aligned() {
        for threads in [1, 2, 5, 16] {
            let mut vals = vec![0u32; 7 * 4];
            let mut tags = vec![0u32; 7];
            let par = Par::threads(threads);
            chunks_mut2(&mut vals, 4, &mut tags, 1, par, |first, va, tb| {
                assert_eq!(va.len() / 4, tb.len());
                for (r, (row, tag)) in va.chunks_mut(4).zip(tb.iter_mut()).enumerate() {
                    let id = (first + r) as u32;
                    row.fill(id);
                    *tag = id;
                }
            });
            let want_vals: Vec<u32> = (0..7u32).flat_map(|r| [r; 4]).collect();
            let want_tags: Vec<u32> = (0..7).collect();
            assert_eq!(vals, want_vals, "threads = {threads}");
            assert_eq!(tags, want_tags, "threads = {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "row count mismatch")]
    fn paired_chunks_reject_ragged_rows() {
        let mut a = vec![0f32; 8];
        let mut b = vec![0f32; 3];
        chunks_mut2(&mut a, 2, &mut b, 1, Par::threads(2), |_, _, _| {});
    }

    #[test]
    fn par_threads_keeps_threads_semantics() {
        assert_eq!(Par::threads(0).budget(), 1);
        assert_eq!(Par::threads(3).budget(), 3);
        assert_eq!(Par::serial().budget(), 1);
        assert_eq!(Par::pool().budget(), num_threads());
        assert_eq!(Par::threads(5), Par::Threads(5));
        // chunks_for clamps to the workload-derived width.
        assert_eq!(Par::threads(64).chunks_for(10), 1);
    }

    #[test]
    fn private_pool_runs_all_tasks() {
        for workers in [0, 1, 3] {
            let pool = Pool::new(workers);
            let hits: Vec<AtomicUsize> = (0..10).map(|_| AtomicUsize::new(0)).collect();
            pool.run(10, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "task {i}, workers {workers}");
            }
        }
    }

    #[test]
    fn run_phased_orders_mid_between_phases() {
        let pool = Pool::new(2);
        let n = 8;
        let stage = Mutex::new(vec![0u8; n]);
        let out = pool.run_phased(
            n,
            |i| stage.lock().unwrap()[i] = 1,
            || {
                let s = stage.lock().unwrap();
                assert!(s.iter().all(|&v| v == 1), "mid saw incomplete phase 1");
                42
            },
            n,
            |i| {
                let mut s = stage.lock().unwrap();
                assert_eq!(s[i], 1);
                s[i] = 2;
            },
        );
        assert_eq!(out, 42);
        assert!(stage.lock().unwrap().iter().all(|&v| v == 2));
    }

    /// The scoped-thread reference the pool replaced: same chunk plan,
    /// one `std::thread::scope` spawn per chunk.
    fn scoped_reference(
        data: &mut [f32],
        unit: usize,
        budget: usize,
        f: impl Fn(usize, &mut [f32]) + Sync,
    ) {
        let rows = data.len() / unit;
        if rows == 0 {
            return;
        }
        let per = chunk_rows(rows, budget.clamp(1, rows));
        std::thread::scope(|scope| {
            let mut rest = data;
            let mut first = 0;
            while !rest.is_empty() {
                let take = (per * unit).min(rest.len());
                let (chunk, tail) = rest.split_at_mut(take);
                rest = tail;
                let start = first;
                let f = &f;
                scope.spawn(move || f(start, chunk));
                first += take / unit;
            }
        });
    }

    #[test]
    fn pool_matches_scoped_threads_bitwise() {
        // The determinism contract: results depend on the chunk plan,
        // never on who executes it. A float kernel with order-sensitive
        // accumulation per row must agree bit-for-bit between the pool
        // (any worker count) and plain scoped threads.
        let kernel = |first: usize, chunk: &mut [f32]| {
            for (r, row) in chunk.chunks_mut(4).enumerate() {
                let mut acc = 0.1f32 * (first + r) as f32;
                for (c, v) in row.iter_mut().enumerate() {
                    acc = acc * 1.000_1 + (c as f32).sin();
                    *v = acc;
                }
            }
        };
        let init: Vec<f32> = (0..33 * 4).map(|i| (i as f32 * 0.7).cos()).collect();
        for budget in [1usize, 2, 4, 7] {
            let mut want = init.clone();
            scoped_reference(&mut want, 4, budget, kernel);
            for workers in [1usize, 2, 4, 7] {
                let pool = Pool::new(workers);
                let mut got = init.clone();
                pool.chunks_mut(&mut got, 4, Par::threads(budget), kernel);
                assert_eq!(got, want, "workers = {workers}, budget = {budget}");
            }
        }
    }

    #[test]
    fn nested_dispatch_is_reentrant() {
        // A task running on a pool worker (or the dispatching caller) may
        // itself dispatch: the inner fan-out runs inline instead of
        // deadlocking on the occupied pool.
        let pool = Pool::new(3);
        let hits = AtomicUsize::new(0);
        pool.run(4, |_| {
            Pool::global().run(4, |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = Pool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(4, |i| {
                if i == 2 {
                    panic!("boom in task");
                }
            });
        }));
        assert!(caught.is_err(), "task panic must resume on the caller");
        // The workers are still parked and serviceable.
        let hits = AtomicUsize::new(0);
        pool.run(8, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn phase_one_panic_skips_mid_and_phase_two() {
        let pool = Pool::new(2);
        let phase2 = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_phased(
                4,
                |i| {
                    if i == 1 {
                        panic!("boom in phase 1");
                    }
                },
                || panic!("mid must not run after a phase-1 panic"),
                4,
                |_| {
                    phase2.fetch_add(1, Ordering::Relaxed);
                },
            )
        }));
        assert!(caught.is_err());
        assert_eq!(phase2.load(Ordering::Relaxed), 0, "phase 2 must be skipped");
        // Still serviceable afterwards.
        pool.run(2, |_| {});
    }

    #[test]
    fn mid_dispatch_runs_on_parked_workers() {
        // A dispatch published from the mid section must execute on the
        // workers parked at the phase barrier, not inline: task 0 blocks
        // until task 1 ran, which needs two threads working the list.
        let pool = Pool::new(2);
        let t1_done = std::sync::atomic::AtomicBool::new(false);
        pool.run_phased(
            2,
            |_| {},
            || {
                pool.run(2, |i| {
                    if i == 1 {
                        t1_done.store(true, Ordering::SeqCst);
                    } else {
                        for _ in 0..5000 {
                            if t1_done.load(Ordering::SeqCst) {
                                return;
                            }
                            std::thread::sleep(std::time::Duration::from_millis(1));
                        }
                        panic!("mid task 0 never saw task 1 run: mid list stayed inline");
                    }
                });
            },
            2,
            |_| {},
        );
    }

    #[test]
    fn mid_dispatch_matches_top_level_bitwise() {
        // Order-sensitive per-chunk accumulation: the mid-hosted sweep
        // must agree bit-for-bit with the same chunk plan dispatched
        // top-level (chunk plans, not executors, determine results).
        let kernel = |first: usize, chunk: &mut [f32]| {
            for (r, row) in chunk.chunks_mut(4).enumerate() {
                let mut acc = 0.3f32 * (first + r) as f32;
                for (c, v) in row.iter_mut().enumerate() {
                    acc = acc * 1.000_3 + (c as f32).cos();
                    *v = acc;
                }
            }
        };
        let init: Vec<f32> = (0..29 * 4).map(|i| (i as f32 * 0.9).sin()).collect();
        let pool = Pool::new(3);
        let mut want = init.clone();
        pool.chunks_mut(&mut want, 4, Par::threads(4), kernel);
        let mut got = init.clone();
        pool.run_phased(
            2,
            |_| {},
            || pool.chunks_mut(&mut got, 4, Par::threads(4), kernel),
            0,
            |_| {},
        );
        assert_eq!(got, want);
    }

    #[test]
    fn mid_dispatch_panic_resumes_on_caller() {
        let pool = Pool::new(2);
        let phase2 = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_phased(
                2,
                |_| {},
                || {
                    pool.run(4, |i| {
                        if i == 2 {
                            panic!("boom in mid task");
                        }
                    });
                },
                4,
                |_| {
                    phase2.fetch_add(1, Ordering::Relaxed);
                },
            )
        }));
        assert!(caught.is_err(), "mid-task panic must resume on the caller");
        assert_eq!(phase2.load(Ordering::Relaxed), 0, "phase 2 must be skipped");
        // The workers are parked and serviceable again.
        let hits = AtomicUsize::new(0);
        pool.run(8, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn mid_dispatch_is_not_a_fanout_but_is_counted() {
        let pool = Pool::new(2);
        let fanouts = fanout_count();
        let mids = mid_fanout_count();
        pool.run_phased(
            2,
            |_| {},
            || {
                let mut data = vec![0f32; 8];
                pool.chunks_mut(&mut data, 1, Par::threads(4), |_, c| c.fill(1.0));
                assert!(data.iter().all(|&v| v == 1.0));
            },
            2,
            |_| {},
        );
        assert_eq!(fanout_count(), fanouts + 1, "still exactly one fan-out");
        assert_eq!(
            mid_fanout_count(),
            mids + 1,
            "the sweep left the inline path"
        );
    }

    #[test]
    fn dispatch_inside_a_mid_task_runs_inline() {
        // The parked workers are occupied by the mid list itself, so a
        // dispatch from inside one of its tasks must fall back to the
        // inline path rather than deadlock.
        let pool = Pool::new(2);
        let hits = AtomicUsize::new(0);
        pool.run_phased(
            2,
            |_| {},
            || {
                pool.run(3, |_| {
                    pool.run(3, |_| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                });
            },
            0,
            |_| {},
        );
        assert_eq!(hits.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn fanout_counter_counts_top_level_dispatches_only() {
        let before = fanout_count();
        let mut data = vec![0f32; 64];
        // Single-chunk plan: a plain call, no fan-out.
        chunks_mut(&mut data, 1, Par::threads(1), |_, c| c.fill(1.0));
        assert_eq!(fanout_count(), before);
        // Multi-chunk plan: exactly one fan-out, even though the inner
        // dispatch nests.
        chunks_mut(&mut data, 1, Par::threads(4), |_, c| {
            chunks_mut(c, 1, Par::threads(4), |_, cc| {
                cc.iter_mut().for_each(|v| *v += 1.0)
            });
        });
        assert_eq!(fanout_count(), before + 1);
        assert!(data.iter().all(|&v| v == 2.0));
    }
}
