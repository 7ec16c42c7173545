//! The shard-aware half of the optimizer API: [`ParamShard`],
//! [`StatsPartial`], the per-shard state pool [`ShardedState`], and the
//! driver that runs a single tuned step over disjoint parameter slices.
//!
//! YellowFin's loop (paper §3) is *measure → tune → apply*: the global
//! statistics and the `(lr, momentum)` decision need the whole gradient
//! once per step, but the update itself is per-coordinate. Both phases
//! run sharded here:
//!
//! - **measure**: [`Optimizer::observe_shard`] reduces block-aligned
//!   slices to [`StatsPartial`]s of per-block `f64` Σg² sums, and
//!   [`Optimizer::combine`] folds them with the deterministic tree
//!   combine and makes the scalar tuning decision;
//! - **apply**: [`Optimizer::step_shard`] updates each slice of the
//!   shard plan.
//!
//! Partial reductions are block-structured (see [`yf_tensor::reduce`]),
//! so the measured statistics — and therefore the whole trajectory — are
//! bitwise identical for every shard count. Measure, combine, and apply
//! all ride **one** dispatch onto the persistent worker pool
//! ([`yf_tensor::parallel::Pool`]): the pool's phased dispatch runs the
//! observe shards, then `combine` exactly once on the calling thread
//! (which holds the `&mut` the scalar tuning state needs while every
//! worker is parked at the phase barrier), then the apply shards — no
//! per-step thread spawns, no second fan-out. [`step_fused`] is that
//! driver; [`step_grouped`] plans it over named parameter groups, and
//! [`step_sharded`] is the one-group plan.
//!
//! [`ShardedState`] is the helper every stateful optimizer shares: one
//! lock-protected, lazily-initialized slot of state buffers per shard, so
//! `step_shard` can take `&self` and disjoint shards can be applied
//! concurrently from pool workers without any whole-model lock.

use crate::{Hyper, Optimizer, ParamGroups};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use yf_tensor::{parallel, reduce};

/// Below this many coordinates, auto-sharding stays single-threaded: the
/// fan-out overhead costs more than the update.
pub const AUTO_SHARD_MIN_DIM: usize = 1 << 16;

/// The automatic shard-count policy shared by the trainers and
/// [`ParamGroups`]: an explicit `shards > 0` wins; otherwise the kernel
/// thread count for vectors large enough to pay for fan-out, else 1.
pub fn auto_shards(shards: usize, dim: usize) -> usize {
    if shards > 0 {
        shards
    } else if dim >= AUTO_SHARD_MIN_DIM {
        parallel::num_threads()
    } else {
        1
    }
}

/// Identifies one disjoint slice of the flat parameter vector within a
/// shard plan. Shards of one plan must tile `[0, total)` without overlap;
/// the drivers in this module guarantee that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamShard {
    /// Position of this shard in the plan (`0..count`).
    pub index: usize,
    /// Number of shards in the plan.
    pub count: usize,
    /// First flat coordinate covered by this shard.
    pub offset: usize,
    /// Total flat coordinates across the whole plan.
    pub total: usize,
}

impl ParamShard {
    /// The trivial plan: one shard covering the whole vector. This is
    /// what the blanket [`Optimizer::step`] uses.
    pub fn whole(total: usize) -> Self {
        ParamShard {
            index: 0,
            count: 1,
            offset: 0,
            total,
        }
    }

    /// Panics unless `params`/`grads` are equal-length and fit inside the
    /// shard's coordinate range. Every `step_shard` implementation calls
    /// this first so the length-mismatch panics of the one-phase API are
    /// preserved verbatim.
    pub fn validate(&self, params: &[f32], grads: &[f32]) {
        crate::check_same_len(params, grads);
        assert!(
            self.index < self.count,
            "optimizer: shard index {} out of plan of {}",
            self.index,
            self.count
        );
        assert!(
            self.offset + params.len() <= self.total,
            "optimizer: shard [{}, {}) exceeds parameter count {}",
            self.offset,
            self.offset + params.len(),
            self.total
        );
    }
}

/// One shard's contribution to the measure phase: per-block `f64` partial
/// sums over a block-aligned slice of the flat gradient (block size
/// [`yf_tensor::reduce::BLOCK`]).
///
/// `sums` carries, by contract, the per-block **Σg² of the raw gradient
/// slice** ([`StatsPartial::sumsq`]) — the one statistic every
/// norm-measuring optimizer in the workspace needs. Fixing the meaning
/// (instead of leaving it per-optimizer) is what lets clipping middleware
/// hand its own partials to its wrapped optimizer rather than reducing
/// the same slice twice; gradient scales are applied analytically at
/// combine time, never to the sums.
///
/// The block structure is the bitwise-determinism contract: partials from
/// any block-aligned shard plan concatenate into the same per-block sum
/// sequence, which [`StatsPartial::merge_sums`] folds with the fixed-order
/// tree reduction — so sharded measurement equals whole-vector
/// measurement exactly, not approximately.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsPartial {
    /// Global index of the first reduction block this partial covers.
    pub first_block: usize,
    /// Per-block raw-gradient Σg² partial sums, one per block the shard
    /// overlaps.
    pub sums: Vec<f64>,
}

impl StatsPartial {
    /// Per-block Σg² partial for a shard starting at flat `offset` — the
    /// partial [`Optimizer::observe_shard`] returns.
    ///
    /// # Panics
    ///
    /// Panics unless `offset` is a multiple of the reduction block size
    /// (the [`step_fused`] driver aligns its plan; hand-rolled callers
    /// must too).
    pub fn sumsq(offset: usize, grads: &[f32]) -> Self {
        assert_eq!(
            offset % reduce::BLOCK,
            0,
            "stats partial: shard offset {offset} not block-aligned"
        );
        StatsPartial {
            first_block: offset / reduce::BLOCK,
            sums: reduce::block_sumsq(grads),
        }
    }

    /// Folds partials covering a `len`-coordinate vector into the global
    /// sum: concatenates the per-block sums in shard order and applies
    /// the fixed-order tree reduction. Bitwise equal to the whole-vector
    /// blocked reduction for every block-aligned shard plan.
    ///
    /// # Panics
    ///
    /// Panics if the partials do not tile exactly the
    /// `len.div_ceil(BLOCK)` blocks in order.
    pub fn merge_sums(partials: &[StatsPartial], len: usize) -> f64 {
        let expected = reduce::blocks_for(len);
        let mut all = Vec::with_capacity(expected);
        for p in partials {
            assert_eq!(
                p.first_block,
                all.len(),
                "stats partial: shards out of order or leave a gap"
            );
            all.extend_from_slice(&p.sums);
        }
        assert_eq!(
            all.len(),
            expected,
            "stats partial: {} blocks do not cover {len} coordinates",
            all.len()
        );
        reduce::tree_reduce(&all)
    }
}

/// One shard's lazily-initialized state buffers.
#[derive(Debug, Clone, Default)]
struct Slot {
    offset: usize,
    len: usize,
    /// False until the shard's first `with` call.
    touched: bool,
    /// `buffers` vectors; each is empty until the optimizer initializes
    /// it (or it is seeded from `spill` at slot creation).
    bufs: Vec<Vec<f32>>,
}

#[derive(Debug, Default)]
struct StateInner {
    /// One slot per shard of the current plan.
    slots: Vec<Arc<Mutex<Slot>>>,
    /// Flat dimension of the whole vector; 0 until first observed.
    total: usize,
    /// Full-length carry-over buffers: populated when the shard plan
    /// changes (or a checkpoint is loaded) so state survives re-sharding.
    spill: Vec<Vec<f32>>,
}

impl StateInner {
    fn matches(&self, shard: ParamShard) -> bool {
        self.slots.len() == shard.count && self.total == shard.total
    }
}

/// Per-shard optimizer state shared by every stateful optimizer in the
/// workspace (velocity for momentum SGD and YellowFin, the moment buffers
/// for Adam/AdaGrad/RMSProp, previous parameters for the closed-loop
/// position update).
///
/// Each shard owns a private slot of `buffers` state vectors behind its
/// own mutex, created lazily on the shard's first
/// [`with`](ShardedState::with). Disjoint shards therefore never contend,
/// which is what lets [`Optimizer::step_shard`] take `&self` and run on
/// pool worker threads. Buffers start *empty* (length 0); the optimizer
/// decides their initial contents (zeros for moments, a parameter copy
/// for position-form updates), so "lazily initialized" means exactly what
/// it meant for the old whole-vector `Vec`s.
///
/// Changing the shard plan between steps (different shard count or
/// boundaries — e.g. a trainer re-tuned its thread count, or a checkpoint
/// is resumed with different parallelism) is handled transparently: the
/// existing per-shard state is flattened into full-length carry-over
/// buffers and re-split under the new plan, preserving the trajectory
/// bit-for-bit. Changing the *total* parameter count still panics, like
/// the one-phase API did.
#[derive(Debug)]
pub struct ShardedState {
    buffers: usize,
    inner: RwLock<StateInner>,
}

impl ShardedState {
    /// A pool of `buffers` state vectors per shard.
    pub fn new(buffers: usize) -> Self {
        ShardedState {
            buffers,
            inner: RwLock::new(StateInner::default()),
        }
    }

    /// Runs `f` on the shard's state buffers, creating the slot on first
    /// use. `len` is the shard's coordinate count (`params.len()` at the
    /// call site). Buffers passed to `f` are empty on the very first
    /// touch of a fresh optimizer; thereafter they carry the shard's
    /// state, including across shard-plan changes.
    ///
    /// # Panics
    ///
    /// Panics if `shard.total` disagrees with the dimension this state
    /// has already seen ("parameter count changed between steps").
    pub fn with<R>(
        &self,
        shard: ParamShard,
        len: usize,
        f: impl FnOnce(&mut [Vec<f32>]) -> R,
    ) -> R {
        assert!(shard.index < shard.count, "sharded state: bad shard index");
        loop {
            {
                let inner = self.inner.read().expect("sharded state lock");
                if inner.total != 0 && inner.total != shard.total {
                    panic!(
                        "optimizer: parameter count changed between steps ({} -> {})",
                        inner.total, shard.total
                    );
                }
                if inner.matches(shard) {
                    let slot = Arc::clone(&inner.slots[shard.index]);
                    let mut guard = slot.lock().expect("sharded slot lock");
                    if !guard.touched {
                        guard.offset = shard.offset;
                        guard.len = len;
                        guard.touched = true;
                        guard.bufs = (0..self.buffers)
                            .map(|b| match inner.spill.get(b) {
                                Some(full) if !full.is_empty() => {
                                    full[shard.offset..shard.offset + len].to_vec()
                                }
                                _ => Vec::new(),
                            })
                            .collect();
                    }
                    if guard.offset == shard.offset && guard.len == len {
                        return f(&mut guard.bufs);
                    }
                    // Same shard count, different boundaries: fall
                    // through and re-plan.
                }
            }
            self.replan(shard, len);
        }
    }

    /// Rebuilds the slot table for `shard`'s plan, spilling any existing
    /// per-shard state into full-length carry-over buffers first.
    fn replan(&self, shard: ParamShard, len: usize) {
        let mut inner = self.inner.write().expect("sharded state lock");
        if inner.matches(shard) {
            // Another thread may already have re-planned to this exact
            // plan; only spill again if our slot still disagrees.
            let guard = inner.slots[shard.index].lock().expect("sharded slot lock");
            if !guard.touched || (guard.offset == shard.offset && guard.len == len) {
                return;
            }
        }
        Self::spill_locked(&mut inner, self.buffers);
        inner.total = shard.total;
        inner.slots = (0..shard.count)
            .map(|_| Arc::new(Mutex::new(Slot::default())))
            .collect();
    }

    /// Flattens touched slots into `inner.spill` (zero-based full-length
    /// buffers), then clears the slot table.
    fn spill_locked(inner: &mut StateInner, buffers: usize) {
        if inner.total == 0 {
            inner.slots.clear();
            return;
        }
        let any_touched = inner
            .slots
            .iter()
            .any(|s| s.lock().expect("sharded slot lock").touched);
        if !any_touched {
            inner.slots.clear();
            return;
        }
        for b in 0..buffers {
            if inner.spill.len() <= b {
                inner.spill.push(Vec::new());
            }
            if inner.spill[b].is_empty() {
                inner.spill[b] = vec![0.0; inner.total];
            }
        }
        for slot in &inner.slots {
            let slot = slot.lock().expect("sharded slot lock");
            if !slot.touched {
                continue;
            }
            for (b, buf) in slot.bufs.iter().enumerate() {
                if buf.len() == slot.len {
                    inner.spill[b][slot.offset..slot.offset + slot.len].copy_from_slice(buf);
                }
            }
        }
        inner.slots.clear();
    }

    /// Stitches buffer `b` back into one full-length vector (zeros where
    /// no shard has state yet). Empty if nothing has been stepped — the
    /// same "empty until first step" contract the old whole-vector state
    /// had, which the checkpoint format relies on.
    pub fn flatten(&self, b: usize) -> Vec<f32> {
        let inner = self.inner.read().expect("sharded state lock");
        if inner.total == 0 {
            return Vec::new();
        }
        let mut out = match inner.spill.get(b) {
            Some(full) if !full.is_empty() => full.clone(),
            _ => vec![0.0; inner.total],
        };
        let mut any = inner.spill.get(b).is_some_and(|full| !full.is_empty());
        for slot in &inner.slots {
            let slot = slot.lock().expect("sharded slot lock");
            if !slot.touched {
                continue;
            }
            if let Some(buf) = slot.bufs.get(b) {
                if buf.len() == slot.len {
                    out[slot.offset..slot.offset + slot.len].copy_from_slice(buf);
                    any = true;
                }
            }
        }
        if any {
            out
        } else {
            Vec::new()
        }
    }

    /// Replaces all state with full-length buffers (checkpoint restore).
    /// The next `step_shard` re-splits them under whatever plan it uses.
    ///
    /// # Panics
    ///
    /// Panics if the buffers disagree on length.
    pub fn load_full(&mut self, bufs: Vec<Vec<f32>>) {
        let total = bufs.first().map_or(0, Vec::len);
        assert!(
            bufs.iter().all(|b| b.len() == total),
            "sharded state: checkpoint buffers disagree on length"
        );
        let inner = self.inner.get_mut().expect("sharded state lock");
        *inner = StateInner {
            slots: Vec::new(),
            total,
            spill: bufs,
        };
    }
}

impl Clone for ShardedState {
    fn clone(&self) -> Self {
        let inner = self.inner.read().expect("sharded state lock");
        let slots = inner
            .slots
            .iter()
            .map(|s| Arc::new(Mutex::new(s.lock().expect("sharded slot lock").clone())))
            .collect();
        ShardedState {
            buffers: self.buffers,
            inner: RwLock::new(StateInner {
                slots,
                total: inner.total,
                spill: inner.spill.clone(),
            }),
        }
    }
}

/// The block-aligned measure-phase partition: at most `shards` contiguous
/// chunks of whole reduction blocks covering `total` coordinates. Chunk
/// boundaries land on block boundaries so every [`StatsPartial`] carries
/// exactly the per-block sums the whole-vector pass would produce.
fn observe_plan(total: usize, shards: usize) -> Vec<(usize, usize)> {
    let nblocks = reduce::blocks_for(total);
    if nblocks == 0 {
        return Vec::new();
    }
    let chunks = shards.clamp(1, nblocks);
    let blocks_per = nblocks.div_ceil(chunks);
    let mut plan = Vec::with_capacity(chunks);
    let mut offset = 0;
    while offset < total {
        let len = (blocks_per * reduce::BLOCK).min(total - offset);
        plan.push((offset, len));
        offset += len;
    }
    plan
}

/// The measure phase of a one-shard step: the Σg² partial of the single
/// whole-vector shard when `opt` consumes partials, none otherwise. Runs
/// on the calling thread — the provided [`Optimizer::observe`] and a
/// `shards <= 1` [`step_fused`] both measure through it, so a one-shard
/// step never touches the pool.
pub(crate) fn whole_partials<O: Optimizer + ?Sized>(
    opt: &O,
    params: &[f32],
    grads: &[f32],
) -> Vec<StatsPartial> {
    if opt.needs_observe_partials() {
        vec![opt.observe_shard(ParamShard::whole(grads.len()), params, grads)]
    } else {
        Vec::new()
    }
}

/// Parameter vector handed across the fused dispatch as a raw pointer so
/// the measure phase can read it shared while the apply phase later
/// writes disjoint chunks through the same allocation.
///
/// Safety contract (upheld by [`step_grouped`]): no `read()` slice is
/// accessed after the first `chunk_mut` — the pool's phase barrier orders
/// every phase-1/`mid` read strictly before any phase-2 write — and
/// phase-2 chunks are pairwise disjoint. The contract orders *accesses*:
/// the `read()` slice is still a live, unused `&[f32]` argument of
/// [`step_fused`] while phase 2 writes, which Rust's stricter aliasing
/// models reject even though no read and write ever overlap in time.
struct RawParams {
    ptr: *mut f32,
    len: usize,
}

// SAFETY: `ptr` and `len` describe a `&mut [f32]` that `step_grouped`
// borrows for the whole dispatch, so the allocation outlives every pool
// task that receives this handle; `f32` is `Send` and `len` is a plain
// integer, so nothing here is tied to the creating thread.
unsafe impl Send for RawParams {}
// SAFETY: `&RawParams` exposes `ptr` and `len` only through the `unsafe`
// `read`/`chunk_mut`, whose callers guarantee that reads end before the
// first write and that concurrent chunks never overlap — so sharing the
// handle across pool workers never yields aliasing `&mut` slices.
unsafe impl Sync for RawParams {}

impl RawParams {
    fn new(params: &mut [f32]) -> Self {
        RawParams {
            ptr: params.as_mut_ptr(),
            len: params.len(),
        }
    }

    /// The whole vector, read-only (measure phase / `combine`).
    ///
    /// # Safety
    ///
    /// No `chunk_mut` slice may be live while the returned slice is
    /// accessed.
    unsafe fn read(&self) -> &[f32] {
        // SAFETY: `ptr`/`len` are the live slice borrowed in `new`; the
        // caller rules out concurrent writes through `chunk_mut`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// One disjoint chunk, mutable (apply phase).
    ///
    /// # Safety
    ///
    /// No `read()` slice may be accessed while the chunk is live, and
    /// concurrent `chunk_mut` ranges must not overlap.
    ///
    /// # Panics
    ///
    /// Panics if `[offset, offset + len)` is out of bounds — in release
    /// builds too, since the slice below is only sound in bounds.
    // The `&mut` out of `&self` is the entire point of this wrapper: the
    // disjointness/ordering contract above replaces the borrow checker.
    #[allow(clippy::mut_from_ref)]
    unsafe fn chunk_mut(&self, offset: usize, len: usize) -> &mut [f32] {
        assert!(
            offset + len <= self.len,
            "raw params: chunk [{offset}, {}) out of {} coordinates",
            offset + len,
            self.len
        );
        // SAFETY: the range is in bounds of the slice borrowed in `new`
        // (asserted above), and the caller guarantees nothing else
        // accesses it while the chunk is live.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(offset), len) }
    }
}

/// The fused measure → combine → apply driver: **one** dispatch onto the
/// persistent worker pool per optimizer step.
///
/// Phase 1 fans [`Optimizer::observe_shard`] out over a block-aligned
/// partition of the gradient into at most `shards` chunks; between the
/// phases the pool runs the closure-side critical section exactly once
/// on the calling thread — every worker is parked at the barrier, so the
/// `&mut` borrow for [`Optimizer::combine`] (the deterministic tree fold
/// plus the scalar tuning decision) is exclusive by construction; phase
/// 2 runs `apply(task, &opt, hyper)` for `apply_tasks` tasks, which
/// callers use to fan [`Optimizer::step_shard`] out over their shard
/// plan (0 tasks measures only). Returns the step's tuned [`Hyper`].
///
/// A `shards <= 1` step measures its one whole-vector partial inline on
/// the calling thread, exactly as [`Optimizer::observe`] does, so it
/// costs no pool fan-out. Optimizers whose measure phase consumes no
/// gradient reductions ([`Optimizer::needs_observe_partials`] is false)
/// skip phase 1 entirely and go straight to `combine`.
///
/// The partition, the partial order, and the fold are identical to the
/// whole-vector pass, so the result is bitwise equal to
/// [`Optimizer::observe`] + serial application for every shard count.
///
/// # Panics
///
/// Panics if `observe_params` and `grads` differ in length (same message
/// as the one-phase API), or on whatever the optimizer's own `combine`
/// checks. A panic in any shard resumes on the caller; the pool survives.
pub fn step_fused(
    opt: &mut dyn Optimizer,
    observe_params: &[f32],
    grads: &[f32],
    shards: usize,
    apply_tasks: usize,
    apply: impl Fn(usize, &dyn Optimizer, Hyper) + Sync,
) -> Hyper {
    crate::check_same_len(observe_params, grads);
    let total = grads.len();
    let (plan, inline) = if shards > 1 {
        let plan = if opt.needs_observe_partials() {
            observe_plan(total, shards)
        } else {
            Vec::new()
        };
        (plan, Vec::new())
    } else {
        (Vec::new(), whole_partials(&*opt, observe_params, grads))
    };
    let count = plan.len();
    let slots: Vec<Mutex<Option<StatsPartial>>> = (0..count).map(|_| Mutex::new(None)).collect();
    // Shared handle to the optimizer: the phases take read guards, the
    // mid-section takes the write guard. The pool's phase barrier means
    // the lock is never contended — it exists to hand the compiler a
    // safe `&mut` in the middle of a shared fan-out.
    let cell = RwLock::new(opt);
    let hyper_slot: OnceLock<Hyper> = OnceLock::new();
    parallel::Pool::global().run_phased(
        count,
        |i| {
            let (offset, len) = plan[i];
            let shard = ParamShard {
                index: i,
                count,
                offset,
                total,
            };
            let guard = cell.read().expect("optimizer cell");
            let p = guard.observe_shard(
                shard,
                &observe_params[offset..offset + len],
                &grads[offset..offset + len],
            );
            *slots[i].lock().expect("partial slot") = Some(p);
        },
        || {
            let mut guard = cell.write().expect("optimizer cell");
            // At most one of the inline partial and the fanned-out
            // slots is non-empty.
            let mut partials = inline;
            partials.extend(
                slots
                    .iter()
                    .map(|s| s.lock().expect("partial slot").take().expect("shard ran")),
            );
            let hyper = guard.combine(observe_params, grads, partials, 1.0);
            let _ = hyper_slot.set(hyper);
            hyper
        },
        apply_tasks,
        |i| {
            let hyper = *hyper_slot.get().expect("combine ran before apply");
            let guard = cell.read().expect("optimizer cell");
            apply(i, &**guard, hyper);
        },
    )
}

/// One fully sharded step: the one-group case of [`step_grouped`], so
/// measure, combine, and the apply over up to `shards` parallel slices
/// share a single [`step_fused`] pool dispatch. With `shards <= 1` this
/// is exactly the blanket [`Optimizer::step`]; reductions are
/// block-structured and updates per-coordinate, so the result is bitwise
/// identical for any shard count. Returns the step's tuned [`Hyper`].
///
/// # Panics
///
/// Panics if `params` and `grads` differ in length (same message as the
/// one-phase API), or on whatever the optimizer's own `combine` checks.
pub fn step_sharded(
    opt: &mut dyn Optimizer,
    params: &mut [f32],
    grads: &[f32],
    shards: usize,
) -> Hyper {
    let whole = ParamGroups::single(params.len()).with_shards(shards.max(1));
    step_grouped(opt, &whole, params, grads)
}

/// One contiguous apply chunk of the grouped plan, globally numbered.
struct ChunkDesc {
    /// Global shard index across all groups (one consistent plan).
    index: usize,
    /// Which group the chunk belongs to (for hyper overrides).
    group: usize,
    /// First flat coordinate, global.
    offset: usize,
    /// Coordinates in this chunk.
    len: usize,
}

/// One sharded measure phase plus a grouped, sharded apply: each group of
/// `groups` is applied with its own (override-adjusted) hyperparameters,
/// split into parallel shards. Shard indices are numbered globally across
/// groups so [`ShardedState`] sees one consistent plan; the measure phase
/// runs over the whole vector (group boundaries do not affect the
/// statistics), and measure, combine, and every group's apply chunks all
/// share a single [`step_fused`] pool dispatch. Returns the step's tuned
/// [`Hyper`] (before any group override).
///
/// # Panics
///
/// Panics if `groups.total()` does not match `params.len()`, or if
/// `params` and `grads` differ in length.
pub fn step_grouped(
    opt: &mut dyn Optimizer,
    groups: &ParamGroups,
    params: &mut [f32],
    grads: &[f32],
) -> Hyper {
    assert_eq!(
        groups.total(),
        params.len(),
        "step_grouped: groups cover {} coordinates, params have {}",
        groups.total(),
        params.len()
    );
    let total = params.len();
    let threads = groups.resolved_shards();
    // Pre-compute the flat chunk list: per-group plans, globally indexed.
    let mut chunks: Vec<ChunkDesc> = Vec::new();
    let mut base_index = 0;
    for (gi, g) in groups.groups().iter().enumerate() {
        if g.len == 0 {
            continue;
        }
        let t = threads.clamp(1, g.len);
        let rows_per = parallel::chunk_rows(g.len, t);
        let n = g.len.div_ceil(rows_per);
        for c in 0..n {
            let off = c * rows_per;
            chunks.push(ChunkDesc {
                index: base_index + c,
                group: gi,
                offset: g.offset + off,
                len: rows_per.min(g.len - off),
            });
        }
        base_index += n;
    }
    let count = base_index;
    let raw = RawParams::new(params);
    step_fused(
        opt,
        // SAFETY: the measure phase and `combine` read this slice before
        // the phase barrier; no apply chunk exists until after it.
        unsafe { raw.read() },
        grads,
        threads,
        chunks.len(),
        |i, opt, base| {
            let d = &chunks[i];
            let g = &groups.groups()[d.group];
            let shard = ParamShard {
                index: d.index,
                count,
                offset: d.offset,
                total,
            };
            // SAFETY: phase 2 starts after every read of the observe
            // slice; the chunk list tiles each group disjointly and the
            // groups tile the vector, so concurrent chunks never overlap.
            let chunk = unsafe { raw.chunk_mut(d.offset, d.len) };
            let gslice = &grads[d.offset..d.offset + d.len];
            opt.step_shard(shard, chunk, gslice, g.adjust(base));
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MomentumSgd, Optimizer, Sgd};

    fn grad(x: &[f32]) -> Vec<f32> {
        x.to_vec()
    }

    #[test]
    fn sharded_matches_whole_step_bitwise() {
        for shards in [1usize, 2, 3, 4, 7] {
            let mut a = MomentumSgd::new(0.07, 0.9);
            let mut b = MomentumSgd::new(0.07, 0.9);
            let mut xa: Vec<f32> = (0..23).map(|i| (i as f32 * 0.3).sin()).collect();
            let mut xb = xa.clone();
            for _ in 0..25 {
                let g = grad(&xa);
                a.step(&mut xa, &g);
                let g = grad(&xb);
                step_sharded(&mut b, &mut xb, &g, shards);
            }
            assert_eq!(xa, xb, "shards = {shards}");
        }
    }

    #[test]
    fn shard_plan_change_preserves_state() {
        // 1-shard steps, then 4-shard steps, must equal all-1-shard.
        let mut a = MomentumSgd::new(0.05, 0.8);
        let mut b = MomentumSgd::new(0.05, 0.8);
        let mut xa: Vec<f32> = (0..17).map(|i| i as f32 * 0.1 - 0.8).collect();
        let mut xb = xa.clone();
        for t in 0..30 {
            let g = grad(&xa);
            a.step(&mut xa, &g);
            let g = grad(&xb);
            let shards = if t < 10 { 1 } else { 4 };
            step_sharded(&mut b, &mut xb, &g, shards);
        }
        assert_eq!(xa, xb, "re-sharding mid-run must carry state over");
    }

    #[test]
    fn flatten_and_load_round_trip() {
        let state = ShardedState::new(1);
        let shard = ParamShard::whole(4);
        state.with(shard, 4, |bufs| {
            bufs[0] = vec![1.0, 2.0, 3.0, 4.0];
        });
        let flat = state.flatten(0);
        assert_eq!(flat, vec![1.0, 2.0, 3.0, 4.0]);
        let mut restored = ShardedState::new(1);
        restored.load_full(vec![flat]);
        // Read back under a different plan.
        let s0 = ParamShard {
            index: 0,
            count: 2,
            offset: 0,
            total: 4,
        };
        restored.with(s0, 2, |bufs| assert_eq!(bufs[0], vec![1.0, 2.0]));
        let s1 = ParamShard {
            index: 1,
            count: 2,
            offset: 2,
            total: 4,
        };
        restored.with(s1, 2, |bufs| assert_eq!(bufs[0], vec![3.0, 4.0]));
    }

    #[test]
    #[should_panic(expected = "parameter count changed")]
    fn dimension_change_panics() {
        let state = ShardedState::new(1);
        state.with(ParamShard::whole(3), 3, |_| {});
        state.with(ParamShard::whole(4), 4, |_| {});
    }

    #[test]
    fn fused_step_is_one_pool_dispatch() {
        // The whole measure → combine → apply step must ride a single
        // pool fan-out. `Clipped` measures (needs_observe_partials), so
        // a multi-block vector exercises both phases; the counter is
        // thread-local, so concurrent tests cannot skew the delta.
        let mut opt = crate::clip::Clipped::new(MomentumSgd::new(0.05, 0.9), 1e6);
        let mut x: Vec<f32> = (0..4 * reduce::BLOCK)
            .map(|i| (i as f32 * 0.01).sin())
            .collect();
        let g = grad(&x);
        let before = parallel::fanout_count();
        step_sharded(&mut opt, &mut x, &g, 4);
        assert_eq!(
            parallel::fanout_count() - before,
            1,
            "measure + combine + apply must share one dispatch"
        );
        // Measuring alone (no apply tasks) is also a single dispatch.
        let before = parallel::fanout_count();
        step_fused(&mut opt, &x, &g, 4, 0, |_, _, _| {});
        assert_eq!(parallel::fanout_count() - before, 1);
        // A one-shard step measures inline: no fan-out at all.
        let before = parallel::fanout_count();
        step_sharded(&mut opt, &mut x, &g, 1);
        assert_eq!(parallel::fanout_count() - before, 0);
    }

    #[test]
    fn grouped_step_is_one_pool_dispatch() {
        let groups = ParamGroups::from_named([("a", 2 * reduce::BLOCK), ("b", 2 * reduce::BLOCK)])
            .with_shards(4);
        let mut opt = crate::clip::Clipped::new(MomentumSgd::new(0.05, 0.9), 1e6);
        let mut x: Vec<f32> = (0..4 * reduce::BLOCK)
            .map(|i| (i as f32 * 0.02).cos())
            .collect();
        let g = grad(&x);
        let before = parallel::fanout_count();
        step_grouped(&mut opt, &groups, &mut x, &g);
        assert_eq!(
            parallel::fanout_count() - before,
            1,
            "grouped step must fuse"
        );
    }

    #[test]
    fn step_sharded_on_stateless_optimizer() {
        let mut opt = Sgd::new(0.5);
        let mut x = vec![1.0f32, 2.0, 3.0, 4.0, 5.0];
        let g = vec![2.0f32; 5];
        let hyper = step_sharded(&mut opt, &mut x, &g, 3);
        assert_eq!(hyper, Hyper::new(0.5, 0.0));
        assert_eq!(x, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }
}
