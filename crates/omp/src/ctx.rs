//! `OmpCtx` — what code inside a parallel region programs against.
//!
//! Mirrors the OpenMP directives the paper's applications use:
//! worksharing loops (`for` with `static`, `static,chunk`, `dynamic`,
//! `guided` schedules), `barrier`, `critical`, `master`/`single`, and
//! reductions. Everything lowers onto the DSM context the way the
//! SUIF-generated TreadMarks code does, except a region's `reduction`
//! clause on the current generation, which rides the join
//! ([`crate::Portable::sum`]).
//!
//! **Portable and blocking constructs.** The constructs that never
//! wait for another rank (static worksharing loops, `master`, array
//! lookup, compute charges) exist on `OmpCtx<'_, M>` for every
//! [`SharedMem`] `M`, so a body generic over `M` runs on both engines
//! ([`crate::OmpProgram::portable`]). Those that block (`barrier`,
//! `critical`, `single`, `sections`, `for_dynamic`, `for_guided`,
//! `reduce_*`) exist only on `OmpCtx<'_, TmkCtx>`, the thread engine,
//! which is what a plain `|ctx| …` closure gets:
//!
//! ```
//! use nowmp_omp::{OmpCtx, SharedMem};
//! fn body<M: SharedMem>(ctx: &mut OmpCtx<'_, M>) {
//!     ctx.for_static(0..8, |_, _| {});
//! }
//! ```
//!
//! ```compile_fail
//! use nowmp_omp::{OmpCtx, SharedMem};
//! fn body<M: SharedMem>(ctx: &mut OmpCtx<'_, M>) {
//!     ctx.barrier(); // no such method unless M = TmkCtx
//! }
//! ```
//!
//! **Compute charging.** Every worksharing loop charges the modeled
//! compute cost of the iterations it executed — `per-iteration region
//! cost × iterations / effective host speed`, resolved through the
//! [`nowmp_net::CostModel`] — to the cluster clock at each chunk
//! boundary. With the cost model disabled (the default for
//! correctness tests) the charge is a no-op; with a calibrated profile
//! under a virtual clock, `sched.rs` partitions become *time-visible*
//! and virtual runs reproduce Table 1/2 quantitatively.

use crate::params::ParamsReader;
use crate::sched;
use nowmp_core::{DYN_COUNTER, RED_ARRAY};
use nowmp_tmk::shared::{SharedF64Mat, SharedF64Vec, SharedU64Vec};
use nowmp_tmk::{SharedMem, TmkCtx};
use std::ops::Range;

/// Lock id carved out for the dynamic-schedule iteration counter.
const DYN_LOCK: u32 = 0xFFFF_0000;
/// Base for user critical-section locks.
const CRIT_BASE: u32 = 0xFFFF_1000;

/// A `sections` work item.
pub type Section<'c, 'a> = Box<dyn FnOnce(&mut OmpCtx<'a>) + 'c>;

/// Per-region execution context (one per process per region
/// execution); over the thread engine's [`TmkCtx`] unless stated.
pub struct OmpCtx<'a, M = TmkCtx> {
    tmk: &'a mut M,
}

/// The portable constructs: nothing here waits for another rank.
impl<'a, M: SharedMem> OmpCtx<'a, M> {
    /// Wrap a memory context.
    pub fn new(tmk: &'a mut M) -> Self {
        OmpCtx { tmk }
    }

    /// This process's rank (0 = master).
    pub fn pid(&self) -> usize {
        self.tmk.pid() as usize
    }

    /// Team size (`omp_get_num_threads`).
    pub fn nprocs(&self) -> usize {
        self.tmk.nprocs()
    }

    /// Firstprivate parameters of this region execution.
    pub fn params(&self) -> ParamsReader<'_> {
        ParamsReader::new(self.tmk.params())
    }

    /// Strip bounds appended by [`crate::OmpSystem::parallel_strips`]
    /// (the paper's §7 loop-tiling transformation: the compiler splits
    /// one parallel loop into strips so adaptation points occur more
    /// frequently). Returns the `(lo, hi)` sub-range this fork covers,
    /// or the full `0..u64::MAX` marker when the region was launched
    /// unstripped.
    pub fn strip_bounds(&self) -> (u64, u64) {
        let raw = self.tmk.params();
        if raw.len() < 16 {
            return (0, u64::MAX);
        }
        let tail = &raw[raw.len() - 16..];
        let lo = u64::from_le_bytes(tail[0..8].try_into().expect("8 bytes"));
        let hi = u64::from_le_bytes(tail[8..16].try_into().expect("8 bytes"));
        (lo, hi)
    }

    /// `schedule(static)` over the intersection of `range` with this
    /// fork's strip (see [`Self::strip_bounds`]).
    pub fn for_static_stripped(&mut self, range: Range<u64>, f: impl FnMut(&mut Self, u64)) {
        let (lo, hi) = self.strip_bounds();
        let sub = range.start.max(lo)..range.end.min(hi);
        if sub.start < sub.end {
            self.for_static(sub, f);
        }
    }

    /// Escape hatch to the memory layer (typed arrays take this).
    pub fn dsm(&mut self) -> &mut M {
        self.tmk
    }

    /// Charge an explicit FLOP count to the cluster clock (see
    /// [`SharedMem::charge_flops`]) — for regions whose per-iteration work
    /// varies, where the uniform per-index charge of the worksharing
    /// loops would mis-shape the timeline. No-op unless the cost model
    /// has compute charging enabled.
    pub fn charge_flops(&mut self, flops: f64) {
        self.tmk.charge_flops(flops);
    }

    /// Look up a shared `f64` vector by name.
    pub fn f64vec(&mut self, name: &str) -> SharedF64Vec {
        SharedF64Vec::lookup(self.tmk, name)
    }

    /// Look up a shared `f64` matrix by name.
    pub fn f64mat(&mut self, name: &str, rows: u64, cols: u64) -> SharedF64Mat {
        SharedF64Mat::lookup(self.tmk, name, rows, cols)
    }

    /// Look up a shared `u64` vector by name.
    pub fn u64vec(&mut self, name: &str) -> SharedU64Vec {
        SharedU64Vec::lookup(self.tmk, name)
    }

    // ------------------------------------------------------------------
    // Worksharing
    // ------------------------------------------------------------------

    /// `#pragma omp for schedule(static)`: run `f` on this process's
    /// contiguous block of `range`. No implied barrier (the region's
    /// join provides one); call [`OmpCtx::barrier`] if needed earlier.
    pub fn for_static(&mut self, range: Range<u64>, mut f: impl FnMut(&mut Self, u64)) {
        let block = sched::static_block(range, self.pid(), self.nprocs());
        let iters = block.end.saturating_sub(block.start);
        for i in block {
            f(self, i);
        }
        self.tmk.charge_compute(iters);
    }

    /// `#pragma omp for schedule(static)` handing the whole contiguous
    /// block to `f` at once — for kernels that bulk-process their block
    /// (page-granular reads/writes) instead of iterating index by
    /// index. Charges the region's per-iteration compute cost for
    /// every index of the block at the chunk boundary, exactly like
    /// [`Self::for_static`].
    pub fn for_static_block(&mut self, range: Range<u64>, f: impl FnOnce(&mut Self, Range<u64>)) {
        let block = sched::static_block(range, self.pid(), self.nprocs());
        let iters = block.end.saturating_sub(block.start);
        f(self, block);
        self.tmk.charge_compute(iters);
    }

    /// `#pragma omp for schedule(static, chunk)`.
    pub fn for_static_chunk(
        &mut self,
        range: Range<u64>,
        chunk: u64,
        mut f: impl FnMut(&mut Self, u64),
    ) {
        let chunks: Vec<_> =
            sched::static_chunks(range, chunk, self.pid(), self.nprocs()).collect();
        for c in chunks {
            let iters = c.end.saturating_sub(c.start);
            for i in c {
                f(self, i);
            }
            self.tmk.charge_compute(iters);
        }
    }

    /// `#pragma omp master`: only pid 0 runs `f` (no implied barrier).
    pub fn master(&mut self, f: impl FnOnce(&mut Self)) {
        if self.pid() == 0 {
            f(self);
        }
    }

    /// Publish this rank's reduction contribution in the runtime
    /// scratch. The scratch protocol — the 1999 lowering of a region's
    /// `reduction` clause on both engines, and every in-region
    /// `reduce_*` call — runs: publish, synchronize,
    /// [`Self::reduction_fold`], synchronize (nobody may overwrite the
    /// scratch while stragglers still read it).
    pub(crate) fn reduction_publish(&mut self, local: f64) {
        let red = SharedF64Vec::lookup(self.tmk, RED_ARRAY);
        assert!(self.nprocs() <= red.len(), "team exceeds reduction scratch");
        red.set(self.tmk, self.pid(), local);
    }

    /// Combine every rank's published contribution, in pid order.
    pub(crate) fn reduction_fold(&mut self, combine: impl Fn(f64, f64) -> f64, init: f64) -> f64 {
        let red = SharedF64Vec::lookup(self.tmk, RED_ARRAY);
        (0..self.nprocs()).fold(init, |acc, p| combine(acc, red.get(self.tmk, p)))
    }
}

/// The constructs that block on another rank: thread engine only.
impl<'a> OmpCtx<'a, TmkCtx> {
    /// `#pragma omp for schedule(dynamic, chunk)`: processes grab
    /// chunks from a shared counter under a lock. Self-contained: the
    /// counter is reset by pid 0 between two barriers, then chunks are
    /// claimed until the range is exhausted. Implies a trailing barrier.
    pub fn for_dynamic(
        &mut self,
        range: Range<u64>,
        chunk: u64,
        mut f: impl FnMut(&mut Self, u64),
    ) {
        assert!(chunk > 0);
        let counter = SharedU64Vec::lookup(self.tmk, DYN_COUNTER);
        self.barrier();
        if self.pid() == 0 {
            counter.set(self.tmk, 0, range.start);
        }
        self.barrier();
        loop {
            let lo = self.tmk.critical(DYN_LOCK, |t| {
                let cur = counter.get(t, 0);
                if cur < range.end {
                    counter.set(t, 0, (cur + chunk).min(range.end));
                }
                cur
            });
            if lo >= range.end {
                break;
            }
            let hi = (lo + chunk).min(range.end);
            for i in lo..hi {
                f(self, i);
            }
            self.tmk.charge_compute(hi - lo);
        }
        self.barrier();
    }

    /// `#pragma omp for schedule(guided, min_chunk)`: like dynamic but
    /// with shrinking chunks.
    pub fn for_guided(
        &mut self,
        range: Range<u64>,
        min_chunk: u64,
        mut f: impl FnMut(&mut Self, u64),
    ) {
        assert!(min_chunk > 0);
        let n = self.nprocs() as u64;
        let counter = SharedU64Vec::lookup(self.tmk, DYN_COUNTER);
        self.barrier();
        if self.pid() == 0 {
            counter.set(self.tmk, 0, range.start);
        }
        self.barrier();
        loop {
            let (lo, hi) = self.tmk.critical(DYN_LOCK, |t| {
                let cur = counter.get(t, 0);
                if cur >= range.end {
                    (cur, cur)
                } else {
                    let remaining = range.end - cur;
                    let c = (remaining / n).max(min_chunk).min(remaining);
                    counter.set(t, 0, cur + c);
                    (cur, cur + c)
                }
            });
            if lo >= range.end {
                break;
            }
            for i in lo..hi {
                f(self, i);
            }
            self.tmk.charge_compute(hi - lo);
        }
        self.barrier();
    }

    // ------------------------------------------------------------------
    // Synchronization
    // ------------------------------------------------------------------

    /// `#pragma omp barrier`.
    pub fn barrier(&mut self) {
        self.tmk.barrier();
    }

    /// `#pragma omp critical(id)`: run `f` under distributed lock `id`.
    pub fn critical<R>(&mut self, id: u32, f: impl FnOnce(&mut Self) -> R) -> R {
        self.tmk.lock(CRIT_BASE + id);
        let r = f(self);
        self.tmk.unlock(CRIT_BASE + id);
        r
    }

    /// `#pragma omp single`: pid 0 runs `f`; everyone barriers after
    /// (OpenMP's implied barrier at the end of `single`).
    pub fn single(&mut self, f: impl FnOnce(&mut Self)) {
        if self.pid() == 0 {
            f(self);
        }
        self.barrier();
    }

    /// `#pragma omp sections`: section `k` runs on pid `k % nprocs`;
    /// implied barrier at the end.
    pub fn sections(&mut self, fs: Vec<Section<'_, 'a>>) {
        let me = self.pid();
        let n = self.nprocs();
        for (k, f) in fs.into_iter().enumerate() {
            if k % n == me {
                f(self);
            }
        }
        self.barrier();
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    fn reduce_f64(&mut self, local: f64, combine: impl Fn(f64, f64) -> f64, init: f64) -> f64 {
        self.reduction_publish(local);
        self.barrier();
        let acc = self.reduction_fold(combine, init);
        self.barrier();
        acc
    }

    /// `reduction(+: x)`: global sum of each process's `local`.
    pub fn reduce_sum_f64(&mut self, local: f64) -> f64 {
        self.reduce_f64(local, |a, b| a + b, 0.0)
    }

    /// `reduction(max: x)`.
    pub fn reduce_max_f64(&mut self, local: f64) -> f64 {
        self.reduce_f64(local, f64::max, f64::NEG_INFINITY)
    }

    /// `reduction(min: x)`.
    pub fn reduce_min_f64(&mut self, local: f64) -> f64 {
        self.reduce_f64(local, f64::min, f64::INFINITY)
    }
}
