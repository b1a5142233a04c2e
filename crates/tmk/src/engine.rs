//! Resumable host state for the event-driven engine — tasks, not
//! threads.
//!
//! The thread-backed simulation in [`crate::system`] parks each host's
//! protocol position in an OS stack: an application thread blocked in a
//! barrier *is* the state "arrived at barrier". That representation
//! costs two threads per simulated host and tops sweeps out near 32
//! hosts. This module provides the alternative the scale sweeps run
//! on: each host's position between communication points is an explicit
//! enum ([`HostState`]), each parallel-region body is a resumable state
//! machine ([`RegionTask`]) stepped by a scheduler, and shared memory
//! is a flat word store ([`SimMemory`]) with phase-buffered writes.
//! Parking a host is then a data move, not a stack switch — the
//! typestate idiom (xv6's `CPUState`): invalid protocol positions are
//! unrepresentable, and *which* communication point a host is parked at
//! is pattern-matchable by the engine.
//!
//! ## Memory model
//!
//! Lazy release consistency says writes become visible at the next
//! synchronization. The task engine takes that literally:
//! [`TaskCtx`] reads hit the pre-phase [`SimMemory`] snapshot; writes
//! buffer into the step's [`StepOutcome`]; the engine applies all
//! buffers in pid order at the barrier / region end. One rule follows
//! for kernels: **within one phase, never read a location after
//! writing it** — read-your-own-write needs the next phase. (The
//! paper kernels are phase-structured exactly this way.) Debug builds
//! hold every step to it: [`TaskCtx`] panics with the address.
//!
//! The engine that drives these types — scheduling, virtual time,
//! adaptation — lives in `nowmp_core::engine`. Kernels write each
//! region body once, generic over [`SharedMem`]; `nowmp_omp::OmpProgram`
//! lowers it to a [`RegionTask`] that runs it over a [`TaskCtx`].

use std::collections::BTreeSet;
#[cfg(debug_assertions)]
use std::collections::HashSet;

use crate::mem::SharedMem;
use crate::msg::RegEntry;
use crate::shm::Registry;
use crate::types::{Addr, PageId, Pid};

/// What a [`RegionTask`] does after one step: the only two ways a
/// host leaves the CPU. A step always ends at a communication point,
/// so one step is one whole phase — what the phase-rule guard assumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Arrived at a barrier: park until every live rank arrives, then
    /// resume (buffered writes of the whole team apply first).
    Barrier,
    /// Region body complete for this rank (an implicit barrier ends
    /// the region).
    Done,
}

/// One rank's resumable execution of one parallel-region body.
///
/// A `RegionTask` is the unwound form of a region function: instead of
/// blocking in `barrier()`, it returns [`Step::Barrier`] and keeps its
/// loop position in fields. The engine calls [`RegionTask::step`] once
/// per scheduling wave with a fresh [`TaskCtx`]; all side effects flow
/// through the ctx (buffered writes, compute charges, page touches).
pub trait RegionTask: Send {
    /// Run until the next communication point.
    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step;

    /// The master's sequential epilogue after the join, handed the
    /// `reduction` partials every rank's last step gave the join
    /// ([`TaskCtx::hand_to_join`]), in pid order. The engine calls it
    /// on rank 0's task only, and only when some rank handed one.
    fn join_epilogue(&mut self, ctx: &mut TaskCtx<'_>, partials: &[f64]) {
        let _ = (ctx, partials);
    }
}

/// A host's protocol position between communication points — the
/// resumable replacement for a parked thread stack.
///
/// Transitions (driven by the engine):
///
/// ```text
///   Idle ── fork ──▶ Running ──[Step::Barrier]──▶ BarrierWait
///                      ▲                               │ all ranks
///                      └────── barrier release ◀───────┘ arrived
///   Running ──[Step::Done]──▶ Done ── join (all ranks) ──▶ Idle
/// ```
pub enum HostState {
    /// Between regions: no task installed (the fork hasn't reached
    /// this rank, or the join already collected it).
    Idle,
    /// Executing region code: the task is runnable and will be stepped
    /// in the next wave.
    Running(Box<dyn RegionTask>),
    /// Arrived at an in-region barrier; holds the task to resume once
    /// every live rank arrives.
    BarrierWait(Box<dyn RegionTask>),
    /// Region body finished; waiting for the implicit end-of-region
    /// barrier (the join).
    Done,
}

impl HostState {
    /// Is this rank holding up the current wave (still runnable)?
    pub fn is_running(&self) -> bool {
        matches!(self, HostState::Running(_))
    }

    /// Has this rank reached a communication point (barrier or done)?
    pub fn is_parked(&self) -> bool {
        matches!(self, HostState::BarrierWait(_) | HostState::Done)
    }
}

impl std::fmt::Debug for HostState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            HostState::Idle => "Idle",
            HostState::Running(_) => "Running",
            HostState::BarrierWait(_) => "BarrierWait",
            HostState::Done => "Done",
        })
    }
}

/// Everything one [`RegionTask::step`] did, for the engine to merge
/// deterministically: buffered writes (applied in pid order at the
/// next sync), pages touched (fault accounting against the rank's
/// valid set), and compute charged (worksharing iterations, explicit
/// FLOPs).
#[derive(Debug, Default)]
pub struct StepOutcome {
    /// Word writes in program order; visible to others after the next
    /// synchronization, per LRC.
    pub writes: Vec<(Addr, u64)>,
    /// Pages read or written this step (set, not multiset: TreadMarks
    /// faults once per page per interval).
    pub touched: BTreeSet<PageId>,
    /// Worksharing iterations charged (converted to virtual time by
    /// the engine's cost model, like `charge_compute`).
    pub compute_iters: u64,
    /// Explicit FLOPs charged (`charge_flops`), converted the same way.
    pub flops: f64,
    /// The `reduction` partial handed to the region's join
    /// ([`TaskCtx::hand_to_join`]).
    pub partial: Option<f64>,
}

/// The flat shared-memory image the task engine simulates against.
///
/// The thread engine replicates pages per process and reconciles them
/// with twins and diffs; parity is judged on *final content and event
/// order*, not on the reconciliation mechanics, so the task engine
/// keeps one authoritative copy. Word-addressed like the real
/// [`crate::shm::Allocator`] address space (same `Addr` values, same
/// page geometry), zero-initialized like fresh DSM pages.
#[derive(Debug)]
pub struct SimMemory {
    words: Vec<u64>,
    /// Slots (8-byte words) per page — `DsmConfig::slots_per_page`.
    spp: usize,
}

impl SimMemory {
    /// An empty store with `spp`-word pages.
    pub fn new(spp: usize) -> SimMemory {
        assert!(spp > 0, "pages must hold at least one word");
        SimMemory {
            words: Vec::new(),
            spp,
        }
    }

    /// Words per page.
    pub fn slots_per_page(&self) -> usize {
        self.spp
    }

    /// Grow (zero-filled) so addresses below `slots` are in range —
    /// call after each allocation, mirroring `Allocator::alloc`.
    pub fn ensure_slots(&mut self, slots: Addr) {
        let want = (slots as usize).div_ceil(self.spp) * self.spp;
        if want > self.words.len() {
            self.words.resize(want, 0);
        }
    }

    /// Load the word at `addr` (zero if never written, like a fresh
    /// DSM page).
    #[inline]
    pub fn load(&self, addr: Addr) -> u64 {
        self.words.get(addr as usize).copied().unwrap_or(0)
    }

    /// Store directly (master-sequential phases and write-buffer
    /// application; region code goes through [`TaskCtx::write_u64`]).
    #[inline]
    pub fn store(&mut self, addr: Addr, word: u64) {
        if self.words.len() <= addr as usize {
            self.ensure_slots(addr + 1);
        }
        self.words[addr as usize] = word;
    }

    /// Apply one rank's buffered writes in program order.
    pub fn apply_writes(&mut self, writes: &[(Addr, u64)]) {
        for &(addr, word) in writes {
            self.store(addr, word);
        }
    }

    /// Page containing `addr`.
    #[inline]
    pub fn page_of(&self, addr: Addr) -> PageId {
        (addr as usize / self.spp) as PageId
    }

    /// Number of pages backing the grown store.
    pub fn num_pages(&self) -> usize {
        self.words.len() / self.spp
    }

    /// The `spp` words of `page` (zero-filled if beyond the store) —
    /// checkpoint image extraction.
    pub fn page_words(&self, page: PageId) -> Vec<u64> {
        let start = page as usize * self.spp;
        (start..start + self.spp)
            .map(|i| self.words.get(i).copied().unwrap_or(0))
            .collect()
    }
}

/// What a [`RegionTask`] programs against for one step: its identity
/// in the team, read access to the pre-phase memory snapshot, and the
/// outcome accumulators. The same access surface as the thread
/// engine's `TmkCtx` ([`SharedMem`]), minus the fault driver — faults
/// are derived from [`StepOutcome::touched`] by the engine.
pub struct TaskCtx<'a> {
    pid: Pid,
    nprocs: usize,
    mem: &'a SimMemory,
    out: &'a mut StepOutcome,
    registry: Option<&'a Registry>,
    params: &'a [u8],
    /// Whether a `reduction` clause rides the join
    /// ([`crate::CollectiveConfig::reduces_at_join`]).
    join_reduction: bool,
    /// Words this step wrote — the phase-rule guard.
    #[cfg(debug_assertions)]
    written: HashSet<Addr>,
}

impl<'a> TaskCtx<'a> {
    /// Build a step context for `pid` of `nprocs` over the pre-phase
    /// snapshot `mem`, accumulating into `out`.
    pub fn new(pid: Pid, nprocs: usize, mem: &'a SimMemory, out: &'a mut StepOutcome) -> Self {
        TaskCtx {
            pid,
            nprocs,
            mem,
            out,
            registry: None,
            params: &[],
            join_reduction: false,
            #[cfg(debug_assertions)]
            written: HashSet::new(),
        }
    }

    /// Attach what a region body looks up by name: the allocation
    /// registry and the fork's firstprivate parameters.
    pub fn in_region(mut self, registry: &'a Registry, params: &'a [u8]) -> Self {
        self.registry = Some(registry);
        self.params = params;
        self
    }

    /// Let a `reduction` clause ride the join, as the engine's
    /// generation says ([`crate::CollectiveConfig::reduces_at_join`]);
    /// off by default.
    pub fn with_join_reduction(mut self, on: bool) -> Self {
        self.join_reduction = on;
        self
    }

    /// Whether a region's `reduction` clause rides its join.
    pub fn reduction_rides_join(&self) -> bool {
        self.join_reduction
    }

    /// Hand this rank's `reduction` partial to the region's join, where
    /// the engine collects the team's in pid order for the master's
    /// [`RegionTask::join_epilogue`].
    pub fn hand_to_join(&mut self, partial: f64) {
        self.out.partial = Some(partial);
    }

    #[inline]
    fn touch(&mut self, addr: Addr) {
        self.out.touched.insert(self.mem.page_of(addr));
    }

    /// Touch each page of `[addr, addr + len)` once.
    fn touch_span(&mut self, addr: Addr, len: usize) {
        if len > 0 {
            let last = self.mem.page_of(addr + len as Addr - 1);
            self.out.touched.extend(self.mem.page_of(addr)..=last);
        }
    }

    /// The phase rule, checked: the snapshot a read hits does not hold
    /// this step's own writes, so reading one back is a kernel bug.
    #[inline]
    fn load(&self, addr: Addr) -> u64 {
        #[cfg(debug_assertions)]
        assert!(
            !self.written.contains(&addr),
            "phase rule: pid {} read word {addr:#x} after writing it in the same phase",
            self.pid
        );
        self.mem.load(addr)
    }

    #[inline]
    fn buffer(&mut self, addr: Addr, v: u64) {
        #[cfg(debug_assertions)]
        self.written.insert(addr);
        self.out.writes.push((addr, v));
    }

    /// Read a word from the pre-phase snapshot (buffered writes of the
    /// current phase — own or others' — are *not* visible).
    #[inline]
    pub fn read_u64(&mut self, addr: Addr) -> u64 {
        self.touch(addr);
        self.load(addr)
    }

    /// Buffer a word write; visible after the next synchronization.
    #[inline]
    pub fn write_u64(&mut self, addr: Addr, v: u64) {
        self.touch(addr);
        self.buffer(addr, v);
    }

    /// Charge `iters` worksharing iterations of virtual compute — the
    /// task-engine analog of `TmkCtx::charge_compute`.
    pub fn charge_compute(&mut self, iters: u64) {
        self.out.compute_iters += iters;
    }
}

impl SharedMem for TaskCtx<'_> {
    fn pid(&self) -> Pid {
        self.pid
    }
    fn nprocs(&self) -> usize {
        self.nprocs
    }
    fn params(&self) -> &[u8] {
        self.params
    }
    fn handle(&self, name: &str) -> Option<RegEntry> {
        self.registry.and_then(|r| r.get(name)).cloned()
    }
    #[inline]
    fn read_u64(&mut self, addr: Addr) -> u64 {
        TaskCtx::read_u64(self, addr)
    }
    #[inline]
    fn write_u64(&mut self, addr: Addr, v: u64) {
        TaskCtx::write_u64(self, addr, v);
    }
    fn read_words(&mut self, addr: Addr, dst: &mut [u64]) {
        self.touch_span(addr, dst.len());
        for (a, d) in (addr..).zip(dst) {
            *d = self.load(a);
        }
    }
    fn write_words(&mut self, addr: Addr, src: &[u64]) {
        self.touch_span(addr, src.len());
        for (a, &v) in (addr..).zip(src) {
            self.buffer(a, v);
        }
    }
    fn read_f64s(&mut self, addr: Addr, dst: &mut [f64]) {
        self.touch_span(addr, dst.len());
        for (a, d) in (addr..).zip(dst) {
            *d = f64::from_bits(self.load(a));
        }
    }
    fn write_f64s(&mut self, addr: Addr, src: &[f64]) {
        self.touch_span(addr, src.len());
        for (a, &v) in (addr..).zip(src) {
            self.buffer(a, v.to_bits());
        }
    }
    #[inline]
    fn charge_compute(&mut self, iters: u64) {
        TaskCtx::charge_compute(self, iters);
    }
    fn charge_flops(&mut self, flops: f64) {
        if flops > 0.0 {
            self.out.flops += flops;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts to 3 with a barrier between increments.
    struct Counter {
        base: Addr,
        round: u32,
    }

    impl RegionTask for Counter {
        fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
            let addr = self.base + ctx.pid() as Addr;
            let v = ctx.read_u64(addr);
            ctx.write_u64(addr, v + 1);
            ctx.charge_compute(1);
            self.round += 1;
            if self.round < 3 {
                Step::Barrier
            } else {
                Step::Done
            }
        }
    }

    #[test]
    fn writes_are_buffered_until_applied() {
        let mut mem = SimMemory::new(8);
        mem.ensure_slots(8);
        let mut task = Counter { base: 0, round: 0 };
        let mut out = StepOutcome::default();
        let step = task.step(&mut TaskCtx::new(0, 1, &mem, &mut out));
        assert_eq!(step, Step::Barrier);
        // Pre-sync: the store is untouched; the write sits in the log.
        assert_eq!(mem.load(0), 0);
        assert_eq!(out.writes, vec![(0, 1)]);
        assert_eq!(out.touched.iter().copied().collect::<Vec<_>>(), vec![0]);
        assert_eq!(out.compute_iters, 1);
        mem.apply_writes(&out.writes);
        assert_eq!(mem.load(0), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "phase rule: pid 0 read word 0x9")]
    fn reading_back_a_write_of_the_same_phase_panics() {
        let mut mem = SimMemory::new(8);
        mem.ensure_slots(16);
        let mut out = StepOutcome::default();
        let mut ctx = TaskCtx::new(0, 1, &mem, &mut out);
        ctx.write_f64s(8, &[1.0, 2.0]);
        let _ = ctx.read_u64(9);
    }

    #[test]
    fn bulk_access_touches_each_page_once_and_charges_flops() {
        let mut mem = SimMemory::new(8);
        mem.ensure_slots(64);
        mem.store(21, 7);
        let mut registry = Registry::new();
        registry.publish("v", 16, 32, crate::ElemKind::U64);
        let mut out = StepOutcome::default();
        let mut ctx = TaskCtx::new(1, 2, &mem, &mut out).in_region(&registry, &[9]);
        assert_eq!(SharedMem::params(&ctx), &[9]);
        assert_eq!(ctx.handle("v").map(|e| e.addr), Some(16));
        assert!(ctx.handle("w").is_none());
        let mut words = [0u64; 12];
        ctx.read_words(14, &mut words); // pages 1, 2, 3
        assert_eq!(words[7], 7);
        ctx.write_f64s(40, &[0.5; 3]); // page 5
        ctx.write_words(63, &[]); // empty span: no page
        ctx.charge_flops(2.5);
        ctx.charge_flops(-1.0);
        assert_eq!(
            out.touched.iter().copied().collect::<Vec<_>>(),
            vec![1, 2, 3, 5]
        );
        assert_eq!(out.writes.len(), 3);
        assert_eq!(out.writes[2], (42, 0.5f64.to_bits()));
        assert_eq!(out.flops, 2.5);
    }

    #[test]
    fn task_resumes_across_barriers_as_data() {
        let mut mem = SimMemory::new(8);
        mem.ensure_slots(8);
        let mut state = HostState::Running(Box::new(Counter { base: 0, round: 0 }));
        let mut waves = 0;
        loop {
            let HostState::Running(mut task) = state else {
                break;
            };
            let mut out = StepOutcome::default();
            let step = task.step(&mut TaskCtx::new(0, 1, &mem, &mut out));
            mem.apply_writes(&out.writes);
            waves += 1;
            state = match step {
                Step::Barrier => {
                    // Single-rank team: the barrier releases instantly.
                    HostState::Running(task)
                }
                Step::Done => HostState::Done,
            };
        }
        assert!(state.is_parked());
        assert_eq!(waves, 3);
        assert_eq!(mem.load(0), 3, "one increment per wave, each visible");
    }

    #[test]
    fn sim_memory_page_geometry() {
        let mut mem = SimMemory::new(512);
        assert_eq!(mem.num_pages(), 0);
        mem.ensure_slots(513); // two pages
        assert_eq!(mem.num_pages(), 2);
        assert_eq!(mem.page_of(511), 0);
        assert_eq!(mem.page_of(512), 1);
        mem.store(512, 7);
        assert_eq!(mem.page_words(1)[0], 7);
        assert_eq!(mem.page_words(1).len(), 512);
        // Pages beyond the store read as zeros.
        assert_eq!(mem.page_words(9), vec![0u64; 512]);
        assert_eq!(mem.load(99_999), 0);
    }

    #[test]
    fn f64_reads_writes_roundtrip_bits() {
        let mut mem = SimMemory::new(8);
        mem.ensure_slots(8);
        let mut out = StepOutcome::default();
        let mut ctx = TaskCtx::new(2, 4, &mem, &mut out);
        assert_eq!(ctx.pid(), 2);
        assert_eq!(ctx.nprocs(), 4);
        ctx.write_f64(3, -0.25);
        mem.apply_writes(&out.writes);
        let mut out = StepOutcome::default();
        let mut ctx = TaskCtx::new(2, 4, &mem, &mut out);
        assert_eq!(ctx.read_f64(3), -0.25);
    }
}
