//! [`SharedMem`] — the memory surface a parallel-region body programs
//! against, stated once for both engines.
//!
//! A region body that asks for nothing beyond this trait — typed reads
//! and writes, the allocation registry, its rank, its firstprivate
//! parameters, compute charges — runs unchanged on the thread engine's
//! [`crate::TmkCtx`] (faults drive the LRC protocol) and on the task engine's
//! [`crate::engine::TaskCtx`] (reads hit the pre-phase snapshot, writes
//! buffer until the next synchronization). What the trait leaves out is
//! the point: nothing here can block, so a body generic over
//! `SharedMem` is a single step of a resumable task by construction.
//! Locks and barriers stay inherent to `TmkCtx`.

use crate::msg::RegEntry;
use crate::types::{Addr, Pid};

/// Non-blocking shared-memory access for one rank of one region
/// execution.
pub trait SharedMem {
    /// This rank in the current team.
    fn pid(&self) -> Pid;

    /// Team size at this fork.
    fn nprocs(&self) -> usize;

    /// Opaque firstprivate parameters of the region being executed.
    fn params(&self) -> &[u8];

    /// Look up a published allocation by name.
    fn handle(&self, name: &str) -> Option<RegEntry>;

    /// Read the 8-byte slot at `addr`.
    fn read_u64(&mut self, addr: Addr) -> u64;

    /// Write the 8-byte slot at `addr`.
    fn write_u64(&mut self, addr: Addr, v: u64);

    /// Read the slot at `addr` as `f64` (bit-stored).
    #[inline]
    fn read_f64(&mut self, addr: Addr) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Write the slot at `addr` as `f64` (bit-stored).
    #[inline]
    fn write_f64(&mut self, addr: Addr, v: f64) {
        self.write_u64(addr, v.to_bits());
    }

    /// Bulk-read `dst.len()` slots starting at `addr`.
    fn read_words(&mut self, addr: Addr, dst: &mut [u64]);

    /// Bulk-write `src` starting at `addr`.
    fn write_words(&mut self, addr: Addr, src: &[u64]);

    /// Bulk-read as `f64`.
    fn read_f64s(&mut self, addr: Addr, dst: &mut [f64]);

    /// Bulk-write `f64`s.
    fn write_f64s(&mut self, addr: Addr, src: &[f64]);

    /// Charge `iters` iterations of the current region's modeled
    /// per-iteration compute cost.
    fn charge_compute(&mut self, iters: u64);

    /// Charge an explicit FLOP count (regions whose per-iteration work
    /// varies).
    fn charge_flops(&mut self, flops: f64);
}
