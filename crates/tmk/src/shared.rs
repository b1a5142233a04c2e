//! Typed views over shared memory: vectors and matrices of `f64`/`u64`.
//!
//! Handles are plain `(addr, shape)` descriptors — cheap to copy, safe
//! to embed in region parameters, resolvable by name from the registry
//! on any process (including late joiners). All access goes through a
//! [`SharedMem`]: the thread engine's `TmkCtx`, which enforces the DSM
//! protocol, or the task engine's `TaskCtx`.

use crate::mem::SharedMem;
use crate::msg::{ElemKind, RegEntry};
use crate::types::Addr;
use nowmp_util::wire::{Dec, Enc, Wire, WireError};

/// A shared vector of `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedF64Vec {
    /// Base slot address.
    pub addr: Addr,
    /// Element count.
    pub len: u64,
}

impl SharedF64Vec {
    /// View a registry entry as an `f64` vector.
    pub fn from_entry(e: &RegEntry) -> Self {
        debug_assert_eq!(e.kind, ElemKind::F64);
        SharedF64Vec {
            addr: e.addr,
            len: e.len,
        }
    }

    /// Resolve by name through the context's registry.
    pub fn lookup<M: SharedMem>(ctx: &M, name: &str) -> Self {
        let e = ctx
            .handle(name)
            .unwrap_or_else(|| panic!("no shared allocation {name:?}"));
        Self::from_entry(&e)
    }

    /// Element count as `usize`.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read element `i`.
    #[inline]
    pub fn get<M: SharedMem>(&self, ctx: &mut M, i: usize) -> f64 {
        debug_assert!(
            (i as u64) < self.len,
            "index {i} out of bounds {}",
            self.len
        );
        ctx.read_f64(self.addr + i as u64)
    }

    /// Write element `i`.
    #[inline]
    pub fn set<M: SharedMem>(&self, ctx: &mut M, i: usize, v: f64) {
        debug_assert!(
            (i as u64) < self.len,
            "index {i} out of bounds {}",
            self.len
        );
        ctx.write_f64(self.addr + i as u64, v);
    }

    /// Add `v` to element `i` (single-writer accumulation; wrap in a
    /// critical section when multiple processes target the same slot).
    #[inline]
    pub fn add<M: SharedMem>(&self, ctx: &mut M, i: usize, v: f64) {
        let cur = self.get(ctx, i);
        self.set(ctx, i, cur + v);
    }

    /// Bulk read `[start, start+dst.len())`.
    pub fn read_into<M: SharedMem>(&self, ctx: &mut M, start: usize, dst: &mut [f64]) {
        debug_assert!(start as u64 + dst.len() as u64 <= self.len);
        ctx.read_f64s(self.addr + start as u64, dst);
    }

    /// Bulk write `[start, start+src.len())`.
    pub fn write_from<M: SharedMem>(&self, ctx: &mut M, start: usize, src: &[f64]) {
        debug_assert!(start as u64 + src.len() as u64 <= self.len);
        ctx.write_f64s(self.addr + start as u64, src);
    }
}

impl Wire for SharedF64Vec {
    fn enc(&self, e: &mut Enc) {
        e.put_u64(self.addr);
        e.put_u64(self.len);
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        Ok(SharedF64Vec {
            addr: d.get_u64()?,
            len: d.get_u64()?,
        })
    }
}

/// A shared row-major matrix of `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedF64Mat {
    /// Base slot address.
    pub addr: Addr,
    /// Rows.
    pub rows: u64,
    /// Columns.
    pub cols: u64,
}

impl SharedF64Mat {
    /// View a registry entry as a matrix of the given shape.
    pub fn from_entry(e: &RegEntry, rows: u64, cols: u64) -> Self {
        debug_assert_eq!(e.kind, ElemKind::F64);
        debug_assert!(rows * cols <= e.len, "shape exceeds allocation");
        SharedF64Mat {
            addr: e.addr,
            rows,
            cols,
        }
    }

    /// Resolve by name; the allocation length must equal `rows * cols`.
    pub fn lookup<M: SharedMem>(ctx: &M, name: &str, rows: u64, cols: u64) -> Self {
        let e = ctx
            .handle(name)
            .unwrap_or_else(|| panic!("no shared allocation {name:?}"));
        Self::from_entry(&e, rows, cols)
    }

    /// Slot address of `(r, c)`.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> Addr {
        debug_assert!((r as u64) < self.rows && (c as u64) < self.cols);
        self.addr + r as u64 * self.cols + c as u64
    }

    /// Read `(r, c)`.
    #[inline]
    pub fn get<M: SharedMem>(&self, ctx: &mut M, r: usize, c: usize) -> f64 {
        ctx.read_f64(self.at(r, c))
    }

    /// Write `(r, c)`.
    #[inline]
    pub fn set<M: SharedMem>(&self, ctx: &mut M, r: usize, c: usize, v: f64) {
        ctx.write_f64(self.at(r, c), v);
    }

    /// Bulk-read row `r` into `dst` (one fault check per page).
    pub fn read_row<M: SharedMem>(&self, ctx: &mut M, r: usize, dst: &mut [f64]) {
        debug_assert!(dst.len() as u64 <= self.cols);
        ctx.read_f64s(self.at(r, 0), dst);
    }

    /// Bulk-write row `r` from `src`.
    pub fn write_row<M: SharedMem>(&self, ctx: &mut M, r: usize, src: &[f64]) {
        debug_assert!(src.len() as u64 <= self.cols);
        ctx.write_f64s(self.at(r, 0), src);
    }
}

impl Wire for SharedF64Mat {
    fn enc(&self, e: &mut Enc) {
        e.put_u64(self.addr);
        e.put_u64(self.rows);
        e.put_u64(self.cols);
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        Ok(SharedF64Mat {
            addr: d.get_u64()?,
            rows: d.get_u64()?,
            cols: d.get_u64()?,
        })
    }
}

/// A shared vector of `u64` (indices, counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedU64Vec {
    /// Base slot address.
    pub addr: Addr,
    /// Element count.
    pub len: u64,
}

impl SharedU64Vec {
    /// View a registry entry as a `u64` vector.
    pub fn from_entry(e: &RegEntry) -> Self {
        debug_assert_eq!(e.kind, ElemKind::U64);
        SharedU64Vec {
            addr: e.addr,
            len: e.len,
        }
    }

    /// Resolve by name through the context's registry.
    pub fn lookup<M: SharedMem>(ctx: &M, name: &str) -> Self {
        let e = ctx
            .handle(name)
            .unwrap_or_else(|| panic!("no shared allocation {name:?}"));
        Self::from_entry(&e)
    }

    /// Element count as `usize`.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read element `i`.
    #[inline]
    pub fn get<M: SharedMem>(&self, ctx: &mut M, i: usize) -> u64 {
        debug_assert!((i as u64) < self.len);
        ctx.read_u64(self.addr + i as u64)
    }

    /// Write element `i`.
    #[inline]
    pub fn set<M: SharedMem>(&self, ctx: &mut M, i: usize, v: u64) {
        debug_assert!((i as u64) < self.len);
        ctx.write_u64(self.addr + i as u64, v);
    }

    /// Bulk read.
    pub fn read_into<M: SharedMem>(&self, ctx: &mut M, start: usize, dst: &mut [u64]) {
        debug_assert!(start as u64 + dst.len() as u64 <= self.len);
        ctx.read_words(self.addr + start as u64, dst);
    }

    /// Bulk write.
    pub fn write_from<M: SharedMem>(&self, ctx: &mut M, start: usize, src: &[u64]) {
        debug_assert!(start as u64 + src.len() as u64 <= self.len);
        ctx.write_words(self.addr + start as u64, src);
    }
}

impl Wire for SharedU64Vec {
    fn enc(&self, e: &mut Enc) {
        e.put_u64(self.addr);
        e.put_u64(self.len);
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        Ok(SharedU64Vec {
            addr: d.get_u64()?,
            len: d.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DsmConfig;
    use crate::core::ProcCore;
    use crate::ctx::TmkCtx;
    use crate::stats::DsmStats;
    use nowmp_net::{HostId, NetModel, Network};
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn ctx() -> TmkCtx {
        let net = Network::new(1, NetModel::disabled());
        let ep = Arc::new(net.register(HostId(0)));
        let gpid = ep.gpid();
        let core = Arc::new(Mutex::new(ProcCore::new(
            DsmConfig {
                page_size: 64,
                ..DsmConfig::test_small()
            },
            gpid,
            DsmStats::new_shared(),
            gpid,
        )));
        TmkCtx::new(core, ep, None)
    }

    #[test]
    fn vec_elementwise() {
        let mut c = ctx();
        let v = SharedF64Vec { addr: 0, len: 20 };
        for i in 0..20 {
            v.set(&mut c, i, i as f64 * 1.5);
        }
        for i in 0..20 {
            assert_eq!(v.get(&mut c, i), i as f64 * 1.5);
        }
        v.add(&mut c, 3, 0.5);
        assert_eq!(v.get(&mut c, 3), 5.0);
    }

    #[test]
    fn vec_bulk_roundtrip() {
        let mut c = ctx();
        let v = SharedF64Vec { addr: 8, len: 40 };
        let src: Vec<f64> = (0..40).map(|i| (i * i) as f64).collect();
        v.write_from(&mut c, 0, &src);
        let mut dst = vec![0.0; 40];
        v.read_into(&mut c, 0, &mut dst);
        assert_eq!(dst, src);
    }

    #[test]
    fn mat_rows_and_cells() {
        let mut c = ctx();
        let m = SharedF64Mat {
            addr: 0,
            rows: 5,
            cols: 7,
        };
        for r in 0..5 {
            for col in 0..7 {
                m.set(&mut c, r, col, (r * 10 + col) as f64);
            }
        }
        assert_eq!(m.get(&mut c, 3, 4), 34.0);
        let mut row = vec![0.0; 7];
        m.read_row(&mut c, 2, &mut row);
        assert_eq!(row, vec![20., 21., 22., 23., 24., 25., 26.]);
        m.write_row(&mut c, 4, &[9.0; 7]);
        assert_eq!(m.get(&mut c, 4, 6), 9.0);
    }

    #[test]
    fn u64_vec_roundtrip() {
        let mut c = ctx();
        let v = SharedU64Vec { addr: 0, len: 10 };
        v.set(&mut c, 0, u64::MAX);
        v.write_from(&mut c, 1, &[1, 2, 3]);
        assert_eq!(v.get(&mut c, 0), u64::MAX);
        let mut dst = [0u64; 3];
        v.read_into(&mut c, 1, &mut dst);
        assert_eq!(dst, [1, 2, 3]);
    }

    #[test]
    fn wire_roundtrips() {
        let v = SharedF64Vec { addr: 5, len: 10 };
        assert_eq!(SharedF64Vec::from_wire(&v.to_wire()).unwrap(), v);
        let m = SharedF64Mat {
            addr: 1,
            rows: 2,
            cols: 3,
        };
        assert_eq!(SharedF64Mat::from_wire(&m.to_wire()).unwrap(), m);
        let u = SharedU64Vec { addr: 0, len: 4 };
        assert_eq!(SharedU64Vec::from_wire(&u.to_wire()).unwrap(), u);
    }
}
