//! What a kernel's driver — the sequential code around its parallel
//! constructs — asks of the system it runs on, stated once for both
//! engines.
//!
//! `setup` and `step` allocate shared arrays and fork regions
//! ([`Host`]); `verify` only reads results back ([`ReadBack`]), so it
//! can run against a system it cannot change. [`OmpSystem`] is a host
//! as it stands; the task engine's `TaskSystem::parallel` wants to be
//! told whose regions to run, so its host is the pair [`TaskHost`].

use crate::system::OmpSystem;
use nowmp_core::{TaskApp, TaskSystem};
use nowmp_tmk::ElemKind;
use std::ops::{Deref, DerefMut};

/// Read access to the shared arrays from sequential code.
pub trait ReadBack {
    /// DSM page size in 8-byte slots (layout decisions, e.g. padding
    /// matrix rows to page boundaries).
    fn page_slots(&self) -> usize;

    /// Read `dst.len()` elements of the `f64` array `name` from `start`.
    fn read_f64s(&mut self, name: &str, start: usize, dst: &mut [f64]);
}

/// A system a kernel can be set up and stepped on.
pub trait Host: ReadBack {
    /// Allocate and publish a shared `f64` array.
    fn alloc_f64(&mut self, name: &str, len: u64);

    /// Allocate and publish a shared `u64` array.
    fn alloc_u64(&mut self, name: &str, len: u64);

    /// Execute one parallel construct: fork `region` over the current
    /// team with firstprivate `params`, join.
    fn parallel(&mut self, region: &str, params: &[u8]);
}

impl ReadBack for OmpSystem {
    fn page_slots(&self) -> usize {
        OmpSystem::page_slots(self)
    }
    fn read_f64s(&mut self, name: &str, start: usize, dst: &mut [f64]) {
        self.seq(|ctx| ctx.f64vec(name).read_into(ctx.dsm(), start, dst));
    }
}

impl Host for OmpSystem {
    fn alloc_f64(&mut self, name: &str, len: u64) {
        OmpSystem::alloc_f64(self, name, len);
    }
    fn alloc_u64(&mut self, name: &str, len: u64) {
        OmpSystem::alloc_u64(self, name, len);
    }
    fn parallel(&mut self, region: &str, params: &[u8]) {
        OmpSystem::parallel(self, region, params);
    }
}

/// The task engine with the application whose regions it forks
/// (`TaskApp::kernel` resolves the names). `S` is `&mut TaskSystem` to
/// be a [`Host`]; the `&TaskSystem` that `TaskApp::verify` receives is
/// enough to [`ReadBack`].
pub struct TaskHost<'a, S> {
    /// The engine.
    pub sys: S,
    /// The application being run on it.
    pub app: &'a dyn TaskApp,
}

impl<S: Deref<Target = TaskSystem>> ReadBack for TaskHost<'_, S> {
    fn page_slots(&self) -> usize {
        self.sys.page_slots()
    }
    fn read_f64s(&mut self, name: &str, start: usize, dst: &mut [f64]) {
        self.sys.read_f64s(name, start, dst);
    }
}

impl<S: DerefMut<Target = TaskSystem>> Host for TaskHost<'_, S> {
    fn alloc_f64(&mut self, name: &str, len: u64) {
        self.sys.alloc(name, len, ElemKind::F64);
    }
    fn alloc_u64(&mut self, name: &str, len: u64) {
        self.sys.alloc(name, len, ElemKind::U64);
    }
    fn parallel(&mut self, region: &str, params: &[u8]) {
        self.sys.parallel(self.app, region, params);
    }
}
