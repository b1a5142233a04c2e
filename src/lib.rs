//! # nowmp — Transparent Adaptive Parallelism on NOWs using OpenMP
//!
//! A from-scratch Rust reproduction of Scherer, Lu, Gross & Zwaenepoel,
//! *"Transparent Adaptive Parallelism on NOWs using OpenMP"* (PPoPP
//! 1999): an OpenMP-style fork-join runtime over a TreadMarks-like
//! software distributed shared memory, extended so that processes can
//! **join and leave a running computation transparently** — with grace
//! periods, urgent migration, and checkpoint-based fault tolerance.
//!
//! This facade crate re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`util`] | `nowmp-util` | wire codec, CRC-32, zero-run encoding, timing |
//! | [`net`] | `nowmp-net` | the simulated switched-Ethernet NOW |
//! | [`tmk`] | `nowmp-tmk` | the TreadMarks-like DSM (LRC, twins/diffs, GC, fork-join) |
//! | [`ckpt`] | `nowmp-ckpt` | the libckpt-substitute checkpoint format |
//! | [`core`] | `nowmp-core` | the adaptive cluster runtime (the paper's contribution) |
//! | [`omp`] | `nowmp-omp` | the OpenMP-style programming layer |
//! | [`apps`] | `nowmp-apps` | Jacobi, Gauss, 3D-FFT, NBF |
//!
//! Start with `examples/quickstart.rs`, then `examples/adaptive_jacobi.rs`.

#![forbid(unsafe_code)]

pub use nowmp_apps as apps;
pub use nowmp_ckpt as ckpt;
pub use nowmp_core as core;
pub use nowmp_net as net;
pub use nowmp_omp as omp;
pub use nowmp_tmk as tmk;
pub use nowmp_util as util;

/// Convenience prelude for applications.
pub mod prelude {
    pub use nowmp_core::{AdaptHandle, Cluster, ClusterConfig, LeaveSel, ReassignPolicy};
    pub use nowmp_net::{CostModel, Gpid, HostId, NetModel};
    pub use nowmp_omp::{JobSpec, OmpCtx, OmpProgram, OmpSystem, Params};
    pub use nowmp_tmk::{DsmConfig, ElemKind};
    pub use nowmp_util::{Clock, Tick};
}
