//! # nowmp-omp — the OpenMP-style programming layer
//!
//! The paper compiles OpenMP C with a SUIF pass that (1) outlines every
//! parallel construct into a procedure, (2) replaces the construct with
//! `Tmk_fork`/`Tmk_join`, and (3) emits iteration-partitioning code
//! driven by `(pid, nprocs)` (§2). Rust has no OpenMP frontend, so this
//! crate is that pass's output shape as a library API:
//!
//! * [`OmpProgram`] — register outlined regions by name (what the
//!   compiler would generate), either as closures for the thread
//!   engine or as [`portable!`] bodies, written once against
//!   [`SharedMem`], that both engines run;
//! * [`OmpSystem`] — the runtime: sequential master phases
//!   ([`OmpSystem::seq`]) and parallel constructs
//!   ([`OmpSystem::parallel`]), each of which is an adaptation point;
//! * [`OmpCtx`] — inside a region: worksharing loops (`static`,
//!   `static,chunk`, `dynamic`, `guided`), `barrier`, `critical`,
//!   `master`/`single`/`sections`, and reductions;
//! * [`Host`] / [`ReadBack`] — what a kernel's sequential driver asks
//!   of the system under it, so one driver runs on [`OmpSystem`] and
//!   on the task engine ([`TaskHost`]);
//! * [`Params`]/[`ParamsReader`] — firstprivate scalars;
//! * [`mod@jobs`] — the NOW as a service: submit many programs as
//!   [`JobSpec`]s to a cluster-level [`jobs::Scheduler`] that runs them
//!   as isolated, preemptible tenants on the shared pool.
//!
//! Adaptivity stays transparent: none of the application-visible API
//! mentions joins or leaves; the iteration mapping is re-derived from
//! the team at every fork, so the same program runs on 1 process or 8,
//! shrinking and growing mid-run.
//!
//! ```no_run
//! use nowmp_core::ClusterConfig;
//! use nowmp_omp::{OmpProgram, OmpSystem, Params};
//!
//! let program = OmpProgram::new().region("axpy", |ctx| {
//!     let mut p = ctx.params();
//!     let n = p.u64();
//!     let a = p.f64();
//!     let x = ctx.f64vec("x");
//!     let y = ctx.f64vec("y");
//!     ctx.for_static(0..n, |c, i| {
//!         let v = a * x.get(c.dsm(), i as usize) + y.get(c.dsm(), i as usize);
//!         y.set(c.dsm(), i as usize, v);
//!     });
//! });
//! let mut sys = OmpSystem::new(ClusterConfig::test(4, 4), program);
//! sys.alloc_f64("x", 1000);
//! sys.alloc_f64("y", 1000);
//! sys.parallel("axpy", &Params::new().u64(1000).f64(2.0).build());
//! sys.shutdown();
//! ```

#![warn(missing_docs)]

pub mod ctx;
pub mod host;
pub mod jobs;
pub mod params;
pub mod program;
pub mod sched;
pub mod system;

pub use ctx::OmpCtx;
pub use host::{Host, ReadBack, TaskHost};
pub use jobs::{JobHandle, JobSpec, JobStats, TenancyReport};
pub use nowmp_tmk::SharedMem;
pub use params::{Params, ParamsReader};
pub use program::{OmpProgram, Portable};
pub use system::OmpSystem;
