//! # nowmp-core — transparent adaptive parallelism (the PPoPP'99 contribution)
//!
//! This crate layers *transparent adaptation* over the TreadMarks-like
//! DSM in `nowmp-tmk`:
//!
//! * [`adapt`] — the adaptation books: the one state machine for
//!   joins, the grace-period race between a normal and an urgent leave
//!   (Figure 2), migration targets, pid reassignment and checkpoint
//!   policy, driven by both engines;
//! * [`cluster::Cluster`] — the thread-per-host engine: spawn and
//!   handshake, GC and team commit, freeze and image transfer for
//!   migration with **multiplexing**, checkpointing and recovery;
//! * [`engine::TaskSystem`] — the task-per-host engine for 1024-host
//!   sweeps, on the same books;
//! * [`mod@reassign`] — pid reassignment policies and the Figure 3
//!   block-partition overlap analytics;
//! * [`freeze`] — the stop-the-world gate used during migration;
//! * [`hostpool`] — workstation occupancy;
//! * [`log`] — the event timeline (Figure 2) and per-adaptation cost
//!   records (Table 2);
//! * [`sched`] — the cluster-level job scheduler: a stream of
//!   prioritized jobs admitted onto the shared [`hostpool::HostPool`],
//!   with preemption driven through the same adaptation machinery.
//!
//! No application code changes to obtain adaptivity: applications
//! allocate shared arrays and call [`cluster::Cluster::parallel`]; the
//! runtime re-partitions iterations by re-deriving each process's share
//! from `(pid, nprocs)` at every fork, and the DSM re-distributes data
//! lazily through ordinary page faults.

#![warn(missing_docs)]

pub mod adapt;
pub mod cluster;
pub mod driver;
pub mod engine;
pub mod freeze;
pub mod hostpool;
pub mod log;
pub mod reassign;
pub mod sched;

pub use adapt::{AdaptError, LeaveSel};
pub use cluster::{AdaptHandle, Cluster, ClusterConfig, ClusterShared, DYN_COUNTER, RED_ARRAY};
pub use driver::{Driver, DriverEvent, Schedule};
pub use engine::{run_task_app, TaskAdapt, TaskApp, TaskSystem};
pub use freeze::Freeze;
pub use hostpool::HostPool;
pub use log::{EventKind, EventLog, LogEntry};
pub use reassign::{moved_fraction, moved_fraction_on_leave, reassign, ReassignPolicy};
pub use sched::{Directive, JobId, JobParams, JobPhase, JobRecord, Scheduler};
