//! # nowmp-tmk — a TreadMarks-like software distributed shared memory
//!
//! Reimplementation (in shape, from scratch) of the DSM substrate the
//! PPoPP'99 paper builds on: **lazy release consistency** with a
//! **multiple-writer protocol** — twins, word-granularity diffs, write
//! notices, vector timestamps, intervals — plus distributed locks,
//! barriers, the fork-join primitives (`Tmk_wait`/`Tmk_fork`/
//! `Tmk_join`) and the **garbage collection** of consistency metadata
//! that the adaptive system leans on.
//!
//! ## Architecture
//!
//! ```text
//!   application thread                service thread (SIGIO analog)
//!   ──────────────────                ─────────────────────────────
//!   TmkCtx: typed access,   ┌──────┐  serves PageReq / DiffReq /
//!   fault driver, locks,  ⇄ │ Proc │⇄ RecordsReq / LockReq at any
//!   barriers, intervals     │ Core │  time; forwards control msgs
//!                           └──────┘
//!            │                            │
//!            └────── nowmp-net simulated switched Ethernet ─────┘
//! ```
//!
//! `ProcCore` owns every DSM-state transition and does no I/O: it
//! builds the requests (`plan_access`, `plan_pages`, `plan_acquire`),
//! lands the replies (`fold`), answers peers (`serve`) and installs
//! knowledge and teams (`learn`, `join_team`, `gc_commit`). `TmkCtx`,
//! the service thread and `system` sequence the steps and move bytes.
//!
//! Per-word atomic page storage substitutes for mmap/SIGSEGV access
//! detection: the fast path is a software page-table
//! check; the slow path is the LRC protocol.
//!
//! ## Entry points
//!
//! * [`system::DsmSystem`] — bring up processes over a network;
//! * [`system::MasterCtl`] — master handle: `alloc`, `parallel`
//!   (fork-join), and the adaptation SPI (`run_gc`, `commit_team`,
//!   checkpoint images);
//! * [`ctx::TmkCtx`] — what application region code programs against,
//!   through [`mem::SharedMem`] where the body must also run on the
//!   task engine ([`engine::TaskCtx`]);
//! * [`shared`] — typed shared arrays.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod core;
pub mod ctx;
pub mod diff;
pub mod engine;
pub mod gc;
pub mod mem;
pub mod msg;
pub mod page;
pub mod push;
pub mod records;
pub mod service;
pub mod shared;
pub mod shm;
pub mod stats;
pub mod system;
pub mod table;
pub mod tree;
pub mod types;

pub use config::{Broadcast, CollectiveConfig, DataPlaneConfig, DsmConfig};
pub use ctx::TmkCtx;
pub use engine::{HostState, RegionTask, SimMemory, Step, StepOutcome, TaskCtx};
pub use mem::SharedMem;
pub use msg::ElemKind;
pub use shared::{SharedF64Mat, SharedF64Vec, SharedU64Vec};
pub use stats::{DsmSnapshot, DsmStats, ProcLedger};
pub use system::{DsmSystem, GcOutcome, MasterCtl, MemoryImage, RegionRunner};
pub use table::PageTable;
pub use types::{Addr, Epoch, PageId, Pid, Seq, Team, Vc};
