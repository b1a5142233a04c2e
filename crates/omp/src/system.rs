//! `OmpSystem` — the top-level handle an application drives.
//!
//! Owns the adaptive cluster and the compiled program; provides the
//! master's sequential phase, `parallel(...)` (one OpenMP parallel
//! construct = one fork/join = one adaptation opportunity), adaptivity
//! controls, checkpointing and recovery with fork replay.

use crate::ctx::OmpCtx;
use crate::jobs::JobSpec;
use crate::program::OmpProgram;
use nowmp_core::{
    AdaptError, AdaptHandle, Cluster, ClusterConfig, ClusterShared, EventLog, DYN_COUNTER,
    RED_ARRAY,
};
use nowmp_net::Gpid;
use nowmp_tmk::ElemKind;
use std::path::Path;
use std::sync::Arc;

/// The application-facing runtime.
pub struct OmpSystem {
    cluster: Cluster,
    program: Arc<OmpProgram>,
    /// Forks to skip after recovery (already completed before the
    /// checkpoint; the application replays its main loop and the
    /// runtime fast-forwards).
    skip_replays: u64,
}

impl OmpSystem {
    fn setup(mut cluster: Cluster, program: Arc<OmpProgram>, skip: u64) -> Self {
        // Runtime scratch: reduction slots and the dynamic-schedule
        // counter. Allocated before any user allocation so recovery
        // (which restores the registry wholesale) keeps them stable.
        if cluster.ctx().handle(RED_ARRAY).is_none() {
            cluster.alloc(RED_ARRAY, cluster.red_slots(), ElemKind::F64);
            cluster.alloc(DYN_COUNTER, 1, ElemKind::U64);
        }
        OmpSystem {
            cluster,
            program,
            skip_replays: skip,
        }
    }

    /// Bring up a system running `job` on a fresh cluster. Takes
    /// anything convertible to a [`JobSpec`] — a bare [`OmpProgram`]
    /// for the classic single-job entry point, or a full spec (whose
    /// step driver, if any, is for the [`crate::jobs::Scheduler`];
    /// direct construction runs the caller's own loop and ignores it).
    pub fn new(cfg: ClusterConfig, job: impl Into<JobSpec>) -> Self {
        let spec = job.into();
        let program = Arc::new(spec.program);
        let cluster = Cluster::new(cfg, Arc::clone(&program) as _);
        Self::setup(cluster, program, 0)
    }

    /// Recover from a checkpoint file. Returns the system (with fork
    /// replay armed) and the master's private blob. Takes the same
    /// job description [`OmpSystem::new`] does.
    pub fn recover(
        cfg: ClusterConfig,
        job: impl Into<JobSpec>,
        path: &Path,
    ) -> Result<(Self, Vec<u8>), nowmp_ckpt::CkptError> {
        let spec = job.into();
        let program = Arc::new(spec.program);
        let (cluster, blob) = Cluster::recover(cfg, Arc::clone(&program) as _, path)?;
        let done = cluster.fork_no();
        Ok((Self::setup(cluster, program, done), blob))
    }

    fn alloc(&mut self, name: &str, len: u64, kind: ElemKind) {
        // Recovery replay: the registry was restored wholesale from the
        // checkpoint, so a re-executed allocation of the same name and
        // length is a no-op (the application replays its setup code).
        if let Some(e) = self.cluster.ctx().handle(name) {
            assert_eq!(
                e.len, len,
                "allocation {name:?} replayed with different length"
            );
            assert_eq!(
                e.kind, kind,
                "allocation {name:?} replayed with different kind"
            );
            return;
        }
        self.cluster.alloc(name, len, kind);
    }

    /// Allocate and publish a shared `f64` array (idempotent under
    /// recovery replay).
    pub fn alloc_f64(&mut self, name: &str, len: u64) {
        self.alloc(name, len, ElemKind::F64);
    }

    /// Allocate and publish a shared `u64` array (idempotent under
    /// recovery replay).
    pub fn alloc_u64(&mut self, name: &str, len: u64) {
        self.alloc(name, len, ElemKind::U64);
    }

    /// Run sequential master code with DSM access (the code between
    /// parallel constructs in an OpenMP program).
    ///
    /// On recovery this re-executes; sequential code must be
    /// replay-safe (deterministic, not self-mutating through shared
    /// state) or the application should use the master-state blob.
    pub fn seq<R>(&mut self, f: impl FnOnce(&mut OmpCtx<'_>) -> R) -> R {
        // Sequential code is not a profiled region: clear the
        // per-iteration cost left behind by the last parallel region so
        // a worksharing call inside `f` cannot charge that region's
        // compute to the clock.
        self.cluster.ctx().set_iter_cost(std::time::Duration::ZERO);
        let mut ctx = OmpCtx::new(self.cluster.ctx());
        f(&mut ctx)
    }

    /// Execute one OpenMP parallel construct (fork + join), processing
    /// pending adapt events at the adaptation point first, and running
    /// the epilogue of a `reduction` that rode the join right after it.
    /// During recovery replay, already-completed forks are skipped.
    pub fn parallel(&mut self, region: &str, params: &[u8]) {
        if self.skip_replays > 0 {
            self.skip_replays -= 1;
            return;
        }
        let id = self
            .program
            .id_of(region)
            .unwrap_or_else(|| panic!("region {region:?} not registered"));
        self.cluster.parallel(id, params);
        self.program.join_epilogue(id, self.cluster.ctx());
    }

    /// Forks still to be skipped during recovery replay.
    pub fn replaying(&self) -> u64 {
        self.skip_replays
    }

    /// The paper's §7 adaptation-point-frequency transformation: run
    /// one logical parallel loop over `range` as `strips` consecutive
    /// forks, each covering a contiguous sub-range. More strips = more
    /// adaptation points per logical iteration, at the cost of more
    /// fork/join rounds. The region must read its sub-range with
    /// [`OmpCtx::strip_bounds`] or iterate with
    /// [`OmpCtx::for_static_stripped`]; `params` are passed through
    /// unchanged (the strip bounds ride at the end of the blob).
    pub fn parallel_strips(
        &mut self,
        region: &str,
        range: std::ops::Range<u64>,
        strips: usize,
        params: &[u8],
    ) {
        assert!(strips > 0, "need at least one strip");
        let n = range.end.saturating_sub(range.start);
        let per = n.div_ceil(strips as u64).max(1);
        let mut lo = range.start;
        while lo < range.end {
            let hi = (lo + per).min(range.end);
            let mut blob = params.to_vec();
            blob.extend_from_slice(&lo.to_le_bytes());
            blob.extend_from_slice(&hi.to_le_bytes());
            self.parallel(region, &blob);
            lo = hi;
        }
    }

    // ------------------------------------------------------------------
    // Adaptivity controls (event sources use these; the computation
    // itself never does)
    // ------------------------------------------------------------------

    /// The typed adaptation handle — the one surface for join / leave /
    /// checkpoint requests (see [`AdaptHandle`]).
    pub fn adapt(&self) -> AdaptHandle {
        self.cluster.adapt()
    }

    /// Request a join and wait until the process is connected, so the
    /// very next adaptation point commits it (deterministic variant;
    /// needs the master, hence `&mut`). Returns the new process and
    /// the workstation it was placed on.
    pub fn join_ready(&mut self) -> Result<(Gpid, nowmp_net::HostId), AdaptError> {
        self.cluster.join_ready()
    }

    /// Write a checkpoint right now (between parallel constructs).
    pub fn checkpoint_now(&mut self) {
        self.cluster.checkpoint_now();
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// DSM page size in 8-byte slots (layout decisions, e.g. padding
    /// matrix rows to page boundaries).
    pub fn page_slots(&self) -> usize {
        self.cluster.page_size() / 8
    }

    /// Current team size (`omp_get_num_procs` over the NOW).
    pub fn nprocs(&self) -> usize {
        self.cluster.nprocs()
    }

    /// Completed forks.
    pub fn fork_no(&self) -> u64 {
        self.cluster.fork_no()
    }

    /// Shared handle for external event sources (timers, sensors).
    pub fn shared(&self) -> Arc<ClusterShared> {
        self.cluster.shared()
    }

    /// The event log (timelines, adaptation records).
    pub fn log(&self) -> &EventLog {
        self.cluster.log()
    }

    /// The simulation's time source (real or virtual; see
    /// [`nowmp_util::Clock`]).
    pub fn clock(&self) -> &nowmp_util::Clock {
        self.cluster.clock()
    }

    /// DSM protocol counters.
    pub fn dsm_stats(&self) -> nowmp_tmk::DsmSnapshot {
        self.cluster.dsm_stats()
    }

    /// Every process's share of the clock's ledger, in gpid order.
    pub fn ledger(&self) -> Vec<nowmp_tmk::ProcLedger> {
        self.cluster.ledger()
    }

    /// Network counters.
    pub fn net_stats(&self) -> nowmp_net::StatsSnapshot {
        self.cluster.net_stats()
    }

    /// Direct cluster access (benches and tests).
    pub fn cluster(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// Tear everything down.
    pub fn shutdown(self) {
        self.cluster.shutdown();
    }
}
