//! # Task-backed adaptive engine: 1024 hosts on a worker pool
//!
//! The thread-backed engine ([`crate::Cluster`] over
//! [`nowmp_tmk::DsmSystem`]) spends two OS threads per simulated host
//! (worker + service loop), which caps `paper scale` sweeps at ~32
//! hosts. This module is the event-driven alternative: every simulated
//! host is a **resumable task** ([`nowmp_tmk::RegionTask`]) whose
//! protocol position between communication points is explicit data,
//! not a parked stack. A [`nowmp_util::TaskScheduler`] (run queue
//! beside the deadline set) decides what runs next; a small worker
//! pool of `NOWMP_POOL` scoped threads steps whole waves of runnable
//! tasks in parallel. OS thread count is O(pool), not O(hosts).
//!
//! ## What is simulated, and how faithfully
//!
//! * **Shared memory** is a flat [`SimMemory`] word store with
//!   phase-snapshot semantics: reads see pre-phase memory, writes are
//!   buffered in each task's [`StepOutcome`] and applied in pid order
//!   at the next synchronization point. That is observationally
//!   equivalent to the DSM's lazy-release-consistency guarantee for
//!   race-free programs — which OpenMP regions are by contract.
//! * **Virtual time** is charged per host from the same
//!   [`CostModel`]/[`NetModel`] the thread engine uses: compute via
//!   `compute_time(region_cost, iters, host)` and, for the FLOPs a
//!   body charges in-region, `flops_charge`; remote page faults via
//!   [`NetModel::fetch_rtt`] against a per-host valid-page set that
//!   synchronization invalidates, barriers via
//!   [`NetModel::barrier_time`]. Grace alarms and spawn completions
//!   live in the scheduler's deadline set and fire when the engine's
//!   virtual now crosses them.
//! * **Adaptation** drives the same books as [`crate::Cluster`]
//!   ([`crate::adapt`]): placement, rank reassignment, the
//!   grace/urgent race, checkpoint policy and the event order are
//!   decided there, once. This engine supplies the mechanism — spawn
//!   and grace deadlines parked in the scheduler's deadline set, the
//!   migration charge, the [`SimMemory`] image export. The parity test
//!   in `crates/bench` holds the two engines to identical event shapes
//!   and identical checkpoint files.
//!
//! What is *not* simulated: per-message protocol traffic (diffs,
//! write notices, GC). GC never changes page contents, so checkpoint
//! images are unaffected; the cost of consistency traffic is folded
//! into the per-fault RTT charge.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use nowmp_ckpt::migration_image_bytes;
use nowmp_net::{CostModel, Gpid, HostId, NetModel};
use nowmp_tmk::engine::{HostState, RegionTask, SimMemory, Step, StepOutcome, TaskCtx};
use nowmp_tmk::shm::{Allocator, Registry};
use nowmp_tmk::types::{Addr, PageId, Pid};
use nowmp_tmk::{ElemKind, MemoryImage};
use nowmp_util::{TaskScheduler, Tick};

use crate::adapt::{AdaptError, ControlPlane, Cost, LeaveSel};
use crate::cluster::{ClusterConfig, DYN_COUNTER, RED_ARRAY};
use crate::log::{EventKind, EventLog};

/// Scheduler task-id namespaces. Host tasks use their pid directly;
/// the pseudo-tasks for deadline-set timers are keyed by the gpid they
/// concern, far above any team size.
const JOIN_BASE: usize = 1 << 32;
const GRACE_BASE: usize = 1 << 33;

/// An application the task engine can run: a driver (`setup` / `step`
/// / `verify`) plus `kernel`, the outlined-region factory that turns a
/// region name into the [`RegionTask`] one rank steps.
///
/// Kernels do not implement `kernel` by hand: `nowmp_omp::OmpProgram`
/// lowers each registered portable region — the one body the thread
/// engine also runs — to its task (`OmpProgram::lower`), and
/// `nowmp_apps::tasks::TaskKernel` adapts any `Kernel` to this trait.
/// A hand-written [`RegionTask`] is for engine tests.
pub trait TaskApp {
    /// Kernel name (reporting only).
    fn name(&self) -> &'static str;
    /// Allocate shared arrays and run init regions.
    fn setup(&self, sys: &mut TaskSystem);
    /// Run one outer iteration (one or more `parallel` calls).
    fn step(&self, sys: &mut TaskSystem, iter: usize);
    /// Max-abs error against a sequential reference after `iters`.
    fn verify(&self, sys: &TaskSystem, iters: usize) -> f64;
    /// Build one rank's resumable task for `region`; `None` when no
    /// region of that name is registered. Rank, team size, parameters
    /// and the allocation registry reach the task through its
    /// [`TaskCtx`] at every step.
    fn kernel(&self, region: &str) -> Option<Box<dyn RegionTask>>;
}

/// Per-member simulation state: which pages the host's (simulated)
/// copy currently holds valid. Faults on pages outside this set are
/// charged a fetch RTT; synchronization invalidates pages written by
/// other ranks — the LRC write-notice effect.
#[derive(Default)]
struct HostSim {
    valid: HashSet<PageId>,
}

/// The task-backed cluster: flat shared memory, a deadline-set
/// scheduler, and the same adaptation books as [`crate::Cluster`].
pub struct TaskSystem {
    cfg: ClusterConfig,
    mem: SimMemory,
    allocator: Allocator,
    registry: Registry,
    sched: TaskScheduler,
    /// The adaptation books; a grace timer is its deadline-set key.
    book: ControlPlane<(u64, u64)>,
    sim: HashMap<Gpid, HostSim>,
    next_gpid: u32,
    /// Processes being created, with the workstation reserved for each
    /// (from the join request until its spawn deadline fires).
    spawning: Vec<(Gpid, HostId)>,
    fork_no: u64,
    pool: usize,
    peak_workers: usize,
}

/// One runnable task taken out of the state table for a wave.
struct WaveItem {
    pid: usize,
    task: Box<dyn RegionTask>,
    step: Step,
    out: StepOutcome,
}

impl TaskSystem {
    /// Bring up the task engine on `cfg` (same config type as the
    /// thread engine, so parity tests share one config literally).
    pub fn new(cfg: ClusterConfig) -> TaskSystem {
        let spp = cfg.dsm.slots_per_page();
        let team: Vec<Gpid> = (0..cfg.initial_procs).map(|i| Gpid(i as u32 + 1)).collect();
        let sim = team.iter().map(|&g| (g, HostSim::default())).collect();
        let log = Arc::new(EventLog::with_clock(cfg.clock.clone()));
        let mut sys = TaskSystem {
            mem: SimMemory::new(spp),
            allocator: Allocator::new(spp),
            registry: Registry::new(),
            sched: TaskScheduler::new(),
            next_gpid: team.len() as u32 + 1,
            book: ControlPlane::new(&cfg, team, log, 0),
            sim,
            spawning: Vec::new(),
            fork_no: 0,
            pool: pool_size(),
            peak_workers: 0,
            cfg,
        };
        // Runtime scratch first, exactly like the OpenMP layer, so the
        // registry (and checkpoint bytes) line up with the thread engine.
        sys.alloc(RED_ARRAY, sys.cfg.red_slots(), ElemKind::F64);
        sys.alloc(DYN_COUNTER, 1, ElemKind::U64);
        sys
    }

    // ---- shared-memory allocation & master (sequential) access ----

    /// Allocate and publish a shared array.
    pub fn alloc(&mut self, name: &str, len: u64, kind: ElemKind) -> Addr {
        let addr = self.allocator.alloc(len);
        self.registry.publish(name, addr, len, kind);
        self.mem.ensure_slots(self.allocator.allocated_slots());
        addr
    }

    /// Base address of a published array (panics if unknown).
    pub fn addr_of(&self, name: &str) -> Addr {
        self.registry
            .get(name)
            .unwrap_or_else(|| panic!("no shared array named {name:?}"))
            .addr
    }

    /// Master-side sequential read of a u64 element.
    pub fn get_u64(&self, name: &str, idx: usize) -> u64 {
        self.mem.load(self.addr_of(name) + idx as Addr)
    }

    /// Master-side bulk read of `dst.len()` f64 elements from `start`.
    pub fn read_f64s(&self, name: &str, start: usize, dst: &mut [f64]) {
        let base = self.addr_of(name) + start as Addr;
        for (a, d) in (base..).zip(dst) {
            *d = f64::from_bits(self.mem.load(a));
        }
    }

    // ---- introspection ----

    /// DSM page size in 8-byte slots (layout decisions).
    pub fn page_slots(&self) -> usize {
        self.mem.slots_per_page()
    }

    /// Current team size.
    pub fn nprocs(&self) -> usize {
        self.book.team().len()
    }

    /// Completed forks.
    pub fn fork_no(&self) -> u64 {
        self.fork_no
    }

    /// The adaptation/event log (same type the thread engine fills).
    pub fn log(&self) -> &EventLog {
        self.book.log()
    }

    /// Worker-pool width (`NOWMP_POOL`, default `min(cores, 8)`).
    pub fn pool(&self) -> usize {
        self.pool
    }

    /// Most scoped worker threads alive at once across all waves so
    /// far — the O(pool) bound the 1024-host lane asserts.
    pub fn peak_workers(&self) -> usize {
        self.peak_workers
    }

    /// Engine virtual time.
    pub fn now(&self) -> Tick {
        self.sched.now()
    }

    /// `omp_set_dynamic` analog.
    pub fn set_adaptive(&mut self, on: bool) {
        self.cfg.adaptive = on;
    }

    // ---- adaptation requests (same verbs as crate::Cluster) ----

    /// The typed adaptation surface — same verbs as
    /// [`crate::cluster::AdaptHandle`], borrowed mutably because the
    /// task engine is single-owner (no timer threads to share with).
    pub fn adapt(&mut self) -> TaskAdapt<'_> {
        TaskAdapt { sys: self }
    }

    /// Ask a free workstation to join; the spawn completes (and
    /// `JoinReady` is logged) when virtual time reaches the spawn
    /// deadline parked in the scheduler, which is returned with the
    /// new process's gpid.
    fn join_impl(&mut self) -> Result<(Gpid, Tick), AdaptError> {
        let host = self.book.request_join()?;
        let gpid = Gpid(self.next_gpid);
        self.next_gpid += 1;
        self.spawning.push((gpid, host));
        let ready_at = tick_after(self.sched.now(), self.cfg.cost_model.spawn_time());
        self.sched.park_until(JOIN_BASE + gpid.0 as usize, ready_at);
        Ok((gpid, ready_at))
    }

    /// Write a checkpoint right now, outside any adaptation point
    /// (mirrors `Cluster::checkpoint_now`: logs only a `Checkpoint`
    /// event).
    pub fn checkpoint_now(&mut self) {
        let bytes = self.write_image();
        self.book
            .checkpoint_written(self.fork_no, bytes, Duration::ZERO);
    }

    // ---- the engine proper ----

    /// Run one parallel region over the current team: an adaptation
    /// point, then waves of runnable tasks stepped on the worker pool
    /// until every rank is done.
    pub fn parallel(&mut self, app: &dyn TaskApp, region: &str, params: &[u8]) {
        self.adaptation_point();
        let nprocs = self.nprocs();
        let per_iter = self.cfg.cost_model.region_cost(region);
        let fetch_ns = dur_ns(self.cfg.net_model.fetch_rtt(self.cfg.dsm.page_size));
        let barrier_ns = dur_ns(self.cfg.net_model.barrier_time(nprocs));

        let mut states: Vec<HostState> = Vec::with_capacity(nprocs);
        for _ in 0..nprocs {
            let task = app
                .kernel(region)
                .unwrap_or_else(|| panic!("region {region:?} not registered"));
            states.push(HostState::Running(task));
        }

        let base = self.sched.now().as_nanos();
        let mut host_now: Vec<u64> = vec![base; nprocs];
        let mut pending_writes: Vec<Vec<(Addr, u64)>> = vec![Vec::new(); nprocs];
        // What the ranks hand the join: `reduction` partials by pid,
        // and the master's task, which runs the epilogue after it.
        let mut partials: Vec<Option<f64>> = vec![None; nprocs];
        let mut master_task = None;

        loop {
            // Run queue: ready every runnable rank in pid order, then
            // drain exactly that many — FIFO pops give the wave its
            // deterministic merge order.
            let mut readied = 0;
            for (pid, st) in states.iter().enumerate() {
                if st.is_running() {
                    self.sched.ready(pid);
                    readied += 1;
                }
            }
            if readied > 0 {
                let mut wave: Vec<WaveItem> = Vec::with_capacity(readied);
                for _ in 0..readied {
                    let (_, pid) = self.sched.next().expect("readied tasks pending");
                    let task = match std::mem::replace(&mut states[pid], HostState::Idle) {
                        HostState::Running(t) => t,
                        _ => unreachable!("run queue only holds running ranks"),
                    };
                    wave.push(WaveItem {
                        pid,
                        task,
                        step: Step::Done,
                        out: StepOutcome::default(),
                    });
                }
                self.step_wave(&mut wave, nprocs, params);
                // Sequential merge in pid (FIFO) order.
                for item in wave {
                    let t = host_now[item.pid];
                    host_now[item.pid] = self.charge(item.pid, &item.out, per_iter, fetch_ns, t);
                    pending_writes[item.pid].extend(item.out.writes);
                    if item.out.partial.is_some() {
                        partials[item.pid] = item.out.partial;
                    }
                    states[item.pid] = match item.step {
                        Step::Barrier => HostState::BarrierWait(item.task),
                        Step::Done if item.pid == 0 => {
                            master_task = Some(item.task);
                            HostState::Done
                        }
                        Step::Done => HostState::Done,
                    };
                }
                continue;
            }
            // No runnable rank: everyone is at the barrier (or done).
            self.sync_point(&mut pending_writes, &mut host_now, barrier_ns);
            let all_done = states.iter().all(|s| matches!(s, HostState::Done));
            if all_done {
                break;
            }
            for st in states.iter_mut() {
                if st.is_parked() {
                    let HostState::BarrierWait(t) = std::mem::replace(st, HostState::Idle) else {
                        unreachable!("is_parked ⇒ BarrierWait");
                    };
                    *st = HostState::Running(t);
                }
            }
        }
        let partials: Vec<f64> = partials.into_iter().flatten().collect();
        if let (false, Some(task)) = (partials.is_empty(), master_task.as_mut()) {
            self.join_epilogue(task.as_mut(), &partials, nprocs, params, fetch_ns);
        }
        self.fork_no += 1;
    }

    /// The master's sequential phase right after a join whose ranks
    /// handed it `reduction` partials: run the region's epilogue over
    /// the joined memory, charge the master its faults and FLOPs, and
    /// publish its writes the way a synchronization does.
    fn join_epilogue(
        &mut self,
        task: &mut dyn RegionTask,
        partials: &[f64],
        nprocs: usize,
        params: &[u8],
        fetch_ns: u64,
    ) {
        let mut out = StepOutcome::default();
        let ctx = TaskCtx::new(0, nprocs, &self.mem, &mut out);
        task.join_epilogue(&mut ctx.in_region(&self.registry, params), partials);
        // Sequential code is no profiled region: no per-iteration cost.
        let now = self.sched.now().as_nanos();
        let t = self.charge(0, &out, Duration::ZERO, fetch_ns, now);
        let mut writes = vec![Vec::new(); nprocs];
        writes[0] = out.writes;
        self.publish(&mut writes);
        self.advance_time(Tick::from_nanos(t));
    }

    /// Rank `pid`'s clock `t` moved past what one of its steps did:
    /// a fetch per page its copy lacked, the step's worksharing
    /// iterations at `per_iter` each, and its FLOPs.
    fn charge(
        &mut self,
        pid: usize,
        out: &StepOutcome,
        per_iter: Duration,
        fetch_ns: u64,
        mut t: u64,
    ) -> u64 {
        let gpid = self.book.team()[pid];
        let host = self.book.host_of(gpid).expect("member is placed");
        let sim = self.sim.get_mut(&gpid).expect("member simulated");
        for page in &out.touched {
            if sim.valid.insert(*page) {
                t += fetch_ns;
            }
        }
        let cost = &self.cfg.cost_model;
        t += dur_ns(cost.compute_time(per_iter, out.compute_iters, host));
        t + dur_ns(cost.flops_charge(out.flops, host))
    }

    /// Step every item of a wave on the scoped worker pool. Peak OS
    /// threads = 1 (caller) + `min(pool, wave.len())`.
    fn step_wave(&mut self, wave: &mut [WaveItem], nprocs: usize, params: &[u8]) {
        let (mem, registry) = (&self.mem, &self.registry);
        let join_reduction = self.cfg.dsm.collectives.reduces_at_join();
        let step = |item: &mut WaveItem| {
            let mut ctx = TaskCtx::new(item.pid as Pid, nprocs, mem, &mut item.out)
                .in_region(registry, params)
                .with_join_reduction(join_reduction);
            item.step = item.task.step(&mut ctx);
        };
        let workers = self.pool.min(wave.len()).max(1);
        if wave.len() <= 1 {
            wave.iter_mut().for_each(step);
        } else {
            let chunk = wave.len().div_ceil(workers);
            std::thread::scope(|s| {
                for ch in wave.chunks_mut(chunk) {
                    s.spawn(move || ch.iter_mut().for_each(step));
                }
            });
        }
        self.peak_workers = self.peak_workers.max(workers);
    }

    /// Barrier / region-end synchronization: [`Self::publish`] the
    /// buffered writes, and advance every host (and the engine) past
    /// the barrier.
    fn sync_point(
        &mut self,
        pending_writes: &mut [Vec<(Addr, u64)>],
        host_now: &mut [u64],
        barrier_ns: u64,
    ) {
        self.publish(pending_writes);
        let arrive = host_now.iter().copied().max().unwrap_or(0);
        let release = arrive + barrier_ns;
        let stall = self.advance_time(Tick::from_nanos(release));
        let release = release + dur_ns(stall);
        for t in host_now.iter_mut() {
            *t = release;
        }
    }

    /// Apply each rank's buffered writes, in pid order, and invalidate
    /// other ranks' copies of the pages written.
    fn publish(&mut self, pending_writes: &mut [Vec<(Addr, u64)>]) {
        let mut written_by: HashMap<PageId, Vec<usize>> = HashMap::new();
        for (pid, writes) in pending_writes.iter().enumerate() {
            for (addr, _) in writes {
                let page = self.mem.page_of(*addr);
                let writers = written_by.entry(page).or_default();
                if writers.last() != Some(&pid) {
                    writers.push(pid);
                }
            }
        }
        for writes in pending_writes.iter_mut() {
            self.mem.apply_writes(writes);
            writes.clear();
        }
        for (pid, &gpid) in self.book.team().iter().enumerate() {
            let sim = self.sim.get_mut(&gpid).expect("member simulated");
            for (page, writers) in &written_by {
                let foreign = writers.iter().any(|&w| w != pid);
                if foreign {
                    sim.valid.remove(page);
                }
            }
        }
    }

    /// Advance virtual time to `target`, firing every deadline on the
    /// way (spawn completions ⇒ `JoinReady`; expired grace periods ⇒
    /// urgent migration, which freezes the computation and returns the
    /// extra stall the caller must add to in-flight hosts).
    fn advance_time(&mut self, target: Tick) -> Duration {
        let mut target_ns = target.as_nanos().max(self.sched.now().as_nanos());
        let mut stall = Duration::ZERO;
        while let Some(d) = self.sched.earliest_deadline() {
            if d.as_nanos() > target_ns {
                break;
            }
            let (t, id) = self.sched.next().expect("deadline pending");
            self.cfg.clock.advance_to(t);
            if id >= GRACE_BASE {
                let cost = self.fire_grace(Gpid((id - GRACE_BASE) as u32));
                if cost > Duration::ZERO {
                    let resume = tick_after(t, cost);
                    self.sched.advance_to(resume);
                    self.cfg.clock.advance_to(resume);
                    target_ns += dur_ns(cost);
                    stall += cost;
                }
            } else if id >= JOIN_BASE {
                self.fire_join(Gpid((id - JOIN_BASE) as u32));
            }
        }
        let target = Tick::from_nanos(target_ns);
        self.sched.advance_to(target);
        self.cfg.clock.advance_to(target);
        stall
    }

    /// A spawn deadline fired: the process exists and — there being
    /// no handshake to simulate — has announced itself in the same
    /// instant.
    fn fire_join(&mut self, gpid: Gpid) {
        let at = self.spawning.iter().position(|&(g, _)| g == gpid);
        let (_, host) = self
            .spawning
            .remove(at.expect("spawn deadline of a pending join"));
        let seated = self
            .book
            .join_connected(host, gpid)
            .and_then(|()| self.book.join_announced(gpid));
        seated.expect("the host was reserved for this join");
    }

    /// A grace deadline fired before any adaptation point claimed the
    /// leave: migrate urgently (Fig. 2c) to the workstation the book
    /// picks. Returns the virtual time the frozen computation loses.
    fn fire_grace(&mut self, gpid: Gpid) -> Duration {
        let Some(m) = self.book.claim_urgent(gpid) else {
            return Duration::ZERO;
        };
        let (from, to) = (m.from, m.to);
        let resident = self.sim.get(&gpid).map(|s| s.valid.len()).unwrap_or(0);
        let image_bytes = migration_image_bytes(resident, self.cfg.dsm.page_size);
        self.log().push(EventKind::UrgentMigrationStart {
            gpid,
            from,
            to,
            image_bytes,
        });
        let took =
            self.cfg.cost_model.spawn_time() + self.cfg.cost_model.migration_time(image_bytes);
        self.book.migrated(gpid, from, to);
        self.log()
            .push(EventKind::UrgentMigrationDone { gpid, took });
        took
    }

    /// The adaptation point: the book decides what is due, this engine
    /// withdraws the losing grace deadlines, drops and creates the
    /// per-host simulation state and exports the checkpoint image.
    fn adaptation_point(&mut self) {
        if !self.cfg.adaptive {
            return;
        }
        let Some(plan) = self.book.begin_adaptation(self.fork_no, false) else {
            return;
        };
        for &key in &plan.timers {
            self.sched.cancel(key);
        }
        for g in &plan.leaves {
            self.sim.remove(g);
        }
        for &(g, _) in &plan.joins {
            self.sim.insert(g, HostSim::default());
        }
        let ckpt = plan.ckpt_due.then(|| (self.write_image(), Duration::ZERO));
        let cost = Cost {
            ckpt,
            ..Cost::default()
        };
        self.book.commit(plan, cost);
    }

    /// Export the full shared image and write/serialize a checkpoint,
    /// byte-compatible with the thread engine's; returns its size.
    fn write_image(&self) -> u64 {
        let pages: Vec<(PageId, Vec<u64>)> = (0..self.allocator.allocated_pages())
            .map(|p| (p as PageId, self.mem.page_words(p as PageId)))
            .collect();
        self.cfg.write_checkpoint(MemoryImage {
            fork_no: self.fork_no,
            alloc_slots: self.allocator.allocated_slots(),
            registry: self.registry.full(),
            pages,
        })
    }

    /// Cost model (for apps that size work from it).
    pub fn cost_model(&self) -> &CostModel {
        &self.cfg.cost_model
    }

    /// Net model.
    pub fn net_model(&self) -> &NetModel {
        &self.cfg.net_model
    }
}

/// The task engine's adaptation surface, returned by
/// [`TaskSystem::adapt`] — the same join / leave / checkpoint verbs as
/// [`crate::cluster::AdaptHandle`], plus the engine-only blocking
/// [`join_ready`](Self::join_ready) (virtual time can be advanced
/// synchronously here, so it needs no master handshake).
pub struct TaskAdapt<'a> {
    sys: &'a mut TaskSystem,
}

impl TaskAdapt<'_> {
    /// Request a join; the spawn completes when virtual time reaches
    /// the spawn deadline.
    pub fn join(&mut self) -> Result<Gpid, AdaptError> {
        self.sys.join_impl().map(|(gpid, _)| gpid)
    }

    /// Request a join and advance virtual time to the spawn completion,
    /// so the very next adaptation point commits it — the blocking
    /// flavor the thread engine's `Cluster::join_ready` provides.
    pub fn join_ready(&mut self) -> Result<Gpid, AdaptError> {
        let (gpid, ready_at) = self.sys.join_impl()?;
        self.sys.advance_time(ready_at);
        Ok(gpid)
    }

    /// Request a leave for the selected member. With a grace period, a
    /// deadline is parked in the scheduler's deadline set; if virtual
    /// time crosses it before an adaptation point claims the leave,
    /// the process migrates urgently. `grace = None` always ends in a
    /// normal leave.
    pub fn leave(&mut self, sel: LeaveSel, grace: Option<Duration>) -> Result<Gpid, AdaptError> {
        let TaskSystem { book, sched, .. } = &mut *self.sys;
        let now = sched.now();
        book.request_leave(sel, grace, |gpid, grace| {
            sched.park_until(GRACE_BASE + gpid.0 as usize, tick_after(now, grace))
        })
    }

    /// Request a checkpoint at the next adaptation point.
    pub fn checkpoint(&mut self) {
        self.sys.book.request_checkpoint();
    }
}

/// Worker-pool width: `NOWMP_POOL` if set, else `min(cores, 8)`.
fn pool_size() -> usize {
    let v = std::env::var_os("NOWMP_POOL");
    pool_width(v.as_ref().map(|v| v.to_string_lossy()).as_deref()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map_or(4, |n| n.get())
            .min(8)
    })
}

/// The pool width a `NOWMP_POOL` value names: `None` when unset, else
/// the positive integer it spells. Any other value panics rather than
/// falling back to the default unnoticed.
fn pool_width(value: Option<&str>) -> Option<usize> {
    let v = value?;
    match v.parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => panic!("NOWMP_POOL={v:?}: expected unset or a positive integer"),
    }
}

fn dur_ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

fn tick_after(t: Tick, d: Duration) -> Tick {
    Tick::from_nanos(t.as_nanos().saturating_add(dur_ns(d)))
}

/// Run `app` end to end on the task engine: setup, `iters` steps,
/// verify. Returns the max-abs verification error.
pub fn run_task_app(app: &dyn TaskApp, cfg: ClusterConfig, iters: usize) -> (f64, TaskSystem) {
    let mut sys = TaskSystem::new(cfg);
    app.setup(&mut sys);
    for it in 0..iters {
        app.step(&mut sys, it);
    }
    let err = app.verify(&sys, iters);
    (err, sys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nowmp_ckpt::Checkpoint;
    use nowmp_tmk::SharedMem;
    use nowmp_util::Clock;

    fn cfg(hosts: usize, procs: usize) -> ClusterConfig {
        ClusterConfig::test(hosts, procs)
            .with_clock(Clock::new_virtual())
            .with_adaptive(true)
    }

    /// Two-phase ring app: phase A writes `arr[pid] = pid`, barrier,
    /// phase B reads the *right neighbor's* slot (proving barrier
    /// write visibility) and writes `out[pid] = neighbor`.
    struct Ring;

    struct RingTask {
        phase: u8,
    }

    impl RegionTask for RingTask {
        fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
            let (pid, n) = (ctx.pid() as u64, ctx.nprocs() as u64);
            let addr_of = |name| ctx.handle(name).expect("set up").addr;
            let (arr, out) = (addr_of("arr"), addr_of("out"));
            match self.phase {
                0 => {
                    ctx.write_u64(arr + pid, pid);
                    ctx.charge_compute(1);
                    self.phase = 1;
                    Step::Barrier
                }
                _ => {
                    let v = ctx.read_u64(arr + (pid + 1) % n);
                    ctx.write_u64(out + pid, v);
                    Step::Done
                }
            }
        }
    }

    impl TaskApp for Ring {
        fn name(&self) -> &'static str {
            "ring"
        }
        fn setup(&self, sys: &mut TaskSystem) {
            sys.alloc("arr", 64, ElemKind::U64);
            sys.alloc("out", 64, ElemKind::U64);
        }
        fn step(&self, sys: &mut TaskSystem, _iter: usize) {
            sys.parallel(self, "ring", &[]);
        }
        fn verify(&self, sys: &TaskSystem, _iters: usize) -> f64 {
            let n = sys.nprocs() as u64;
            let mut err = 0.0f64;
            for p in 0..n {
                let want = (p + 1) % n;
                let got = sys.get_u64("out", p as usize);
                err = err.max((got as f64 - want as f64).abs());
            }
            err
        }
        fn kernel(&self, _region: &str) -> Option<Box<dyn RegionTask>> {
            Some(Box::new(RingTask { phase: 0 }))
        }
    }

    #[test]
    fn ring_sees_neighbor_writes_after_barrier() {
        let (err, sys) = run_task_app(&Ring, cfg(4, 4), 1);
        assert_eq!(err, 0.0);
        assert_eq!(sys.fork_no(), 1);
    }

    #[test]
    fn compute_charges_advance_virtual_time() {
        let c = cfg(4, 4).with_cost_model(
            CostModel::disabled().with_region_cost("ring", Duration::from_millis(1)),
        );
        let (err, sys) = run_task_app(&Ring, c, 1);
        assert_eq!(err, 0.0);
        assert!(sys.now() >= Tick::from_nanos(1_000_000), "{:?}", sys.now());
    }

    #[test]
    fn join_then_leave_mirrors_thread_event_order() {
        let mut sys = TaskSystem::new(cfg(6, 3));
        Ring.setup(&mut sys);
        let g = sys.adapt().join_ready().unwrap();
        sys.parallel(&Ring, "ring", &[]); // commits the join
        assert_eq!(sys.nprocs(), 4);
        sys.adapt()
            .leave(LeaveSel::Pid(2), Some(Duration::from_secs(30)))
            .unwrap();
        sys.parallel(&Ring, "ring", &[]); // normal leave
        assert_eq!(sys.nprocs(), 3);
        let kinds: Vec<String> = sys
            .log()
            .entries()
            .iter()
            .map(|e| match &e.kind {
                EventKind::JoinRequested { .. } => "jreq".into(),
                EventKind::JoinReady { gpid } => {
                    assert_eq!(*gpid, g);
                    "jready".into()
                }
                EventKind::JoinCommitted { pid, .. } => format!("jcommit:{pid}"),
                EventKind::LeaveRequested { .. } => "lreq".into(),
                EventKind::NormalLeave { .. } => "nleave".into(),
                EventKind::Adaptation {
                    joins,
                    leaves,
                    nprocs,
                    ..
                } => {
                    format!("adapt:+{joins}-{leaves}->{nprocs}")
                }
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                "jreq",
                "jready",
                "jcommit:3",
                "adapt:+1-0->4",
                "lreq",
                "nleave",
                "adapt:+0-1->3"
            ]
        );
    }

    #[test]
    fn master_cannot_leave_and_duplicate_leave_rejected() {
        let mut sys = TaskSystem::new(cfg(4, 3));
        assert!(matches!(
            sys.adapt().leave(LeaveSel::Pid(0), None),
            Err(AdaptError::MasterCannotLeave)
        ));
        sys.adapt().leave(LeaveSel::Pid(1), None).unwrap();
        assert!(matches!(
            sys.adapt().leave(LeaveSel::Pid(1), None),
            Err(AdaptError::AlreadyLeaving(_))
        ));
    }

    #[test]
    fn expired_grace_turns_urgent_before_adaptation() {
        // Paper costs: spawning takes 0.7 s of virtual time, so a
        // 1 ms grace expires while the join spawn advances the clock
        // — before any adaptation point can claim the leave normally.
        let c = cfg(6, 3).with_cost_model(CostModel::paper_1999());
        let mut sys = TaskSystem::new(c);
        Ring.setup(&mut sys);
        sys.adapt()
            .leave(LeaveSel::Pid(2), Some(Duration::from_millis(1)))
            .unwrap();
        sys.adapt().join_ready().unwrap();
        let kinds: Vec<&'static str> = sys
            .log()
            .entries()
            .iter()
            .map(|e| match &e.kind {
                EventKind::LeaveRequested { .. } => "lreq",
                EventKind::JoinRequested { .. } => "jreq",
                EventKind::JoinReady { .. } => "jready",
                EventKind::UrgentMigrationStart { .. } => "ustart",
                EventKind::UrgentMigrationDone { .. } => "udone",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, vec!["lreq", "jreq", "ustart", "udone", "jready"]);
        // The next adaptation point retires the (already migrated)
        // leaver and seats the joiner, like the thread engine.
        sys.parallel(&Ring, "ring", &[]);
        let tail: Vec<&'static str> = sys
            .log()
            .entries()
            .iter()
            .skip(5)
            .map(|e| match &e.kind {
                EventKind::NormalLeave { .. } => "nleave",
                EventKind::JoinCommitted { .. } => "jcommit",
                EventKind::Adaptation { .. } => "adapt",
                _ => "other",
            })
            .collect();
        assert_eq!(tail, vec!["nleave", "jcommit", "adapt"]);
        assert_eq!(sys.nprocs(), 3);
    }

    #[test]
    fn checkpoint_roundtrips_through_ckpt_crate() {
        let dir = std::env::temp_dir().join(format!("nowmp-task-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("task.ckpt");
        let c = cfg(4, 4).with_ckpt_path(path.clone());
        let (err, mut sys) = {
            let mut sys = TaskSystem::new(c);
            Ring.setup(&mut sys);
            Ring.step(&mut sys, 0);
            (Ring.verify(&sys, 1), sys)
        };
        assert_eq!(err, 0.0);
        sys.checkpoint_now();
        let ck = Checkpoint::read_file(&path).unwrap();
        assert_eq!(ck.image.fork_no, 1);
        assert_eq!(ck.image.registry.len(), 4); // __omp_red, __omp_dyn, arr, out
        assert_eq!(ck.image.registry[0].name, RED_ARRAY);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pool_bounds_workers_not_hosts() {
        // 64 hosts: more than the default pool (at most 8) can hold.
        let (err, sys) = run_task_app(&Ring, cfg(64, 64), 2);
        assert_eq!(err, 0.0);
        assert!(sys.peak_workers() <= sys.pool());
    }

    #[test]
    fn pool_setting_accepts_unset_or_a_positive_width() {
        assert_eq!(pool_width(None), None);
        assert_eq!(pool_width(Some("1")), Some(1));
        assert_eq!(pool_width(Some("12")), Some(12));
    }

    #[test]
    #[should_panic(expected = "expected unset or a positive integer")]
    fn pool_setting_rejects_a_non_number() {
        pool_width(Some("abc"));
    }
}
