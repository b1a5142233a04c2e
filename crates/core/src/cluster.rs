//! The adaptive cluster runtime — the paper's contribution.
//!
//! [`Cluster`] wraps a [`nowmp_tmk::DsmSystem`] and its master process
//! and adds *transparent adaptation*:
//!
//! * **join events**: a new workstation's process is spawned
//!   immediately and connects asynchronously while the computation
//!   continues; it enters the team at the next adaptation point (§4.1);
//! * **normal leaves**: if the computation reaches an adaptation point
//!   within the grace period, the process leaves there — the master
//!   garbage-collects, takes over (or re-homes) pages only the leaver
//!   held, and re-forms the team (§4.2, §3);
//! * **urgent leaves**: when the grace period expires first, the
//!   process migrates (checkpoint-style image transfer at the measured
//!   8.1 MB/s plus 0.6–0.8 s process creation) to another workstation
//!   and *multiplexes* there until the next adaptation point (Fig. 2c);
//! * **checkpointing** (§4.3): at adaptation points only — slaves hold
//!   no private state there, so a master-only checkpoint suffices.
//!
//! Applications never see any of this: they allocate shared arrays and
//! call [`Cluster::parallel`]; iteration re-partitioning happens because
//! the (simulated) OpenMP compiler re-derives each process's share from
//! `(pid, nprocs)` at every fork.
//!
//! What to do at each of these moments is decided by the adaptation
//! books ([`crate::adapt`]), which this engine shares with
//! [`crate::TaskSystem`]. This module is the thread engine's
//! *mechanism*: spawning a process and its handshake, GC and team
//! commit, the freeze and the image transfer, the checkpoint image.
//! The books sit behind a mutex the virtual clock cannot see, so every
//! function here decides under it, acts outside it, and records the
//! outcome under it again.

use crate::adapt::{AdaptError, ControlPlane, Cost, LeaveSel};
use crate::freeze::Freeze;
use crate::log::{EventKind, EventLog};
use crate::reassign::ReassignPolicy;
use crate::sched::JobId;
use nowmp_ckpt::{migration_image_bytes, Checkpoint};
use nowmp_net::{CostModel, Gpid, HostId, NetModel, Network};
use nowmp_tmk::system::RegionRunner;
use nowmp_tmk::{
    CollectiveConfig, DataPlaneConfig, DsmConfig, DsmSystem, MasterCtl, MemoryImage, TmkCtx,
};
use nowmp_util::{Alarm, Clock, JoinHandle};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Name of the runtime's reduction scratch array (one `f64` slot per
/// rank): the 1999 generation's `reduction` clause and every in-region
/// `reduce_*` call go through it (the current generation's clause
/// rides the join instead). Both engines allocate it first, so
/// registries — and therefore checkpoint bytes — line up across them.
pub const RED_ARRAY: &str = "__omp_red";
/// Name of the runtime's dynamic-schedule counter, allocated second.
pub const DYN_COUNTER: &str = "__omp_dyn";
/// Slots the reduction scratch has at least; a pool with more
/// workstations gets one slot per workstation
/// ([`ClusterConfig::red_slots`]).
pub const MAX_TEAM: usize = 64;

/// Cluster configuration.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Workstations in the pool.
    pub hosts: usize,
    /// Initial team size (processes, master included).
    pub initial_procs: usize,
    /// Wire cost model (latency, bandwidth, per-message overhead).
    pub net_model: NetModel,
    /// Host cost model (spawn delay, migration stream, per-host speed
    /// and load factors, per-kernel compute costs).
    pub cost_model: CostModel,
    /// DSM protocol configuration.
    pub dsm: DsmConfig,
    /// Pid reassignment policy.
    pub reassign: ReassignPolicy,
    /// Write a checkpoint every `k` forks (None = only on request).
    pub ckpt_every_forks: Option<u64>,
    /// Where checkpoints go.
    pub ckpt_path: Option<PathBuf>,
    /// Time backend for the whole simulation: network delays, grace
    /// timers, event-log timestamps. Defaults to [`Clock::from_env`]
    /// (wall time unless `NOWMP_CLOCK=virtual`); tests pass
    /// [`Clock::new_virtual`] for deterministic, wall-free runs.
    pub clock: Clock,
    /// Initial state of the OpenMP dynamic-adjustment switch (§4.4):
    /// whether adapt events take effect at adaptation points. Still
    /// toggleable at runtime through [`Cluster::set_adaptive`]
    /// (`omp_set_dynamic` semantics); this field only picks the state
    /// the cluster is *constructed* with.
    pub adaptive: bool,
    /// Master-private state provider for checkpoints: called at every
    /// checkpoint write, its bytes are handed back by
    /// [`Cluster::recover`]. Configure before construction instead of
    /// mutating the built cluster.
    pub master_state_provider: Option<Arc<dyn Fn() -> Vec<u8> + Send + Sync>>,
    /// Job this cluster belongs to under the multi-tenant scheduler:
    /// stamps every [`EventLog`] entry. Tenants are isolated by each
    /// owning its own `Network` and `DsmSystem`, not by this label.
    /// `None` (the single-job default) renders timelines unchanged.
    pub job: Option<JobId>,
}

impl ClusterConfig {
    /// Builder: set the pool size and initial team size (the scheduler
    /// uses this to size per-job clusters: `hosts = max_procs`, with
    /// `procs` of them occupied by the granted team).
    pub fn with_team(mut self, hosts: usize, procs: usize) -> Self {
        assert!(hosts >= procs, "one process per workstation");
        self.hosts = hosts;
        self.initial_procs = procs;
        self
    }

    /// Builder: set the initial adaptivity switch.
    pub fn with_adaptive(mut self, on: bool) -> Self {
        self.adaptive = on;
        self
    }

    /// Builder: install the master-private state provider for
    /// checkpoints.
    pub fn with_master_state_provider(
        mut self,
        f: impl Fn() -> Vec<u8> + Send + Sync + 'static,
    ) -> Self {
        self.master_state_provider = Some(Arc::new(f));
        self
    }

    /// Builder: set the time backend.
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// Builder: set the wire cost model.
    pub fn with_net_model(mut self, net_model: NetModel) -> Self {
        self.net_model = net_model;
        self
    }

    /// Builder: set the host cost model.
    pub fn with_cost_model(mut self, cost_model: CostModel) -> Self {
        self.cost_model = cost_model;
        self
    }

    /// Builder: replace the DSM protocol configuration wholesale.
    pub fn with_dsm(mut self, dsm: DsmConfig) -> Self {
        self.dsm = dsm;
        self
    }

    /// Builder: set the collective shapes (fork dissemination; join
    /// reduction and barrier release).
    pub fn with_collectives(mut self, collectives: CollectiveConfig) -> Self {
        self.dsm.collectives = collectives;
        self
    }

    /// Builder: set the data plane (demand paging or overlapped).
    pub fn with_dataplane(mut self, dataplane: DataPlaneConfig) -> Self {
        self.dsm.dataplane = dataplane;
        self
    }

    /// Builder: the paper's 1999 TreadMarks generation
    /// ([`DsmConfig::generation_1999`]: flat collectives, demand plane).
    pub fn generation_1999(mut self) -> Self {
        self.dsm = self.dsm.generation_1999();
        self
    }

    /// Builder: set the pid reassignment policy.
    pub fn with_reassign(mut self, reassign: ReassignPolicy) -> Self {
        self.reassign = reassign;
        self
    }

    /// Builder: checkpoint every `k` forks.
    pub fn with_ckpt_every_forks(mut self, k: u64) -> Self {
        self.ckpt_every_forks = Some(k);
        self
    }

    /// Builder: set the checkpoint destination.
    pub fn with_ckpt_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.ckpt_path = Some(path.into());
        self
    }

    /// Builder: label this cluster as `job` under the multi-tenant
    /// scheduler (tags the event log).
    pub fn with_job(mut self, job: JobId) -> Self {
        self.job = Some(job);
        self
    }
}

impl ClusterConfig {
    /// A small, emulation-free configuration for tests.
    pub fn test(hosts: usize, procs: usize) -> Self {
        ClusterConfig {
            hosts,
            initial_procs: procs,
            net_model: NetModel::disabled(),
            cost_model: CostModel::disabled(),
            dsm: DsmConfig::test_small(),
            reassign: ReassignPolicy::CompactKeepOrder,
            ckpt_every_forks: None,
            ckpt_path: None,
            clock: Clock::from_env(),
            adaptive: true,
            master_state_provider: None,
            job: None,
        }
    }

    /// The paper's testbed: 8 hosts, 8 processes, paper network and
    /// host cost models, 4 KB pages, the 1999 protocol generation.
    pub fn paper_1999() -> Self {
        ClusterConfig {
            net_model: NetModel::paper_1999(),
            cost_model: CostModel::paper_1999(),
            dsm: DsmConfig::default_4k().generation_1999(),
            ..Self::test(8, 8)
        }
    }

    /// Length of the reduction scratch ([`RED_ARRAY`]) either engine
    /// allocates for this pool: one slot per rank the team can ever
    /// have, and never fewer than [`MAX_TEAM`].
    pub fn red_slots(&self) -> u64 {
        self.hosts.max(MAX_TEAM) as u64
    }

    /// Pair `image` with the master's private state and write the
    /// checkpoint to `ckpt_path`; returns its size in bytes.
    pub(crate) fn write_checkpoint(&self, image: MemoryImage) -> u64 {
        let provider = self.master_state_provider.as_ref();
        let ckpt = Checkpoint {
            image,
            master_blob: provider.map(|f| f()).unwrap_or_default(),
        };
        match &self.ckpt_path {
            Some(path) => ckpt.write_file(path).expect("checkpoint write failed"),
            None => ckpt.to_bytes().len() as u64, // sized but not persisted
        }
    }
}

/// State shared with timer threads and event sources.
pub struct ClusterShared {
    sys: Arc<DsmSystem>,
    net: Network,
    master_gpid: Gpid,
    /// The adaptation books. Never held across a clock-visible wait.
    book: Mutex<ControlPlane<Alarm>>,
    freeze: Arc<Freeze>,
    log: Arc<EventLog>,
}

impl ClusterShared {
    /// The event log.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// The simulation's time source.
    pub fn clock(&self) -> &Clock {
        self.net.clock()
    }

    /// Current team member list (index = pid).
    pub fn team_view(&self) -> Vec<Gpid> {
        self.book.lock().team().to_vec()
    }

    /// The typed adaptation handle — the one surface for join / leave /
    /// checkpoint requests (replaces the `request_*` method sprawl).
    pub fn adapt(self: &Arc<Self>) -> AdaptHandle {
        AdaptHandle {
            shared: Arc::clone(self),
        }
    }

    /// Workstation currently hosting `gpid`, if it is placed.
    pub fn host_of(&self, gpid: Gpid) -> Option<HostId> {
        self.book.lock().host_of(gpid)
    }

    /// Join: reserve a free workstation, spawn the process
    /// (asynchronously: the spawn delay and connection setup overlap the
    /// ongoing computation), and let it enter at a later adaptation
    /// point. Returns the reserved host and the spawner thread, which
    /// yields the new process once it exists.
    fn join_impl(self: &Arc<Self>) -> Result<(HostId, JoinHandle<Gpid>), AdaptError> {
        let host = self.book.lock().request_join()?;
        let me = Arc::clone(self);
        let spawner = self.clock().spawn(format!("join-{host}"), move || {
            // Process creation cost (0.6–0.8 s on the paper's testbed),
            // charged off the critical path.
            me.net.charge_spawn();
            let mut hello = me.team_view();
            // Connect to slaves first, then the master (§4.1).
            hello.retain(|&g| g != me.master_gpid);
            hello.push(me.master_gpid);
            let gpid = me.sys.spawn_worker(host, me.master_gpid, hello);
            let recorded = me.book.lock().join_connected(host, gpid);
            recorded.expect("the host was reserved for this join");
            gpid
        });
        Ok((host, spawner))
    }

    /// Stream `gpid`'s process image from `from` to `to` and re-home
    /// the process there (multiplexing if occupied), with the whole
    /// computation frozen meanwhile and the full transfer cost charged.
    fn migrate(&self, gpid: Gpid, from: HostId, to: HostId) {
        let resident = self
            .sys
            .core_of(gpid)
            .map(|c| {
                c.lock()
                    .pages
                    .iter()
                    .filter(|(_, m)| m.data.is_some())
                    .count()
            })
            .unwrap_or(0);
        let image = migration_image_bytes(resident, self.sys.cfg().page_size);
        self.log.push(EventKind::UrgentMigrationStart {
            gpid,
            from,
            to,
            image_bytes: image,
        });

        // "All processes then wait for the completion of the migration."
        self.freeze.freeze();
        let t0 = self.clock().now();
        self.net.charge_spawn(); // create the new process on the target host
        self.net.charge_migration(from, to, image); // stream heap + stack
        self.net
            .relabel(gpid, to)
            .expect("relabel migrating process");
        self.book.lock().migrated(gpid, from, to);
        self.freeze.thaw();
        self.log.push(EventKind::UrgentMigrationDone {
            gpid,
            took: self.clock().elapsed_since(t0),
        });
    }

    /// Migrate any team member — including the master — to `to` right
    /// now (§4.4: "the master node, which executes the master process,
    /// can migrate but it currently cannot perform a normal leave").
    /// The process keeps its identity and team rank; only its
    /// workstation changes, with the full image-transfer cost charged.
    pub fn migrate_now(&self, gpid: Gpid, to: HostId) -> Result<(), AdaptError> {
        let from = self.book.lock().member_host(gpid)?;
        if from != to {
            self.migrate(gpid, from, to);
        }
        Ok(())
    }

    /// Take the urgent path for `gpid`'s pending leave right now
    /// (Figure 2c) — what its grace timer does on expiry, and what
    /// deterministic tests and benches call directly. The process
    /// migrates to another workstation and multiplexes there; the team
    /// shrinks at the *next* adaptation point, exactly as in the paper.
    /// `false` when no leave is pending: an adaptation point got there
    /// first.
    pub fn force_urgent(&self, gpid: Gpid) -> bool {
        let Some(m) = self.book.lock().claim_urgent(gpid) else {
            return false;
        };
        if let Some(timer) = m.timer {
            timer.cancel(); // withdraw the deadline if it has not passed
        }
        self.migrate(gpid, m.from, m.to);
        true
    }
}

/// The typed adaptation surface: every way the outside world changes a
/// running team goes through this one handle, obtained from
/// [`ClusterShared::adapt`] (or the `adapt()` conveniences on
/// `Cluster` / `OmpSystem`). It is `Clone + Send`, so drivers, grace
/// timers and the cluster scheduler all share it.
///
/// The verbs map 1:1 onto the paper's adaptation events:
///
/// * [`join`](Self::join) — §4.1 join, committed at a later adaptation
///   point (the blocking variant, `Cluster::join_ready`, needs the
///   master and so lives there);
/// * [`leave`](Self::leave) — §4.2 leave with a grace period: normal if
///   an adaptation point arrives in time, urgent migration otherwise;
/// * [`checkpoint`](Self::checkpoint) — §4.3 master-only checkpoint at
///   the next adaptation point.
#[derive(Clone)]
pub struct AdaptHandle {
    shared: Arc<ClusterShared>,
}

impl AdaptHandle {
    /// Request a join: reserves the fastest free workstation and spawns
    /// a process toward it; the team grows at a later adaptation point.
    pub fn join(&self) -> Result<HostId, AdaptError> {
        self.shared.join_impl().map(|(host, _)| host)
    }

    /// Request a leave for the selected member. `grace = None` waits
    /// for an adaptation point indefinitely (always a normal leave);
    /// `Some(g)` races the paper's grace timer against the next
    /// adaptation point and migrates urgently if the timer wins.
    /// Returns the gpid the selector resolved to.
    pub fn leave(&self, sel: LeaveSel, grace: Option<Duration>) -> Result<Gpid, AdaptError> {
        let shared = &self.shared;
        // The grace period is a waitable, cancellable deadline on the
        // cluster clock: under a virtual clock it only fires if the
        // whole simulation is otherwise idle until it — exactly the
        // paper's race between the timer and the next adaptation point,
        // minus the wall time. It is armed under the book's lock, with
        // the request, so whoever claims the leave finds it to cancel.
        let arm = |gpid: Gpid, grace: Duration| {
            let alarm = shared.clock().alarm(grace);
            let (me, fired) = (Arc::clone(shared), alarm.clone());
            shared.clock().spawn(format!("grace-{gpid}"), move || {
                if fired.wait() {
                    me.force_urgent(gpid);
                }
            });
            alarm
        };
        shared.book.lock().request_leave(sel, grace, arm)
    }

    /// Request a checkpoint at the next adaptation point.
    pub fn checkpoint(&self) {
        self.shared.book.lock().request_checkpoint();
    }

    /// Current team member list (index = pid).
    pub fn team(&self) -> Vec<Gpid> {
        self.shared.team_view()
    }

    /// Workstation currently hosting `gpid` (the scheduler records it
    /// before a directed shrink so it knows which host a committed
    /// leave frees).
    pub fn host_of(&self, gpid: Gpid) -> Option<HostId> {
        self.shared.host_of(gpid)
    }
}

/// The adaptive cluster: master-side handle driving the computation.
pub struct Cluster {
    shared: Arc<ClusterShared>,
    master: MasterCtl,
    cfg: ClusterConfig,
    /// Readiness announcements the master received before the spawner
    /// thread told the book which process it created (the two are
    /// unordered); offered to the book again at the next point.
    early_ready: Vec<Gpid>,
}

impl Cluster {
    /// Bring up a cluster: network, master, initial workers, team.
    pub fn new(cfg: ClusterConfig, runner: Arc<dyn RegionRunner>) -> Self {
        Self::bring_up(cfg, runner, None)
    }

    /// Recover a cluster from a checkpoint file: fresh processes, the
    /// shared memory restored, the fork counter fast-forwarded. Returns
    /// the cluster and the master's private blob.
    pub fn recover(
        cfg: ClusterConfig,
        runner: Arc<dyn RegionRunner>,
        path: &std::path::Path,
    ) -> Result<(Self, Vec<u8>), nowmp_ckpt::CkptError> {
        let ckpt = Checkpoint::read_file(path)?;
        let cluster = Self::bring_up(cfg, runner, Some(&ckpt.image));
        Ok((cluster, ckpt.master_blob))
    }

    /// Network, freeze hook, master, initial workers, team, books. With
    /// an `image`, the master holds it before the workers learn the
    /// directory.
    fn bring_up(
        cfg: ClusterConfig,
        runner: Arc<dyn RegionRunner>,
        image: Option<&MemoryImage>,
    ) -> Self {
        assert!(cfg.initial_procs >= 1, "need at least the master");
        assert!(
            cfg.hosts >= cfg.initial_procs,
            "one process per workstation"
        );
        let clock = cfg.clock.clone();
        let net = Network::with_clock(
            cfg.hosts,
            1,
            cfg.net_model.clone(),
            cfg.cost_model.clone(),
            clock.clone(),
        );
        let freeze = Freeze::new(clock.clone());
        let mut dsm = cfg.dsm.clone();
        dsm.throttle = Some(freeze.hook());
        let sys = DsmSystem::new(net.clone(), dsm, runner);
        let mut master = sys.start_master(HostId(0));
        let master_gpid = master.gpid();
        if let Some(image) = image {
            master.import_image(image);
        }

        let mut team = vec![master_gpid];
        for i in 1..cfg.initial_procs {
            let mut hello: Vec<Gpid> = team[1..].to_vec();
            hello.push(master_gpid);
            team.push(sys.spawn_worker(HostId(i as u16), master_gpid, hello));
        }
        master.init_team(&team[1..]);

        let log = Arc::new(match cfg.job {
            Some(job) => EventLog::with_clock_for_job(clock.clone(), job),
            None => EventLog::with_clock(clock.clone()),
        });
        let last_ckpt_fork = image.map_or(0, |i| i.fork_no);
        let book = ControlPlane::new(&cfg, team, Arc::clone(&log), last_ckpt_fork);
        let shared = Arc::new(ClusterShared {
            sys,
            net,
            log,
            master_gpid,
            book: Mutex::new(book),
            freeze,
        });
        Cluster {
            shared,
            master,
            cfg,
            early_ready: Vec::new(),
        }
    }

    /// Handle for event sources (drivers, timers, schedules).
    pub fn shared(&self) -> Arc<ClusterShared> {
        Arc::clone(&self.shared)
    }

    /// The master's DSM context (sequential phase).
    pub fn ctx(&mut self) -> &mut TmkCtx {
        self.master.ctx()
    }

    /// Allocate and publish shared memory (master, sequential phase).
    pub fn alloc(&mut self, name: &str, len: u64, kind: nowmp_tmk::ElemKind) {
        self.master.alloc(name, len, kind);
    }

    /// Completed forks.
    pub fn fork_no(&self) -> u64 {
        self.master.fork_no()
    }

    /// DSM page size in bytes.
    pub fn page_size(&self) -> usize {
        self.cfg.dsm.page_size
    }

    /// Length of the reduction scratch this pool needs
    /// ([`ClusterConfig::red_slots`]).
    pub fn red_slots(&self) -> u64 {
        self.cfg.red_slots()
    }

    /// Current team size.
    pub fn nprocs(&self) -> usize {
        self.shared.book.lock().team().len()
    }

    /// Current team.
    pub fn team(&self) -> Vec<Gpid> {
        self.shared.team_view()
    }

    /// DSM statistics.
    pub fn dsm_stats(&self) -> nowmp_tmk::DsmSnapshot {
        self.master.system().stats().snapshot()
    }

    /// Every process's share of the clock's ledger, in gpid order.
    pub fn ledger(&self) -> Vec<nowmp_tmk::ProcLedger> {
        self.master.system().ledger()
    }

    /// Network statistics.
    pub fn net_stats(&self) -> nowmp_net::StatsSnapshot {
        self.shared.net.stats()
    }

    /// The event log.
    pub fn log(&self) -> &EventLog {
        self.shared.log()
    }

    /// The simulation's time source.
    pub fn clock(&self) -> &Clock {
        self.shared.clock()
    }

    /// The typed adaptation handle (see [`AdaptHandle`]).
    pub fn adapt(&self) -> AdaptHandle {
        self.shared.adapt()
    }

    /// Request a join and block until the new process has connected
    /// (deterministic variant: the very next adaptation point commits
    /// it). Needs the master, so it lives here rather than on
    /// [`AdaptHandle`]. Returns the new process and the workstation it
    /// was placed on (the host is only *reserved* until the join
    /// commits, so [`ClusterShared::host_of`] cannot resolve it yet).
    pub fn join_ready(&mut self) -> Result<(Gpid, HostId), AdaptError> {
        let (host, spawner) = self.shared.join_impl()?;
        // Joining the spawner is a clock-visible wait: under a virtual
        // clock the master is blocked, the spawner's 0.7 s creation
        // delay advances instantly, and the wait costs exactly that
        // plus the handshake below.
        let gpid = spawner.join().expect("join spawner panicked");
        self.master.wait_ready(gpid);
        // `wait_ready` consumed the announcement; pass it on.
        let announced = self.shared.book.lock().join_announced(gpid);
        announced.expect("the spawner recorded this process");
        Ok((gpid, host))
    }

    /// Execute one parallel construct, handling any pending adapt
    /// events at the adaptation point first.
    pub fn parallel(&mut self, region: u32, params: &[u8]) {
        self.adaptation_point();
        self.master.parallel(region, params);
    }

    /// Enable or disable adaptivity (the OpenMP dynamic-adjustment
    /// switch, §4.4). While disabled, adapt events queue but never take
    /// effect.
    pub fn set_adaptive(&mut self, on: bool) {
        self.cfg.adaptive = on;
    }

    /// Process pending adapt events (the paper's adaptation point,
    /// between `Tmk_join` and the next `Tmk_fork`).
    pub fn adaptation_point(&mut self) {
        if !self.cfg.adaptive {
            return;
        }
        // Joins whose processes have announced readiness.
        self.early_ready.extend(self.master.drain_ready_joins());
        let gc_due = self.master.gc_due();
        let plan = {
            let mut book = self.shared.book.lock();
            self.early_ready
                .retain(|&g| book.join_announced(g).is_err());
            book.begin_adaptation(self.master.fork_no(), gc_due)
        };
        let Some(plan) = plan else {
            return;
        };
        // The race is decided: withdraw the losing grace timers and
        // their pending deadlines.
        for timer in &plan.timers {
            timer.cancel();
        }

        let t0 = self.clock().now();
        let net_before = self.shared.net.stats();

        // GC with leavers avoided; pages only they hold go to the master.
        let avoid: HashSet<Gpid> = plan.leaves.iter().copied().collect();
        let outcome = self.master.run_gc(&avoid);
        self.master.commit_team(plan.members.clone(), &outcome);

        // Checkpoint (paper §4.3: GC already ran; collect + dump).
        let ckpt = plan.ckpt_due.then(|| self.write_image());

        // The bytes the adaptation moves leave out the diffs the last
        // region's close pushed to its readers: they may still be
        // leaving as the point starts, and would go whether or not it
        // adapts. The busiest link keeps them, as the time does: they
        // share its wire.
        let delta = self.shared.net.stats().since(&net_before);
        let cost = Cost {
            took: self.clock().elapsed_since(t0),
            bytes_moved: delta.total_bytes.saturating_sub(delta.pushed_bytes),
            max_link_bytes: delta
                .links
                .iter()
                .map(|l| l.bytes_total())
                .max()
                .unwrap_or(0),
            ckpt,
        };
        self.shared.book.lock().commit(plan, cost);
    }

    /// Collect every page at the master and dump the image; returns the
    /// checkpoint's size and how long it took.
    fn write_image(&mut self) -> (u64, Duration) {
        let t0 = self.clock().now();
        self.master.collect_all_pages();
        let bytes = self.cfg.write_checkpoint(self.master.export_image());
        (bytes, self.clock().elapsed_since(t0))
    }

    /// Write a checkpoint immediately (the caller is at an adaptation
    /// point by construction — between `parallel` calls).
    pub fn checkpoint_now(&mut self) {
        // GC first, as §4.3 prescribes.
        let outcome = self.master.run_gc(&HashSet::new());
        let members = self.master.team().members.clone();
        self.master.commit_team(members, &outcome);
        let (bytes, took) = self.write_image();
        let fork_no = self.master.fork_no();
        self.shared
            .book
            .lock()
            .checkpoint_written(fork_no, bytes, took);
    }

    /// Shut down the whole system.
    pub fn shutdown(self) {
        self.master.shutdown();
    }
}
