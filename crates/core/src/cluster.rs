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

use crate::event::{AdaptEvent, LeavePhase, PendingLeave};
use crate::freeze::Freeze;
use crate::hostpool::HostPool;
use crate::log::{EventKind, EventLog};
use crate::reassign::{reassign, ReassignPolicy};
use crate::sched::JobId;
use nowmp_ckpt::{migration_image_bytes, Checkpoint};
use nowmp_net::{CostModel, Gpid, HostId, NetModel, Network};
use nowmp_tmk::system::RegionRunner;
use nowmp_tmk::{CollectiveConfig, DataPlaneConfig, DsmConfig, DsmSystem, MasterCtl, TmkCtx};
use nowmp_util::{Clock, JoinHandle};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Where pages held only by leavers go (§4.2 vs the §7 future-work idea).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaveStrategy {
    /// The master fetches them and becomes owner (the paper's scheme).
    ViaMaster,
    /// Scatter them across survivors (ablation: removes the master-link
    /// bottleneck the paper names as future work).
    Scatter,
}

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
    /// Leaver-page sink.
    pub leave_strategy: LeaveStrategy,
    /// Default grace period for leaves that don't specify one.
    pub default_grace: Option<Duration>,
    /// Write a checkpoint every `k` forks (None = only on request).
    pub ckpt_every_forks: Option<u64>,
    /// Where checkpoints go.
    pub ckpt_path: Option<PathBuf>,
    /// Urgent migration prefers a free host over multiplexing.
    pub migrate_prefer_free: bool,
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
    /// stamps every [`EventLog`] entry and keys the DSM page space.
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

    /// Builder: tweak the DSM protocol configuration in place
    /// (single-knob ablations: `tune_dsm(|d| d.lazy_diffs = true)`).
    pub fn tune_dsm(mut self, f: impl FnOnce(&mut DsmConfig)) -> Self {
        f(&mut self.dsm);
        self
    }

    /// Builder: set the collective shapes (fork dissemination, join
    /// reduction, barrier release).
    pub fn with_collectives(mut self, collectives: CollectiveConfig) -> Self {
        self.dsm.collectives = collectives;
        self
    }

    /// Builder: set the data-plane overlap levers.
    pub fn with_dataplane(mut self, dataplane: DataPlaneConfig) -> Self {
        self.dsm.dataplane = dataplane;
        self
    }

    /// Builder: set the pid reassignment policy.
    pub fn with_reassign(mut self, reassign: ReassignPolicy) -> Self {
        self.reassign = reassign;
        self
    }

    /// Builder: set the leaver-page sink.
    pub fn with_leave_strategy(mut self, leave_strategy: LeaveStrategy) -> Self {
        self.leave_strategy = leave_strategy;
        self
    }

    /// Builder: set the default grace period.
    pub fn with_default_grace(mut self, grace: Option<Duration>) -> Self {
        self.default_grace = grace;
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

    /// Builder: urgent migration prefers a free host over multiplexing.
    pub fn with_migrate_prefer_free(mut self, on: bool) -> Self {
        self.migrate_prefer_free = on;
        self
    }

    /// Builder: label this cluster as `job` under the multi-tenant
    /// scheduler (tags the event log, keys the DSM page space).
    pub fn with_job(mut self, job: JobId) -> Self {
        self.job = Some(job);
        self.dsm.job = job.0;
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
            leave_strategy: LeaveStrategy::ViaMaster,
            default_grace: Some(Duration::from_secs(3)),
            ckpt_every_forks: None,
            ckpt_path: None,
            migrate_prefer_free: false,
            clock: Clock::from_env(),
            adaptive: true,
            master_state_provider: None,
            job: None,
        }
    }

    /// The paper's testbed shape: 8 hosts, 8 processes, paper network
    /// model, 4 KB pages, 3 s grace.
    pub fn paper_1999() -> Self {
        ClusterConfig {
            hosts: 8,
            initial_procs: 8,
            net_model: NetModel::paper_1999(),
            cost_model: CostModel::paper_1999(),
            dsm: DsmConfig::default_4k(),
            reassign: ReassignPolicy::CompactKeepOrder,
            leave_strategy: LeaveStrategy::ViaMaster,
            default_grace: Some(Duration::from_secs(3)),
            ckpt_every_forks: None,
            ckpt_path: None,
            migrate_prefer_free: false,
            clock: Clock::from_env(),
            adaptive: true,
            master_state_provider: None,
            job: None,
        }
    }
}

/// Errors from adaptation requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdaptError {
    /// No unoccupied workstation to spawn on.
    NoFreeHost,
    /// The process is not a current team member.
    NotInTeam(Gpid),
    /// §4.4: "the master node … currently cannot perform a normal leave".
    MasterCannotLeave,
    /// A leave for this process is already pending.
    AlreadyLeaving(Gpid),
}

impl std::fmt::Display for AdaptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaptError::NoFreeHost => write!(f, "no free workstation available"),
            AdaptError::NotInTeam(g) => write!(f, "{g} is not a team member"),
            AdaptError::MasterCannotLeave => write!(f, "the master cannot leave"),
            AdaptError::AlreadyLeaving(g) => write!(f, "{g} already has a pending leave"),
        }
    }
}

impl std::error::Error for AdaptError {}

/// State shared with timer threads and event sources.
pub struct ClusterShared {
    sys: Arc<DsmSystem>,
    net: Network,
    clock: Clock,
    master_gpid: Gpid,
    hosts: Mutex<HostPool>,
    events: Mutex<VecDeque<AdaptEvent>>,
    pending_leaves: Mutex<Vec<Arc<PendingLeave>>>,
    pending_joins: Mutex<HashMap<Gpid, HostId>>,
    team_view: Mutex<Vec<Gpid>>,
    freeze: Arc<Freeze>,
    log: EventLog,
    migrate_prefer_free: bool,
    page_size: usize,
}

impl ClusterShared {
    /// The event log.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// The simulation's time source.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The underlying DSM system (diagnostics, migration sizing).
    pub fn dsm_system(&self) -> &Arc<DsmSystem> {
        &self.sys
    }

    /// Current team member list (index = pid).
    pub fn team_view(&self) -> Vec<Gpid> {
        self.team_view.lock().clone()
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
        self.hosts.lock().host_of(gpid)
    }

    /// Join: reserve a free workstation, spawn the process
    /// (asynchronously: the spawn delay and connection setup overlap the
    /// ongoing computation), and let it enter at a later adaptation
    /// point. Returns the reserved host and the spawner thread, which
    /// yields the new process once it exists.
    fn join_impl(self: &Arc<Self>) -> Result<(HostId, JoinHandle<Gpid>), AdaptError> {
        let host = self
            .hosts
            .lock()
            .reserve_free()
            .ok_or(AdaptError::NoFreeHost)?;
        self.log.push(EventKind::JoinRequested { host });
        let me = Arc::clone(self);
        let spawner = self.clock.spawn(format!("join-{host}"), move || {
            // Process creation cost (0.6–0.8 s on the paper's testbed),
            // charged off the critical path.
            me.net.charge_spawn();
            let mut hello = me.team_view();
            // Connect to slaves first, then the master (§4.1).
            hello.retain(|&g| g != me.master_gpid);
            hello.push(me.master_gpid);
            let gpid = me.sys.spawn_worker(host, me.master_gpid, hello);
            me.pending_joins.lock().insert(gpid, host);
            me.log.push(EventKind::JoinReady { gpid });
            gpid
        });
        Ok((host, spawner))
    }

    /// Leave for `gpid` with the given grace period. If the grace
    /// period expires before the next adaptation point, the process is
    /// urgently migrated.
    fn leave_impl(self: &Arc<Self>, gpid: Gpid, grace: Option<Duration>) -> Result<(), AdaptError> {
        if gpid == self.master_gpid {
            return Err(AdaptError::MasterCannotLeave);
        }
        if !self.team_view.lock().contains(&gpid) {
            return Err(AdaptError::NotInTeam(gpid));
        }
        {
            let pl = self.pending_leaves.lock();
            if pl
                .iter()
                .any(|p| p.gpid == gpid && p.phase() != LeavePhase::Done)
            {
                return Err(AdaptError::AlreadyLeaving(gpid));
            }
        }
        self.log.push(EventKind::LeaveRequested { gpid, grace });
        let pending = Arc::new(PendingLeave::new(gpid, grace));
        // The grace period is a waitable, cancellable deadline on the
        // cluster clock: under a virtual clock it only fires if the
        // whole simulation is otherwise idle until it — exactly the
        // paper's race between the timer and the next adaptation point,
        // minus the wall time. Arm it *before* publishing the pending
        // leave, so an adaptation point that claims the leave
        // immediately always finds a timer to disarm.
        let alarm = grace.map(|g| {
            let a = self.clock.alarm(g);
            pending.arm(a.clone());
            a
        });
        self.pending_leaves.lock().push(Arc::clone(&pending));
        if let Some(alarm) = alarm {
            let me = Arc::clone(self);
            self.clock.spawn(format!("grace-{gpid}"), move || {
                if alarm.wait() && pending.claim_urgent() {
                    me.urgent_migrate(pending.gpid);
                }
            });
        }
        Ok(())
    }

    /// Queue a checkpoint for the next adaptation point.
    fn checkpoint_impl(&self) {
        self.events.lock().push_back(AdaptEvent::Checkpoint);
    }

    /// Urgent leave (Figure 2c): freeze the computation, stream the
    /// process image to another workstation, re-home the process there
    /// (multiplexing if occupied). The team shrinks at the *next*
    /// adaptation point, exactly as in the paper.
    pub fn urgent_migrate(&self, gpid: Gpid) {
        let from = self
            .net
            .host_of(gpid)
            .expect("urgent migration target vanished");
        let to = {
            let hosts = self.hosts.lock();
            let free = if self.migrate_prefer_free {
                hosts.free_host()
            } else {
                None
            };
            free.or_else(|| hosts.least_loaded_excluding(from))
                .expect("no workstation to migrate to")
        };
        let resident = self
            .sys
            .core_of(gpid)
            .map(|c| c.lock().pages.count(|m| m.data.is_some()))
            .unwrap_or(0);
        let image = migration_image_bytes(resident, self.page_size);
        self.log.push(EventKind::UrgentMigrationStart {
            gpid,
            from,
            to,
            image_bytes: image,
        });

        // "All processes then wait for the completion of the migration."
        self.freeze.freeze();
        let t0 = self.clock.now();
        self.net.charge_spawn(); // create the new process on the target host
        self.net.charge_migration(from, to, image); // stream heap + stack
        self.net
            .relabel(gpid, to)
            .expect("relabel migrating process");
        {
            let mut hosts = self.hosts.lock();
            hosts.vacate(from, gpid);
            hosts.occupy(to, gpid);
        }
        self.freeze.thaw();
        self.log.push(EventKind::UrgentMigrationDone {
            gpid,
            took: self.clock.elapsed_since(t0),
        });
    }

    /// Migrate any team member — including the master — to `to` right
    /// now (§4.4: "the master node, which executes the master process,
    /// can migrate but it currently cannot perform a normal leave").
    /// The process keeps its identity and team rank; only its
    /// workstation changes, with the full image-transfer cost charged.
    pub fn migrate_now(&self, gpid: Gpid, to: HostId) -> Result<(), AdaptError> {
        if !self.team_view.lock().contains(&gpid) {
            return Err(AdaptError::NotInTeam(gpid));
        }
        let from = self.net.host_of(gpid).ok_or(AdaptError::NotInTeam(gpid))?;
        if from == to {
            return Ok(());
        }
        let resident = self
            .sys
            .core_of(gpid)
            .map(|c| c.lock().pages.count(|m| m.data.is_some()))
            .unwrap_or(0);
        let image = migration_image_bytes(resident, self.page_size);
        self.log.push(EventKind::UrgentMigrationStart {
            gpid,
            from,
            to,
            image_bytes: image,
        });
        self.freeze.freeze();
        let t0 = self.clock.now();
        self.net.charge_spawn();
        self.net.charge_migration(from, to, image);
        self.net
            .relabel(gpid, to)
            .expect("relabel migrating process");
        {
            let mut hosts = self.hosts.lock();
            hosts.vacate(from, gpid);
            hosts.occupy(to, gpid);
        }
        self.freeze.thaw();
        self.log.push(EventKind::UrgentMigrationDone {
            gpid,
            took: self.clock.elapsed_since(t0),
        });
        Ok(())
    }

    /// Force the urgent path right now (deterministic tests/benches).
    pub fn force_urgent(&self, gpid: Gpid) -> bool {
        let pending = {
            let pl = self.pending_leaves.lock();
            pl.iter()
                .find(|p| p.gpid == gpid && p.phase() == LeavePhase::Pending)
                .cloned()
        };
        match pending {
            Some(p) if p.claim_urgent() => {
                p.disarm(); // the timer lost; withdraw its deadline
                self.urgent_migrate(gpid);
                true
            }
            _ => false,
        }
    }
}

/// Selects which team member an adaptation verb applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaveSel {
    /// By current team rank (resolved against the team view at request
    /// time — ranks shift at adaptation points).
    Pid(u16),
    /// By global process id (stable across reassignment).
    Gpid(Gpid),
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
        let gpid = match sel {
            LeaveSel::Gpid(g) => g,
            LeaveSel::Pid(pid) => {
                let team = self.shared.team_view.lock();
                *team
                    .get(pid as usize)
                    .ok_or(AdaptError::NotInTeam(Gpid(0)))?
            }
        };
        self.shared.leave_impl(gpid, grace)?;
        Ok(gpid)
    }

    /// Request a checkpoint at the next adaptation point.
    pub fn checkpoint(&self) {
        self.shared.checkpoint_impl();
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
    last_ckpt_fork: u64,
    blob_provider: Option<Arc<dyn Fn() -> Vec<u8> + Send + Sync>>,
    /// The OpenMP "dynamic adjustment" switch (§4.4): when off, adapt
    /// events stay queued and the team never changes.
    adaptive: bool,
}

impl Cluster {
    /// Bring up a cluster: network, master, initial workers, team.
    pub fn new(cfg: ClusterConfig, runner: Arc<dyn RegionRunner>) -> Self {
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

        let mut hosts = HostPool::new(cfg.hosts);
        for h in 0..cfg.hosts {
            let h = HostId(h as u16);
            hosts.set_speed(h, cfg.cost_model.effective_speed(h));
        }
        hosts.occupy(HostId(0), master_gpid);
        let mut workers = Vec::new();
        for i in 1..cfg.initial_procs {
            let mut hello: Vec<Gpid> = workers.clone();
            hello.push(master_gpid);
            let g = sys.spawn_worker(HostId(i as u16), master_gpid, hello);
            hosts.occupy(HostId(i as u16), g);
            workers.push(g);
        }
        master.init_team(&workers);

        let mut team = vec![master_gpid];
        team.extend_from_slice(&workers);
        let page_size = cfg.dsm.page_size;
        let log = match cfg.job {
            Some(job) => EventLog::with_clock_for_job(clock.clone(), job),
            None => EventLog::with_clock(clock.clone()),
        };
        let shared = Arc::new(ClusterShared {
            sys,
            net,
            log,
            clock,
            master_gpid,
            hosts: Mutex::new(hosts),
            events: Mutex::new(VecDeque::new()),
            pending_leaves: Mutex::new(Vec::new()),
            pending_joins: Mutex::new(HashMap::new()),
            team_view: Mutex::new(team),
            freeze,
            migrate_prefer_free: cfg.migrate_prefer_free,
            page_size,
        });
        let blob_provider = cfg.master_state_provider.clone();
        let adaptive = cfg.adaptive;
        Cluster {
            shared,
            master,
            cfg,
            last_ckpt_fork: 0,
            blob_provider,
            adaptive,
        }
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
        // Bring up WITHOUT init_team first: the master must hold the
        // image before the workers learn the directory.
        let mut cluster = {
            // Same bring-up as `new`, but import the image between
            // master start and team formation.
            let cfg2 = cfg.clone();
            assert!(cfg2.initial_procs >= 1);
            let clock = cfg2.clock.clone();
            let net = Network::with_clock(
                cfg2.hosts,
                1,
                cfg2.net_model.clone(),
                cfg2.cost_model.clone(),
                clock.clone(),
            );
            let freeze = Freeze::new(clock.clone());
            let mut dsm = cfg2.dsm.clone();
            dsm.throttle = Some(freeze.hook());
            let sys = DsmSystem::new(net.clone(), dsm, runner);
            let mut master = sys.start_master(HostId(0));
            let master_gpid = master.gpid();
            master.import_image(&ckpt.image);

            let mut hosts = HostPool::new(cfg2.hosts);
            for h in 0..cfg2.hosts {
                let h = HostId(h as u16);
                hosts.set_speed(h, cfg2.cost_model.effective_speed(h));
            }
            hosts.occupy(HostId(0), master_gpid);
            let mut workers = Vec::new();
            for i in 1..cfg2.initial_procs {
                let mut hello: Vec<Gpid> = workers.clone();
                hello.push(master_gpid);
                let g = sys.spawn_worker(HostId(i as u16), master_gpid, hello);
                hosts.occupy(HostId(i as u16), g);
                workers.push(g);
            }
            master.init_team(&workers);
            let mut team = vec![master_gpid];
            team.extend_from_slice(&workers);
            let page_size = cfg2.dsm.page_size;
            let log = match cfg2.job {
                Some(job) => EventLog::with_clock_for_job(clock.clone(), job),
                None => EventLog::with_clock(clock.clone()),
            };
            let shared = Arc::new(ClusterShared {
                sys,
                net,
                log,
                clock,
                master_gpid,
                hosts: Mutex::new(hosts),
                events: Mutex::new(VecDeque::new()),
                pending_leaves: Mutex::new(Vec::new()),
                pending_joins: Mutex::new(HashMap::new()),
                team_view: Mutex::new(team),
                freeze,
                migrate_prefer_free: cfg2.migrate_prefer_free,
                page_size,
            });
            let blob_provider = cfg2.master_state_provider.clone();
            let adaptive = cfg2.adaptive;
            Cluster {
                shared,
                master,
                cfg: cfg2,
                last_ckpt_fork: ckpt.image.fork_no,
                blob_provider,
                adaptive,
            }
        };
        cluster.last_ckpt_fork = ckpt.image.fork_no;
        Ok((cluster, ckpt.master_blob))
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

    /// Current team size.
    pub fn nprocs(&self) -> usize {
        self.shared.team_view.lock().len()
    }

    /// Current team.
    pub fn team(&self) -> Vec<Gpid> {
        self.shared.team_view()
    }

    /// DSM statistics.
    pub fn dsm_stats(&self) -> nowmp_tmk::DsmSnapshot {
        self.master.system().stats().snapshot()
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
        // `wait_ready` consumed the announcement; replay it for the
        // adaptation point.
        self.shared
            .events
            .lock()
            .push_back(AdaptEvent::JoinReady { gpid, host });
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
        self.adaptive = on;
    }

    /// Is adaptivity enabled?
    pub fn is_adaptive(&self) -> bool {
        self.adaptive
    }

    /// Process pending adapt events (the paper's adaptation point,
    /// between `Tmk_join` and the next `Tmk_fork`).
    pub fn adaptation_point(&mut self) {
        if !self.adaptive {
            return;
        }
        // Joins whose processes have announced readiness.
        let mut joins: Vec<(Gpid, HostId)> = Vec::new();
        for gpid in self.master.drain_ready_joins() {
            if let Some(host) = self.shared.pending_joins.lock().remove(&gpid) {
                joins.push((gpid, host));
            }
        }
        {
            // Plus any replayed by join_ready / external sources.
            let mut ev = self.shared.events.lock();
            let mut rest = VecDeque::new();
            while let Some(e) = ev.pop_front() {
                match e {
                    AdaptEvent::JoinReady { gpid, host } => {
                        self.shared.pending_joins.lock().remove(&gpid);
                        joins.push((gpid, host));
                    }
                    other => rest.push_back(other),
                }
            }
            *ev = rest;
        }

        // Leaves: claim pending ones; include urgent-migrated ones.
        let mut leaves: Vec<Arc<PendingLeave>> = Vec::new();
        {
            let pl = self.shared.pending_leaves.lock();
            for p in pl.iter() {
                if p.claim_normal() || p.phase() == LeavePhase::Urgent {
                    // Either way the race is decided: withdraw the
                    // grace timer and its pending deadline.
                    p.disarm();
                    leaves.push(Arc::clone(p));
                }
            }
        }

        // Checkpoint requests / policy.
        let mut ckpt_due = {
            let mut ev = self.shared.events.lock();
            let before = ev.len();
            ev.retain(|e| !matches!(e, AdaptEvent::Checkpoint));
            before != ev.len()
        };
        if let Some(k) = self.cfg.ckpt_every_forks {
            if self.master.fork_no() >= self.last_ckpt_fork + k {
                ckpt_due = true;
            }
        }

        if joins.is_empty() && leaves.is_empty() && !ckpt_due && !self.master.gc_due() {
            return;
        }

        let t0 = self.shared.clock.now();
        let net_before = self.shared.net.stats();

        // GC with leavers avoided; their pages re-home per strategy.
        let avoid: HashSet<Gpid> = leaves.iter().map(|p| p.gpid).collect();
        let old_members = self.master.team().members.clone();
        let survivors: Vec<Gpid> = old_members
            .iter()
            .copied()
            .filter(|g| !avoid.contains(g))
            .collect();
        let outcome = match self.cfg.leave_strategy {
            LeaveStrategy::ViaMaster => self.master.run_gc(&avoid, None),
            LeaveStrategy::Scatter => self.master.run_gc(&avoid, Some(&survivors)),
        };

        // New team.
        let leaver_gpids: Vec<Gpid> = leaves.iter().map(|p| p.gpid).collect();
        let joiner_gpids: Vec<Gpid> = joins.iter().map(|(g, _)| *g).collect();
        let members = reassign(
            self.cfg.reassign,
            &old_members,
            &leaver_gpids,
            &joiner_gpids,
        );
        // Record leaver hosts before they disappear.
        let leaver_hosts: Vec<(Gpid, Option<HostId>)> = leaver_gpids
            .iter()
            .map(|&g| (g, self.shared.hosts.lock().host_of(g)))
            .collect();

        self.master.commit_team(members.clone(), &outcome);

        // Bookkeeping.
        {
            let mut hosts = self.shared.hosts.lock();
            for (g, h) in &leaver_hosts {
                if let Some(h) = h {
                    hosts.vacate(*h, *g);
                }
            }
            for (g, h) in &joins {
                hosts.occupy(*h, *g);
                hosts.unreserve(*h);
            }
        }
        for p in &leaves {
            self.shared
                .log
                .push(EventKind::NormalLeave { gpid: p.gpid });
            p.finish();
        }
        self.shared
            .pending_leaves
            .lock()
            .retain(|p| p.phase() != LeavePhase::Done);
        for (g, _) in &joins {
            let pid = members.iter().position(|m| m == g).unwrap_or(0) as u16;
            self.shared
                .log
                .push(EventKind::JoinCommitted { gpid: *g, pid });
        }
        *self.shared.team_view.lock() = members.clone();

        // Checkpoint (paper §4.3: GC already ran; collect + dump).
        if ckpt_due {
            self.write_checkpoint();
        }

        let net_after = self.shared.net.stats();
        let delta = net_after.since(&net_before);
        self.shared.log.push(EventKind::Adaptation {
            fork_no: self.master.fork_no(),
            joins: joins.len(),
            leaves: leaves.len(),
            took: self.shared.clock.elapsed_since(t0),
            bytes_moved: delta.total_bytes,
            max_link_bytes: delta
                .links
                .iter()
                .map(|l| l.bytes_total())
                .max()
                .unwrap_or(0),
            nprocs: members.len(),
        });
    }

    fn write_checkpoint(&mut self) {
        let t0 = self.shared.clock.now();
        self.master.collect_all_pages();
        let image = self.master.export_image();
        let blob = self.blob_provider.as_ref().map(|f| f()).unwrap_or_default();
        let ckpt = Checkpoint {
            image,
            master_blob: blob,
        };
        let bytes = match &self.cfg.ckpt_path {
            Some(path) => ckpt.write_file(path).expect("checkpoint write failed"),
            None => ckpt.to_bytes().len() as u64, // sized but not persisted
        };
        self.last_ckpt_fork = self.master.fork_no();
        self.shared.log.push(EventKind::Checkpoint {
            bytes,
            took: self.shared.clock.elapsed_since(t0),
        });
    }

    /// Write a checkpoint immediately (the caller is at an adaptation
    /// point by construction — between `parallel` calls).
    pub fn checkpoint_now(&mut self) {
        // GC first, as §4.3 prescribes.
        let outcome = self.master.run_gc(&HashSet::new(), None);
        let members = self.master.team().members.clone();
        self.master.commit_team(members, &outcome);
        self.write_checkpoint();
    }

    /// Shut down the whole system.
    pub fn shutdown(self) {
        self.master.shutdown();
    }
}
