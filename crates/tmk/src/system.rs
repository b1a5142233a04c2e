//! System orchestration: process bring-up, fork-join, GC rounds, team
//! commits, checkpoint images.
//!
//! * [`DsmSystem`] owns the process threads (one application + one
//!   service thread per DSM process) over a [`nowmp_net::Network`];
//! * [`MasterCtl`] is the master process's handle: sequential-phase
//!   shared memory access, `parallel()` (the `Tmk_fork`/`Tmk_join`
//!   pair), and the **adaptation SPI** used by the adaptive layer
//!   (`run_gc`, `commit_team`, `spawn_worker` bridging, checkpoint
//!   export/import) — the paper's "purely TreadMarks-internal" changes
//!   surface here as an explicit internal API;
//! * [`RegionRunner`] is the compiled application: region id → outlined
//!   procedure (what SUIF emits from each OpenMP parallel construct).

use crate::config::DsmConfig;
use crate::core::ProcCore;
use crate::ctx::{call_all, decode, CtrlBuf, TeamLink, TmkCtx};
use crate::gc::{compute_gc_plan, page_writes, GcPlan};
use crate::msg::{DirRle, Msg, RegEntry};
use crate::page::Wn;
use crate::records::Record;
use crate::service::{service_loop, Ctrl, Dropped};
use crate::shm::{Allocator, Registry};
use crate::stats::{DsmStats, ProcLedger};
use crate::tree::{Shape, ShapeBook};
use crate::types::{Addr, Epoch, PageId, Pid, Team, Vc};
use nowmp_net::{Endpoint, Gpid, HostId, NetError, Network};
use nowmp_util::{waiting_for, Cause, MailboxReceiver};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

/// The compiled application: dispatches outlined parallel regions.
///
/// This is the seam where the SUIF OpenMP compiler would plug in; the
/// `nowmp-omp` crate implements it from registered closures.
pub trait RegionRunner: Send + Sync + 'static {
    /// Execute region `region` with the context's parameters.
    fn run(&self, region: u32, ctx: &mut TmkCtx);
}

/// A no-op runner (for systems driven purely through the SPI in tests).
pub struct NullRunner;

impl RegionRunner for NullRunner {
    fn run(&self, _region: u32, _ctx: &mut TmkCtx) {}
}

/// Result of a GC round, consumed by the adaptive layer.
#[derive(Debug, Default)]
pub struct GcOutcome {
    /// Owner per page after GC.
    pub dir: Vec<Gpid>,
    /// Complete holders per page (owner first; may include leavers).
    pub complete: Vec<Vec<Gpid>>,
    /// Pages each process must drop at commit.
    pub drops: BTreeMap<Gpid, Vec<PageId>>,
    /// Pages fetched during the completion phase, per process.
    pub fetch_pages: BTreeMap<Gpid, usize>,
}

/// Shared bookkeeping for one DSM deployment.
pub struct DsmSystem {
    net: Network,
    cfg: DsmConfig,
    stats: Arc<DsmStats>,
    runner: Arc<dyn RegionRunner>,
    threads: Mutex<Vec<nowmp_util::JoinHandle<()>>>,
    cores: Mutex<HashMap<Gpid, Arc<Mutex<ProcCore>>>>,
    /// Collective shapes per team size, derived from the network's
    /// models on first use.
    shapes: Arc<ShapeBook>,
}

impl DsmSystem {
    /// Create a system over `net` running `runner`'s regions.
    pub fn new(net: Network, cfg: DsmConfig, runner: Arc<dyn RegionRunner>) -> Arc<Self> {
        cfg.validate();
        let shapes = Arc::new(ShapeBook::new(
            net.model().clone(),
            net.cost_model().clone(),
            cfg.collectives,
        ));
        Arc::new(DsmSystem {
            net,
            cfg,
            stats: DsmStats::new_shared(),
            runner,
            threads: Mutex::new(Vec::new()),
            cores: Mutex::new(HashMap::new()),
            shapes,
        })
    }

    /// What a process's context needs for team-wide collectives: the
    /// control buffer over `ctrl_rx`, and the shapes.
    fn link(&self, ctrl_rx: MailboxReceiver<Ctrl>) -> TeamLink {
        TeamLink {
            ctrl: CtrlBuf::new(ctrl_rx),
            shapes: Arc::clone(&self.shapes),
        }
    }

    /// The underlying network.
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// Shared DSM counters.
    pub fn stats(&self) -> &Arc<DsmStats> {
        &self.stats
    }

    /// Every process's share of the clock's ledger, in gpid order
    /// ([`ProcLedger::split`]).
    pub fn ledger(&self) -> Vec<ProcLedger> {
        ProcLedger::split(&self.net.clock().ledger())
    }

    /// The configuration.
    pub fn cfg(&self) -> &DsmConfig {
        &self.cfg
    }

    /// Simulation SPI: direct access to a process's core (the adaptive
    /// layer uses it to size migration images; a distributed deployment
    /// would message instead).
    pub fn core_of(&self, gpid: Gpid) -> Option<Arc<Mutex<ProcCore>>> {
        self.cores.lock().get(&gpid).cloned()
    }

    /// Start the master process on `host`; returns its control handle.
    /// Call once per system.
    pub fn start_master(self: &Arc<Self>, host: HostId) -> MasterCtl {
        let endpoint = Arc::new(self.net.register(host));
        let gpid = endpoint.gpid();
        let core = Arc::new(Mutex::new(ProcCore::new(
            self.cfg.clone(),
            gpid,
            Arc::clone(&self.stats),
            gpid,
        )));
        self.cores.lock().insert(gpid, Arc::clone(&core));
        let ctrl_rx = self.spawn_service(&endpoint, &core);
        let ctx = TmkCtx::new(
            Arc::clone(&core),
            Arc::clone(&endpoint),
            Some(self.link(ctrl_rx)),
        );
        let spp = self.cfg.slots_per_page();
        // The calling thread *is* the master process's application
        // thread: register it so virtual time holds still while it
        // computes between forks (otherwise a pending grace timer could
        // fire "during" the master's zero-virtual-cost compute).
        let clock_participant = self.net.clock().participant_as(format!("app-{gpid}"));
        MasterCtl {
            sys: Arc::clone(self),
            endpoint,
            core,
            ctx,
            allocator: Allocator::new(spp),
            fork_no: 0,
            last_fork_vc: Vc::new(1),
            sent_reg_ver: 0,
            dir: Vec::new(),
            _clock_participant: clock_participant,
        }
    }

    /// Spawn a worker (embryo) process on `host`. It greets `hello_to`
    /// (existing processes), announces readiness to `master`, then waits
    /// for `JoinInit` — the asynchronous connection setup of §4.1 that
    /// overlaps the ongoing computation.
    pub fn spawn_worker(self: &Arc<Self>, host: HostId, master: Gpid, hello_to: Vec<Gpid>) -> Gpid {
        let endpoint = Arc::new(self.net.register(host));
        let gpid = endpoint.gpid();
        let core = Arc::new(Mutex::new(ProcCore::new(
            self.cfg.clone(),
            gpid,
            Arc::clone(&self.stats),
            master,
        )));
        self.cores.lock().insert(gpid, Arc::clone(&core));
        let ctrl_rx = self.spawn_service(&endpoint, &core);
        let sys = Arc::clone(self);
        let h = self.net.clock().spawn(format!("app-{gpid}"), move || {
            worker_main(sys, endpoint, core, ctrl_rx, master, hello_to)
        });
        self.threads.lock().push(h);
        gpid
    }

    /// Start a process's service thread; returns the control mailbox it
    /// forwards to. Like every simulation thread it is on the clock's
    /// books from this call on, and stays joinable through it.
    fn spawn_service(
        &self,
        endpoint: &Arc<Endpoint>,
        core: &Arc<Mutex<ProcCore>>,
    ) -> MailboxReceiver<Ctrl> {
        let (ctrl_tx, ctrl_rx) = nowmp_util::mailbox(self.net.clock());
        let (ep, core) = (Arc::clone(endpoint), Arc::clone(core));
        let h = self
            .net
            .clock()
            .spawn(format!("svc-{}", endpoint.gpid()), move || {
                service_loop(ep, core, ctrl_tx)
            });
        self.threads.lock().push(h);
        ctrl_rx
    }

    /// Wait for every spawned thread to finish (after shutdown); the
    /// wait is visible to the simulation clock.
    pub fn join_threads(&self) {
        let handles: Vec<_> = self.threads.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Send to each child of rank `pid` in `shape`, in send order, with
/// `send` (true: delivered). A child whose endpoint is gone — a relay
/// being dropped or reassigned mid-flight — is *adopted*: its own
/// children join the end of the list, so its subtree still hears the
/// message. Returns the number of messages delivered.
pub(crate) fn relay_adopting(
    shape: &Shape,
    pid: Pid,
    mut send: impl FnMut(usize) -> bool,
) -> usize {
    let mut targets = shape.children(pid as usize).to_vec();
    let mut sent = 0;
    let mut i = 0;
    while let Some(&child) = targets.get(i) {
        i += 1;
        if send(child) {
            sent += 1;
        } else {
            targets.extend_from_slice(shape.children(child));
        }
    }
    sent
}

/// A one-way delivery of `bytes` to a team rank, for
/// [`relay_adopting`]: false when the rank's endpoint is gone.
pub(crate) fn send_to<'a>(
    endpoint: &'a Endpoint,
    team: &'a Team,
    bytes: bytes::Bytes,
) -> impl FnMut(usize) -> bool + 'a {
    move |child| {
        let gpid = team.gpid(child as Pid);
        let ok = endpoint.send(gpid, bytes.clone()).is_ok();
        if !ok {
            // Loud by design: no team member is ever legitimately
            // unregistered mid-fork (leaves commit at adaptation
            // points), so an adoption in the wild is either the
            // dropped-relay race this guards or a protocol bug worth
            // seeing.
            eprintln!(
                "[nowmp] fork relay: rank {child} ({gpid}) unreachable; adopting its subtree"
            );
        }
        ok
    }
}

/// A `JoinInit` call to a team rank, for [`relay_adopting`]: true once
/// it acked (a relay acks only after its whole subtree has), false when
/// its endpoint is gone.
fn call_acked<'a>(
    endpoint: &'a Endpoint,
    team: &'a Team,
    bytes: &'a bytes::Bytes,
    cfg: &'a DsmConfig,
) -> impl FnMut(usize) -> bool + 'a {
    move |child| match endpoint.call_deadline(
        team.gpid(child as Pid),
        bytes.clone(),
        cfg.call_timeout,
    ) {
        Ok(rep) => {
            assert_eq!(decode(&rep, team.gpid(child as Pid), cfg), Msg::Ack);
            true
        }
        Err(NetError::Unknown(_)) => false,
        Err(e) => panic!("JoinInit relay to rank {child} failed: {e}"),
    }
}

/// Forward an encoded one-way broadcast (`Fork`, `BarrierRelease`) to
/// every child of rank `pid` in the fork `shape` (see [`crate::tree`]),
/// in send order, adopting vanished children (the fork then completes
/// through the ordinary grace-timer/adaptation path for the vanished
/// member). Returns the number of messages actually sent.
pub fn relay_tree_send(
    endpoint: &Endpoint,
    team: &Team,
    shape: &Shape,
    pid: Pid,
    bytes: &bytes::Bytes,
) -> usize {
    relay_adopting(shape, pid, send_to(endpoint, team, bytes.clone()))
}

/// Charge one relay overhead (an inbound stack traversal) to the clock.
pub(crate) fn charge_relay(endpoint: &Endpoint) {
    let d = endpoint.cost().relay_time();
    if !d.is_zero() {
        endpoint.clock().sleep(d);
    }
}

/// Pass a broadcast rank `pid` received (`Fork`, `JoinInit`,
/// `BarrierRelease`) verbatim to its children in `shape`, if it has any
/// (a star's leaves have none): charge one relay overhead, deliver with
/// `send`, adopting vanished children, and count the deliveries.
pub(crate) fn relay_onward(
    endpoint: &Endpoint,
    shape: &Shape,
    pid: Pid,
    counter: &AtomicU64,
    send: impl FnMut(usize) -> bool,
) {
    if !shape.children(pid as usize).is_empty() {
        charge_relay(endpoint);
        DsmStats::add(counter, relay_adopting(shape, pid, send) as u64);
    }
}

/// Collect the `JoinArrive` aggregates of rank `my`'s subtree in the
/// reduce `shape` (all of it but `my`), handing each one's sender rank,
/// clock, records and `reduction` partials to `absorb`: the one loop
/// that collects arrivals, at a barrier and at the join, at the master
/// and at every interior rank ([`TmkCtx::arrive`]). An arrival of
/// another epoch than `epoch` is dropped and counted in `stats`
/// ([`DsmStats::stale_dropped`]). The sender pid of an aggregate
/// identifies the contiguous rank range it covers
/// ([`Shape::subtree_size`]), so coverage needs no extra wire fields.
///
/// Adoption mirrors [`relay_tree_send`]: a sender whose parent is gone
/// escalates to the grandparent (see [`TmkCtx::arrive`]), so an
/// aggregate that *skipped* dead intermediate ranks tells us to stop
/// waiting for them and collect their escalated orphans instead (the
/// vanished members themselves resolve through the ordinary grace-timer
/// / urgent-migration path, as on the fork side).
pub(crate) fn collect_joins(
    ctrl: &mut CtrlBuf,
    shape: &Shape,
    my: usize,
    epoch: Epoch,
    timeout: Duration,
    stats: &DsmStats,
    mut absorb: impl FnMut(Pid, Vc, Vec<Record>, Vec<f64>),
) {
    let mut remaining: HashSet<usize> = (my + 1..my + shape.subtree_size(my)).collect();
    while !remaining.is_empty() {
        let c = ctrl
            .recv_where(timeout, |c| matches!(&c.msg, Msg::JoinArrive { .. }))
            .expect("arrival aggregate lost");
        if let Msg::JoinArrive {
            epoch: e,
            pid,
            vc,
            records,
            partials,
        } = c.msg
        {
            if e != epoch {
                Dropped::Stale.count(stats);
                continue;
            }
            let from = pid as usize;
            for r in from..from + shape.subtree_size(from) {
                remaining.remove(&r);
            }
            // Every tree ancestor of `from` strictly below us was
            // unreachable when it sent (the sender tried each in turn).
            let mut a = shape.parent(from);
            while a != my && a != 0 {
                if remaining.remove(&a) {
                    eprintln!(
                        "[nowmp] arrival: rank {my} adopts subtree of vanished aggregator {a}"
                    );
                }
                a = shape.parent(a);
            }
            absorb(pid, vc, records, partials);
        }
    }
}

/// The `reduction` partials a join collects: each aggregate's run of
/// its contiguous rank range, keyed by its first rank.
#[derive(Default)]
pub(crate) struct Partials(Vec<(Pid, Vec<f64>)>);

impl Partials {
    /// Rank `from`'s run (nothing when it is empty: no clause).
    pub(crate) fn add(&mut self, from: Pid, run: Vec<f64>) {
        if !run.is_empty() {
            self.0.push((from, run));
        }
    }

    /// Every run concatenated in pid order. The ranges are disjoint,
    /// so ordering the runs by their first rank orders the partials.
    pub(crate) fn in_pid_order(mut self) -> Vec<f64> {
        self.0.sort_unstable_by_key(|(from, _)| *from);
        self.0.into_iter().flat_map(|(_, run)| run).collect()
    }
}

/// GC step 3 at one process (a worker's `GcFetch`, or the master's own
/// share): post the write notices each wanted page is missing, then
/// complete every one of them in one [`TmkCtx::collect_pages`].
fn gc_complete(ctx: &mut TmkCtx, wants: &[(PageId, Vec<Wn>)]) {
    ctx.core().lock().gc_prepare_fetch(wants);
    ctx.sync_reset();
    let pages: Vec<PageId> = wants.iter().map(|(p, _)| *p).collect();
    ctx.collect_pages(&pages);
    DsmStats::add(&ctx.stats().gc_fetch_pages, pages.len() as u64);
}

/// Worker application thread: connection setup, then the Tmk wait loop.
fn worker_main(
    sys: Arc<DsmSystem>,
    endpoint: Arc<Endpoint>,
    core: Arc<Mutex<ProcCore>>,
    ctrl_rx: MailboxReceiver<Ctrl>,
    master: Gpid,
    hello_to: Vec<Gpid>,
) {
    let gpid = endpoint.gpid();
    let (cfg, timeout) = (&sys.cfg, sys.cfg.call_timeout);
    // Connection setup: slaves first, master last (§4.1).
    for peer in &hello_to {
        let _ = endpoint.call_deadline(*peer, Msg::ConnHello { from: gpid }.encode(cfg), timeout);
    }
    let _ = endpoint.send(master, Msg::ReadyJoin { gpid }.encode(cfg));

    // Our `TmkCtx` owns the control buffer this wait loop drains: the
    // arrival aggregates of our reduce subtree and the barrier releases
    // of a region are received off it too.
    let mut ctx = TmkCtx::new(
        Arc::clone(&core),
        Arc::clone(&endpoint),
        Some(sys.link(ctrl_rx)),
    );
    let runner = Arc::clone(&sys.runner);

    // Control input any peer can send is dropped and counted, never a
    // panic (`DsmStats::stale_dropped`, `malformed_dropped`).
    loop {
        // A reduce child can finish its share before our own `Fork`
        // reaches us down the (differently shaped) fork tree: its
        // aggregate stays buffered for `TmkCtx::arrive`. One of another
        // epoch no collection takes is dropped below. No deadline: the
        // master may compute for any time between two regions.
        let now = core.lock().epoch();
        let region_wait = waiting_for(Cause::Region);
        let c = match ctx.ctrl().recv_where(
            Duration::MAX,
            |c| !matches!(c.msg, Msg::JoinArrive { epoch, .. } if epoch == now),
        ) {
            Ok(c) => c,
            Err(_) => break, // disconnected: system torn down
        };
        drop(region_wait);
        let served = match c.msg {
            Msg::GcQuery { .. } | Msg::GcFetch { .. } | Msg::Commit { .. }
                if c.replier.is_none() =>
            {
                Err(Dropped::Malformed)
            }
            Msg::JoinArrive { .. } => Err(Dropped::Stale),
            Msg::Fork { epoch, .. }
            | Msg::GcQuery { epoch }
            | Msg::GcFetch { epoch, .. }
            | Msg::Commit { epoch, .. }
                if epoch != now =>
            {
                Err(Dropped::Stale)
            }
            Msg::JoinInit {
                epoch,
                team,
                dir,
                registry,
                alloc_slots,
                relay,
            } => match team.pid_of(gpid) {
                Some(my_pid) if team.epoch == epoch => {
                    {
                        let mut pc = core.lock();
                        pc.registry = Registry::new();
                        pc.registry.merge(&registry);
                        let dirv = dir.to_vec();
                        let spp = pc.cfg.slots_per_page();
                        pc.ensure_pages(dirv.len().max((alloc_slots as usize).div_ceil(spp)));
                        pc.vc = Vc::new(team.members.len());
                        pc.my_pid = my_pid;
                        pc.team = team.clone();
                        for ((_, meta), owner) in pc.pages.iter_mut().zip(&dirv) {
                            meta.owner = *owner;
                            meta.shared = true;
                        }
                    }
                    ctx.sync_reset();
                    // Team formation: install first, then bring our
                    // whole subtree up; our own ack means "subtree
                    // ready".
                    if relay {
                        relay_onward(
                            &endpoint,
                            &sys.shapes.get(team.nprocs()).fork,
                            my_pid,
                            &sys.stats.bcast_relays,
                            call_acked(&endpoint, &team, &c.raw, cfg),
                        );
                    }
                    Ok(Some(Msg::Ack))
                }
                _ => Err(Dropped::Malformed),
            },
            Msg::Fork {
                region,
                params,
                vc,
                records,
                registry_delta,
                alloc_slots,
                ..
            } => {
                // Forward the fork to our subtree *before* touching our
                // own state — the subtree's latency is the broadcast's
                // critical path, our record merge is not.
                relay_onward(
                    &endpoint,
                    &sys.shapes.get(ctx.nprocs()).fork,
                    ctx.pid(),
                    &sys.stats.bcast_relays,
                    send_to(&endpoint, ctx.team(), c.raw.clone()),
                );
                {
                    let mut pc = core.lock();
                    pc.registry.merge(&registry_delta);
                    let spp = pc.cfg.slots_per_page();
                    pc.ensure_pages((alloc_slots as usize).div_ceil(spp));
                    pc.apply_records(&records);
                    pc.vc.merge(&vc);
                }
                ctx.sync_reset();
                ctx.set_params(params);
                ctx.in_region(|ctx| runner.run(region, ctx));
                // Tmk_join: arrive, and return to waiting.
                ctx.join();
                ctx.sync_reset();
                Ok(None)
            }
            Msg::GcQuery { .. } => Ok(Some(Msg::GcReport {
                pages: core.lock().gc_report(),
            })),
            Msg::GcFetch { wants, .. } => {
                gc_complete(&mut ctx, &wants);
                Ok(Some(Msg::Ack))
            }
            Msg::Commit {
                new_epoch,
                team,
                my_pid,
                dir,
                drop_pages,
                ..
            } => {
                core.lock()
                    .gc_commit(new_epoch, team, my_pid, &dir.to_vec(), &drop_pages);
                ctx.sync_reset();
                Ok(Some(Msg::Ack))
            }
            Msg::Terminate => {
                sys.net.unregister(gpid);
                sys.cores.lock().remove(&gpid);
                break;
            }
            _ => Err(Dropped::Malformed),
        };
        // Answer a request (a one-way `JoinInit` has no replier).
        match served {
            Ok(reply) => {
                if let (Some(msg), Some(r)) = (reply, c.replier) {
                    r.reply(msg.encode(cfg));
                }
            }
            Err(dropped) => dropped.count(&sys.stats),
        }
    }
}

/// The master process handle (application thread side).
pub struct MasterCtl {
    sys: Arc<DsmSystem>,
    endpoint: Arc<Endpoint>,
    core: Arc<Mutex<ProcCore>>,
    ctx: TmkCtx,
    allocator: Allocator,
    fork_no: u64,
    last_fork_vc: Vc,
    sent_reg_ver: u32,
    /// Authoritative page directory (valid after each GC).
    dir: Vec<Gpid>,
    /// Registers the master's application thread with the simulation
    /// clock for the lifetime of this handle.
    _clock_participant: nowmp_util::ParticipantGuard,
}

/// A checkpointable memory image (serialized by `nowmp-ckpt`).
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryImage {
    /// Fork counter at the checkpoint (replay fast-forward index).
    pub fork_no: u64,
    /// Allocator high-water mark.
    pub alloc_slots: Addr,
    /// Full handle registry.
    pub registry: Vec<RegEntry>,
    /// Every shared page's contents.
    pub pages: Vec<(PageId, Vec<u64>)>,
}

impl MasterCtl {
    /// Our gpid.
    pub fn gpid(&self) -> Gpid {
        self.endpoint.gpid()
    }

    /// The system handle.
    pub fn system(&self) -> &Arc<DsmSystem> {
        &self.sys
    }

    /// Mutable DSM context for the sequential phase (and region 0).
    pub fn ctx(&mut self) -> &mut TmkCtx {
        &mut self.ctx
    }

    /// Current team.
    pub fn team(&self) -> Team {
        self.core.lock().team.clone()
    }

    /// Current epoch.
    pub fn epoch(&self) -> Epoch {
        self.core.lock().epoch()
    }

    /// Completed fork count.
    pub fn fork_no(&self) -> u64 {
        self.fork_no
    }

    /// Allocate `len` slots of shared memory and publish under `name`
    /// (the `Tmk_malloc` + registry step; master-only, sequential phase).
    pub fn alloc(&mut self, name: &str, len: u64, kind: crate::msg::ElemKind) -> RegEntry {
        let addr = self.allocator.alloc(len);
        let mut c = self.core.lock();
        c.ensure_pages(self.allocator.allocated_pages());
        c.registry.publish(name, addr, len, kind)
    }

    /// Slots allocated so far.
    pub fn alloc_slots(&self) -> Addr {
        self.allocator.allocated_slots()
    }

    /// Wait for `workers` to finish connection setup, then form the
    /// initial team (epoch 0).
    pub fn init_team(&mut self, workers: &[Gpid]) {
        let mut pending: HashSet<Gpid> = workers.iter().copied().collect();
        let timeout = self.sys.cfg.call_timeout;
        while !pending.is_empty() {
            let c = self
                .ctx
                .ctrl()
                .recv_where(timeout, |c| matches!(c.msg, Msg::ReadyJoin { .. }))
                .expect("worker never became ready");
            if let Msg::ReadyJoin { gpid } = c.msg {
                pending.remove(&gpid);
            }
        }
        let mut members = vec![self.gpid()];
        members.extend_from_slice(workers);
        let team = Team::new(0, members);
        self.dir = vec![self.gpid(); self.allocator.allocated_pages()];
        {
            let mut c = self.core.lock();
            c.vc = Vc::new(team.nprocs());
            c.my_pid = 0;
            c.team = team.clone();
        }
        let (registry, alloc_slots) = {
            (
                self.core.lock().registry.full(),
                self.allocator.allocated_slots(),
            )
        };
        self.sent_reg_ver = registry.iter().map(|e| e.ver).max().unwrap_or(0);
        let bytes = Msg::JoinInit {
            epoch: 0,
            team: team.clone(),
            dir: DirRle::from_vec(&self.dir),
            registry,
            alloc_slots,
            relay: true,
        }
        .encode(&self.sys.cfg);
        // A call per root child of the fork shape; each acks once its
        // subtree is up.
        let shapes = self.sys.shapes.get(team.nprocs());
        let call = call_acked(&self.endpoint, &team, &bytes, &self.sys.cfg);
        relay_adopting(&shapes.fork, 0, call);
        self.last_fork_vc = Vc::new(team.nprocs());
        self.ctx.sync_reset();
    }

    /// Execute one parallel construct: `Tmk_fork`, run our share (pid
    /// 0), `Tmk_join`. Returns when every process has joined, with the
    /// `reduction` partials the ranks handed the join
    /// ([`TmkCtx::hand_to_join`]) waiting in pid order in
    /// [`TmkCtx::take_join_partials`].
    pub fn parallel(&mut self, region: u32, params: &[u8]) {
        self.ctx.throttle();
        let (team, epoch) = {
            let mut c = self.core.lock();
            c.close_interval();
            c.drain_unsent(); // distributed via fork records below
            (c.team.clone(), c.epoch())
        };
        let (vc, records, reg_delta, alloc_slots) = {
            let c = self.core.lock();
            (
                c.vc.clone(),
                c.records.newer_than(&self.last_fork_vc),
                c.registry.delta_since(self.sent_reg_ver),
                self.allocator.allocated_slots(),
            )
        };
        let msg = Msg::Fork {
            epoch,
            fork_no: self.fork_no,
            region,
            params: params.to_vec(),
            vc: vc.clone(),
            records,
            registry_delta: reg_delta.clone(),
            alloc_slots,
        };
        // The payload is receiver-independent: encode once for all
        // slaves instead of re-serializing per destination.
        let bytes = msg.encode(&self.sys.cfg);
        let shapes = self.sys.shapes.get(team.nprocs());
        relay_tree_send(&self.endpoint, &team, &shapes.fork, 0, &bytes);
        // The fork is out; what the sequential phase wrote can follow.
        self.ctx.wake_pusher();
        self.sent_reg_ver = self
            .sent_reg_ver
            .max(reg_delta.iter().map(|e| e.ver).max().unwrap_or(0));
        self.ctx.set_floor(vc.clone());
        self.last_fork_vc = vc;
        DsmStats::bump(&self.sys.stats.forks);

        // Run our own share.
        self.ctx.sync_reset();
        self.ctx.set_params(params.to_vec());
        let runner = Arc::clone(&self.sys.runner);
        self.ctx.in_region(|ctx| runner.run(region, ctx));

        // Join: collect every rank. Each arrival is an *aggregate*
        // covering the sender's whole subtree of the reduce shape (a
        // single rank under the star).
        self.ctx.join();
        self.fork_no += 1;
        self.ctx.sync_reset();
    }

    /// Does accumulated consistency data call for a GC?
    pub fn gc_due(&self) -> bool {
        self.core.lock().gc_due()
    }

    /// Drain `ReadyJoin` announcements that arrived since the last
    /// check (non-blocking). The adaptive layer calls this at each
    /// adaptation point to learn which spawned processes finished their
    /// connection setup.
    pub fn drain_ready_joins(&mut self) -> Vec<Gpid> {
        self.ctx
            .ctrl()
            .drain_where(|c| matches!(c.msg, Msg::ReadyJoin { .. }))
            .into_iter()
            .map(|c| match c.msg {
                Msg::ReadyJoin { gpid } => gpid,
                _ => unreachable!("drain_where filtered ReadyJoin"),
            })
            .collect()
    }

    /// Block until a specific spawned process announces readiness.
    pub fn wait_ready(&mut self, gpid: Gpid) {
        let _cause = waiting_for(Cause::Control);
        let timeout = self.sys.cfg.call_timeout;
        self.ctx
            .ctrl()
            .recv_where(
                timeout,
                |c| matches!(c.msg, Msg::ReadyJoin { gpid: g } if g == gpid),
            )
            .expect("spawned process never became ready");
    }

    /// Run a garbage collection round (queries, plan, completion
    /// fetches). Must be called at an adaptation point (all slaves
    /// waiting). `avoid` are processes that may own nothing afterwards;
    /// pages only they hold go to the master.
    pub fn run_gc(&mut self, avoid: &HashSet<Gpid>) -> GcOutcome {
        let (team, epoch) = {
            let mut c = self.core.lock();
            c.close_interval();
            c.drain_unsent();
            (c.team.clone(), c.epoch())
        };
        self.ctx.wake_pusher();
        let _cause = waiting_for(Cause::Fetch);
        let me = self.gpid();
        // Step 1: gather reports.
        let mut reports = vec![(me, self.core.lock().gc_report())];
        let queries = (1..team.nprocs())
            .map(|pid| (team.gpid(pid as Pid), Msg::GcQuery { epoch }))
            .collect();
        for (g, rep) in call_all(&self.endpoint, &self.sys.cfg, queries, || {}) {
            match rep {
                Msg::GcReport { pages } => reports.push((g, pages)),
                other => panic!("unexpected GC report: {other:?}"),
            }
        }
        // Step 2: plan.
        let total = self
            .allocator
            .allocated_pages()
            .max(self.dir.len())
            .max(self.core.lock().pages.len());
        let writes = page_writes(&self.core.lock().records);
        let plan: GcPlan = compute_gc_plan(total, &writes, &reports, &self.dir, avoid, me);
        // Step 3: completion fetches, our own while the workers' run.
        let fetch_pages = plan.fetches.iter().map(|(g, w)| (*g, w.len())).collect();
        let fetches = plan
            .fetches
            .iter()
            .filter(|(g, _)| **g != me)
            .map(|(g, wants)| {
                let wants = wants.clone();
                (*g, Msg::GcFetch { epoch, wants })
            })
            .collect();
        let ctx = &mut self.ctx;
        let own = || {
            if let Some(wants) = plan.fetches.get(&me) {
                gc_complete(ctx, wants);
            }
        };
        for (g, rep) in call_all(&self.endpoint, &self.sys.cfg, fetches, own) {
            assert_eq!(rep, Msg::Ack, "GcFetch reply from {g}");
        }
        self.dir = plan.dir.clone();
        GcOutcome {
            dir: plan.dir,
            complete: plan.complete,
            drops: plan.drops,
            fetch_pages,
        }
    }

    /// Commit a new team after [`Self::run_gc`]: survivors get
    /// `Commit`, joiners get `JoinInit`, leavers get `Terminate`.
    /// `new_members[0]` must be the master.
    pub fn commit_team(&mut self, new_members: Vec<Gpid>, outcome: &GcOutcome) {
        assert_eq!(new_members[0], self.gpid(), "master must stay pid 0");
        let _cause = waiting_for(Cause::Control);
        let (old_team, epoch) = {
            let c = self.core.lock();
            (c.team.clone(), c.epoch())
        };
        let new_epoch = epoch + 1;
        let team = Team::new(new_epoch, new_members.clone());
        let dir_rle = DirRle::from_vec(&outcome.dir);
        let empty: Vec<PageId> = Vec::new();

        let old_set: HashSet<Gpid> = old_team.members.iter().copied().collect();
        let (registry, alloc_slots) = {
            (
                self.core.lock().registry.full(),
                self.allocator.allocated_slots(),
            )
        };
        let mut calls = Vec::with_capacity(new_members.len());
        // Survivors: in both teams (skip ourselves).
        for &g in &new_members {
            if g == self.gpid() || !old_set.contains(&g) {
                continue;
            }
            let my_pid = team.pid_of(g).expect("survivor is in new team");
            let msg = Msg::Commit {
                epoch,
                new_epoch,
                team: team.clone(),
                my_pid,
                dir: dir_rle.clone(),
                drop_pages: outcome.drops.get(&g).unwrap_or(&empty).clone(),
            };
            calls.push((g, msg));
        }
        // Joiners: in the new team but not the old.
        for &g in &new_members {
            if g == self.gpid() || old_set.contains(&g) {
                continue;
            }
            debug_assert!(team.pid_of(g).is_some(), "joiner is in new team");
            // Joiners are few and scattered among survivors (who get
            // `Commit`, not `JoinInit`), so this stays a direct send:
            // a tree relay over the mixed team would misdeliver.
            let msg = Msg::JoinInit {
                epoch: new_epoch,
                team: team.clone(),
                dir: dir_rle.clone(),
                registry: registry.clone(),
                alloc_slots,
                relay: false,
            };
            calls.push((g, msg));
        }
        for (g, rep) in call_all(&self.endpoint, &self.sys.cfg, calls, || {}) {
            assert_eq!(rep, Msg::Ack, "Commit / JoinInit reply from {g}");
        }
        // Ourselves, once every member has installed the new team.
        {
            let mut c = self.core.lock();
            let drops = outcome.drops.get(&self.gpid()).cloned().unwrap_or_default();
            c.gc_commit(new_epoch, team.clone(), 0, &outcome.dir, &drops);
        }
        // Leavers: in the old team but not the new.
        let new_set: HashSet<Gpid> = new_members.iter().copied().collect();
        for &g in &old_team.members {
            if !new_set.contains(&g) {
                let _ = self.endpoint.send(g, Msg::Terminate.encode(&self.sys.cfg));
            }
        }
        self.last_fork_vc = Vc::new(team.nprocs());
        self.ctx.sync_reset();
    }

    /// Bring every allocated page into the master's memory (checkpoint
    /// step 2: "the master collects all pages for which it does not
    /// have a valid copy"). These faults are the checkpoint's, not a
    /// region's, so they subscribe the master to no writer's pushes.
    pub fn collect_all_pages(&mut self) {
        let total = self.allocator.allocated_pages();
        self.ctx.sync_reset();
        let pages: Vec<PageId> = (0..total as PageId).collect();
        self.ctx.collect_pages(&pages);
    }

    /// Export the full memory image (after [`Self::collect_all_pages`]).
    pub fn export_image(&self) -> MemoryImage {
        let c = self.core.lock();
        MemoryImage {
            fork_no: self.fork_no,
            alloc_slots: self.allocator.allocated_slots(),
            registry: c.registry.full(),
            pages: c.export_pages(),
        }
    }

    /// Restore a memory image into a *fresh* master (recovery).
    pub fn import_image(&mut self, image: &MemoryImage) {
        {
            let mut c = self.core.lock();
            c.registry = Registry::new();
            c.registry.merge(&image.registry);
            let spp = c.cfg.slots_per_page();
            c.ensure_pages((image.alloc_slots as usize).div_ceil(spp));
            c.import_pages(&image.pages);
        }
        self.allocator.restore(image.alloc_slots);
        self.fork_no = image.fork_no;
        self.sent_reg_ver = 0;
        self.dir = vec![self.gpid(); self.allocator.allocated_pages()];
        self.ctx.sync_reset();
    }

    /// Gracefully shut the system down: terminate every slave, then
    /// unregister ourselves.
    pub fn shutdown(self) {
        let team = self.core.lock().team.clone();
        for pid in 1..team.nprocs() {
            let _ = self
                .endpoint
                .send(team.gpid(pid as Pid), Msg::Terminate.encode(&self.sys.cfg));
        }
        self.sys.net.unregister(self.gpid());
        self.sys.cores.lock().remove(&self.gpid());
        self.sys.join_threads();
    }

    /// The master's own drained records plus current knowledge — used
    /// by tests asserting distribution invariants.
    pub fn knowledge(&self) -> (Vc, Vec<Record>) {
        let c = self.core.lock();
        (c.vc.clone(), c.records.all().to_vec())
    }
}
