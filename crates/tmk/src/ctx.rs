//! `TmkCtx` — the application thread's view of the DSM.
//!
//! All shared-memory access and synchronization by application code
//! goes through this context:
//!
//! * typed slot reads/writes with a software "page table" fast path
//!   (the cache) and a protocol slow path (the fault driver) — our
//!   substitute for mmap/SIGSEGV access detection;
//! * distributed locks and barriers (lazy release consistency client
//!   side);
//! * interval bookkeeping at releases.
//!
//! The context sequences the steps and moves the bytes; the
//! [`ProcCore`] decides. A fault sends the requests the core plans with
//! one [`call_all`], hands each reply to [`ProcCore::fold`] and plans
//! again, bounded by `MAX_REDIRECTS` and parked on expected pushes.
//!
//! One `TmkCtx` exists per process application thread. A team
//! member's context also carries its control-message buffer, so every
//! rank can aggregate its reduce subtree's arrivals, and the master can
//! act as the barrier manager, while it executes its own share of a
//! parallel region.

use crate::config::DsmConfig;
use crate::core::{AccessPlan, Expect, LockWaiter, ProcCore, Request};
use crate::msg::Msg;
use crate::page::PageBuf;
use crate::records::Record;
use crate::service::{deliver_grant, Ctrl};
use crate::stats::DsmStats;
use crate::system::{charge_relay, collect_joins, relay_adopting, relay_onward, send_to, Partials};
use crate::tree::{ShapeBook, Shapes};
use crate::types::{Addr, PageId, Pid, Team, Vc};
use nowmp_net::{Endpoint, Gpid, NetError, PendingCall};
use nowmp_util::mailbox::RecvTimeoutError;
use nowmp_util::{waiting_for, Cause, ClockCondvar, MailboxReceiver};
use parking_lot::Mutex;
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Buffered control-message receiver: lets a thread wait for a specific
/// kind of message while stashing others for later. Waits are visible
/// on the simulation clock the mailbox is bound to.
pub struct CtrlBuf {
    rx: MailboxReceiver<Ctrl>,
    backlog: VecDeque<Ctrl>,
}

impl CtrlBuf {
    /// Wrap a control mailbox.
    pub fn new(rx: MailboxReceiver<Ctrl>) -> Self {
        CtrlBuf {
            rx,
            backlog: VecDeque::new(),
        }
    }

    /// Receive the next control message matching `pred`, buffering
    /// non-matching ones. `timeout` is a *real-time* guard against
    /// protocol deadlock; one past `Instant`'s range (`Duration::MAX`)
    /// waits for as long as a sender remains.
    pub fn recv_where(
        &mut self,
        timeout: Duration,
        mut pred: impl FnMut(&Ctrl) -> bool,
    ) -> Result<Ctrl, NetError> {
        if let Some(pos) = self.backlog.iter().position(&mut pred) {
            return Ok(self.backlog.remove(pos).expect("position is valid"));
        }
        let deadline = Instant::now().checked_add(timeout);
        loop {
            let remaining = deadline.map_or(Duration::MAX, |d| {
                d.saturating_duration_since(Instant::now())
            });
            match self.rx.recv_timeout(remaining) {
                Ok(c) => {
                    if pred(&c) {
                        return Ok(c);
                    }
                    self.backlog.push_back(c);
                }
                Err(RecvTimeoutError::Timeout) => return Err(NetError::Timeout(Gpid(0))),
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(NetError::Disconnected(Gpid(0)));
                }
            }
        }
    }

    /// Non-blocking: drain every already-delivered message matching `pred`.
    pub fn drain_where(&mut self, mut pred: impl FnMut(&Ctrl) -> bool) -> Vec<Ctrl> {
        while let Ok(c) = self.rx.try_recv() {
            self.backlog.push_back(c);
        }
        let mut out = Vec::new();
        let mut keep = VecDeque::with_capacity(self.backlog.len());
        for c in self.backlog.drain(..) {
            if pred(&c) {
                out.push(c);
            } else {
                keep.push_back(c);
            }
        }
        self.backlog = keep;
        out
    }
}

/// A team member's link to the team-wide collectives: the control
/// buffer every control message reaches the process through (arrival
/// aggregates, barrier releases, and what its wait loop serves), and
/// the system's collective shapes. Only processes a
/// [`crate::system::DsmSystem`] started have one.
pub struct TeamLink {
    /// The process's control buffer, owned by its one application
    /// thread.
    pub(crate) ctrl: CtrlBuf,
    /// The system's shapes, per team size.
    pub(crate) shapes: Arc<ShapeBook>,
}

/// A team member's `link`: a free function, so a collection can hold
/// its control buffer beside borrows of the context's other fields.
fn link_of(link: &mut Option<TeamLink>) -> &mut TeamLink {
    link.as_mut().expect("a team member has a team link")
}

/// A cached page-access grant: buffer plus write permission.
pub struct CacheEnt {
    /// The page payload.
    pub buf: Arc<PageBuf>,
    /// Whether writes may go through this entry.
    pub writable: bool,
}

/// Maximum full-page requests one fault makes while chasing a page's
/// owner.
const MAX_REDIRECTS: usize = 6;

/// Make the requests `calls`, `(destination, request)` in order, and
/// run `local`, the caller's own share of the step: the one way this
/// crate makes a blocking request. When the data plane pipelines
/// (`cfg.dataplane.pipeline()`) every request is on the wire before any
/// reply is collected and `local` runs while they are in flight, so the
/// step costs its slowest participant instead of the sum of round
/// trips. Under the 1999 demand plane each request is waited on before
/// the next is sent, and `local` runs last. Returns `(destination,
/// reply)` in request order; a request that fails or times out is a
/// protocol failure and panics.
pub(crate) fn call_all(
    endpoint: &Endpoint,
    cfg: &DsmConfig,
    calls: Vec<(Gpid, Msg)>,
    local: impl FnOnce(),
) -> Vec<(Gpid, Msg)> {
    let gather = |(dst, call): (Gpid, Result<PendingCall, NetError>)| {
        let rep = call
            .and_then(|c| c.wait(cfg.call_timeout))
            .unwrap_or_else(|e| panic!("{}: call to {dst} failed: {e}", endpoint.gpid()));
        (dst, decode(&rep, dst, cfg))
    };
    let mut pending = Vec::with_capacity(calls.len());
    let mut replies = Vec::with_capacity(calls.len());
    for (dst, msg) in calls {
        pending.push((dst, endpoint.call_begin(dst, msg.encode(cfg))));
        if !cfg.dataplane.pipeline() {
            replies.extend(pending.drain(..).map(gather));
        }
    }
    local();
    replies.extend(pending.into_iter().map(gather));
    replies
}

/// Decode a reply from `from`. A peer that answers with bytes no
/// message decodes from is a protocol bug: fail loudly.
pub(crate) fn decode(rep: &[u8], from: Gpid, cfg: &DsmConfig) -> Msg {
    Msg::decode(rep, cfg).unwrap_or_else(|e| panic!("malformed reply from {from}: {e}"))
}

/// The application thread's DSM context.
pub struct TmkCtx {
    core: Arc<Mutex<ProcCore>>,
    endpoint: Arc<Endpoint>,
    stats: Arc<DsmStats>,
    cache: Vec<Option<CacheEnt>>,
    /// Cached copies of slowly-changing core fields (refreshed at sync
    /// points) so the fast path takes no lock.
    team: Team,
    my_pid: Pid,
    slots_per_page: usize,
    page_shift: u32,
    /// The process's configuration: the call timeout, the throttle
    /// hook, and the generation's collectives, wire encoding and data
    /// plane.
    cfg: DsmConfig,
    /// Link to the team: arrival aggregates (at every rank with a
    /// reduce subtree) and barrier releases (at all but the master)
    /// come through its control buffer. `None` only in single-process
    /// test contexts.
    link: Option<TeamLink>,
    /// Current region parameters (set by the fork dispatcher).
    params: Vec<u8>,
    /// Modeled compute cost of one iteration of the current region at
    /// reference speed (set by the fork dispatcher from the
    /// [`nowmp_net::CostModel`]; zero = compute is free).
    iter_cost: Duration,
    /// Whether this rank's `PageReq`s and `DiffReq`s subscribe it to
    /// their servers' pushes: true while a region body runs on a
    /// pipelining data plane ([`Self::in_region`]), so only a region's
    /// demand fault subscribes.
    subscribe: bool,
    /// Where a fault parks while a diff its writer is pushing (rule R)
    /// is still on the wire; the core notifies it on every deposit.
    early_cv: Arc<ClockCondvar>,
    /// This rank's `reduction` partial, handed to the region's join
    /// ([`Self::hand_to_join`]) and taken by it.
    partial: Option<f64>,
    /// At the master, after a join: the team's partials in pid order
    /// ([`Self::take_join_partials`]).
    join_partials: Vec<f64>,
    /// At the master: the clock the last `Fork` or `BarrierRelease`
    /// carried. Every rank merged it, so it bounds every rank's clock
    /// from below — the bound a barrier assumes for a rank whose
    /// arrival came aggregated with others.
    floor: Vc,
}

impl TmkCtx {
    /// Build a context over a process's shared state.
    pub fn new(
        core: Arc<Mutex<ProcCore>>,
        endpoint: Arc<Endpoint>,
        link: Option<TeamLink>,
    ) -> Self {
        let early_cv = Arc::new(ClockCondvar::new(endpoint.clock()));
        let (stats, cfg, team, my_pid) = {
            let mut c = core.lock();
            c.early_cv = Some(Arc::clone(&early_cv));
            (
                Arc::clone(&c.stats),
                c.cfg.clone(),
                c.team.clone(),
                c.my_pid,
            )
        };
        let spp = cfg.slots_per_page();
        TmkCtx {
            core,
            endpoint,
            stats,
            cache: Vec::new(),
            team,
            my_pid,
            slots_per_page: spp,
            page_shift: spp.trailing_zeros(),
            cfg,
            link,
            params: Vec::new(),
            iter_cost: Duration::ZERO,
            subscribe: false,
            early_cv,
            partial: None,
            join_partials: Vec::new(),
            floor: Vc::new(0),
        }
    }

    /// Our rank in the current team.
    pub fn pid(&self) -> Pid {
        self.my_pid
    }

    /// Team size.
    pub fn nprocs(&self) -> usize {
        self.team.nprocs()
    }

    /// The current team.
    pub fn team(&self) -> &Team {
        &self.team
    }

    /// Our process instance id.
    pub fn gpid(&self) -> Gpid {
        self.endpoint.gpid()
    }

    /// Opaque parameters of the region being executed.
    pub fn params(&self) -> &[u8] {
        &self.params
    }

    /// Install region parameters (runtime use).
    pub fn set_params(&mut self, params: Vec<u8>) {
        self.params = params;
    }

    /// Install the per-iteration compute cost of the region about to
    /// run (runtime use; the fork dispatcher resolves it from the
    /// [`nowmp_net::CostModel`] by region name).
    pub fn set_iter_cost(&mut self, per_iter: Duration) {
        self.iter_cost = per_iter;
    }

    /// Run `body`, this rank's share of a region. On a pipelining data
    /// plane its demand faults' `PageReq`s and `DiffReq`s subscribe:
    /// the server pushes every diff of those pages it closes after the
    /// seq its reply acknowledges, this epoch. Faults outside a
    /// region body — the master's sequential phase, a GC's completion
    /// fetch, a checkpoint's page collection — never subscribe.
    pub(crate) fn in_region(&mut self, body: impl FnOnce(&mut TmkCtx)) {
        self.subscribe = self.cfg.dataplane.pipeline();
        body(self);
        self.subscribe = false;
    }

    /// Whether a region's `reduction` clause rides its join on this
    /// process's generation ([`crate::CollectiveConfig::reduces_at_join`]).
    pub fn reduction_rides_join(&self) -> bool {
        self.cfg.collectives.reduces_at_join()
    }

    /// Hand this rank's `reduction` partial to the region's join: it
    /// travels up the reduce shape in the rank's `JoinArrive`, and the
    /// master's runtime folds the team's partials after the join.
    pub fn hand_to_join(&mut self, partial: f64) {
        self.partial = Some(partial);
    }

    /// At the master, at a fork: the clock the `Fork` carried is the
    /// region's first floor.
    pub(crate) fn set_floor(&mut self, vc: Vc) {
        self.floor = vc;
    }

    /// At the master, in the sequential phase after a join: the
    /// `reduction` partials every rank handed it, in pid order (empty
    /// when the region has no clause riding the join). Taking them
    /// leaves none.
    pub fn take_join_partials(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.join_partials)
    }

    /// The host this process currently runs on.
    pub fn host(&self) -> nowmp_net::HostId {
        self.endpoint.host()
    }

    /// The simulation's host cost model.
    pub fn cost_model(&self) -> &nowmp_net::CostModel {
        self.endpoint.cost()
    }

    /// Shared event counters.
    pub fn stats(&self) -> &Arc<DsmStats> {
        &self.stats
    }

    /// Access the core (runtime/SPI use; application code never needs this).
    pub fn core(&self) -> &Arc<Mutex<ProcCore>> {
        &self.core
    }

    /// Look up a published allocation by name.
    pub fn handle(&self, name: &str) -> Option<crate::msg::RegEntry> {
        self.core.lock().registry.get(name).cloned()
    }

    /// Invoke the adaptive layer's throttle hook (migration freeze gate).
    #[inline]
    pub fn throttle(&self) {
        if let Some(t) = &self.cfg.throttle {
            t();
        }
    }

    /// Drop all cached page access and refresh team/epoch snapshots.
    /// Must be called after every operation that can invalidate pages
    /// or change the team.
    pub fn sync_reset(&mut self) {
        self.cache.iter_mut().for_each(|e| *e = None);
        let c = self.core.lock();
        if self.team != c.team {
            self.team = c.team.clone();
        }
        self.my_pid = c.my_pid;
    }

    // ------------------------------------------------------------------
    // Fault driver
    // ------------------------------------------------------------------

    /// One request, one reply: [`call_all`] of a single call.
    fn call(&self, dst: Gpid, msg: Msg) -> Msg {
        call_all(&self.endpoint, &self.cfg, vec![(dst, msg)], || {})
            .remove(0)
            .1
    }

    /// Ensure `page` is accessible (and writable if `write`), returning
    /// a cached handle. The heart of the software page-fault path.
    pub fn ensure_page(&mut self, page: PageId, write: bool) -> &CacheEnt {
        let idx = page as usize;
        if idx >= self.cache.len() {
            self.cache.resize_with(idx + 1, || None);
        }
        // Fast path: polonius-unfriendly, so re-borrow after the check.
        let hit = matches!(&self.cache[idx], Some(e) if !write || e.writable);
        if !hit {
            self.fault(page, write);
        }
        self.cache[idx].as_ref().expect("fault populated the cache")
    }

    #[cold]
    fn fault(&mut self, page: PageId, write: bool) {
        self.throttle();
        if write {
            // write_faults counted inside plan_access (twin creation).
        } else {
            DsmStats::bump(&self.stats.read_faults);
        }
        // Plan, request, fold, and plan again: a full page installs (or
        // a redirect re-aims the owner hint), then a stale copy's diffs
        // land in the early-diff store and apply from there.
        let mut full_fetches = 0;
        loop {
            let plan = self.core.lock().plan_access(page, write, self.subscribe);
            match plan {
                AccessPlan::Ready { buf, writable } => {
                    self.cache[page as usize] = Some(CacheEnt { buf, writable });
                    return;
                }
                AccessPlan::Missing(requests) => {
                    full_fetches += 1;
                    assert!(
                        full_fetches <= MAX_REDIRECTS,
                        "page {page}: too many ownership redirects"
                    );
                    self.fetch(requests);
                }
                AccessPlan::Stale(requests) => {
                    self.fetch(requests);
                    self.await_expected(page);
                    self.core.lock().apply_diffs(page);
                }
            }
        }
    }

    /// Park until every diff of `page` that rule R says is being pushed
    /// to us has been deposited. A clock-visible wait, woken by the
    /// service thread's deposit and guarded in real time like any
    /// reply: a lost push is a protocol bug and fails as loudly as a
    /// lost reply does.
    fn await_expected(&self, page: PageId) {
        let _cause = waiting_for(Cause::Push);
        let deadline = Instant::now() + self.cfg.call_timeout;
        let mut c = self.core.lock();
        while let Some((pid, seq)) = c.expected_absent(page) {
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(
                !left.is_zero(),
                "{}: pushed diff lost: page {page}, writer pid {pid}, seq {seq} never arrived",
                self.gpid()
            );
            c = self.early_cv.wait_timeout(&self.core, c, left).0;
        }
    }

    /// Make every request of a fault's or a page collection's plan with
    /// one [`call_all`] and fold each reply into the core.
    fn fetch(&self, requests: Vec<Request>) {
        let _cause = waiting_for(Cause::Fetch);
        let (calls, expects): (Vec<_>, Vec<_>) = requests
            .into_iter()
            .map(|(dst, msg, expect)| ((dst, msg), expect))
            .unzip();
        let replies = call_all(&self.endpoint, &self.cfg, calls, || {});
        for ((from, rep), expect) in replies.into_iter().zip(expects) {
            self.fold(expect, from, rep);
        }
    }

    /// [`ProcCore::fold`] a reply in. A rejected one is a protocol
    /// failure, and fails loudly.
    fn fold(&self, expect: Expect, from: Gpid, rep: Msg) {
        let folded = self.core.lock().fold(expect, from, rep);
        folded.unwrap_or_else(|rejected| panic!("{rejected}"));
    }

    /// Bring every page of `pages` to a valid copy: the same end state
    /// as `ensure_page(p, false)` on each in turn. Under
    /// `dataplane.pipeline()` the whole set is planned at once and
    /// fetched like a fault's plan — every request, one `PageReq` per
    /// missing page and one `DiffReq` per creator covering all its
    /// stale pages, is on the wire before any reply is folded in — so
    /// the collection pays the slowest server (or its own inbound
    /// port's floor) instead of the sum of round trips. The faults that
    /// follow find each page ready or complete it from the early-diff
    /// store; redirects, and whatever the plan leaves out, take the
    /// demand path. The checkpoint's page collection and the GC's
    /// completion fetches run through here, outside any region body, so
    /// nothing here subscribes. Unlike a fault, a collection asks
    /// `whole_if_smaller`: a creator asked for a page's chain of two or
    /// more diffs sends the page instead when that is smaller, in the
    /// same round as every other request. At a GC completion that moves
    /// a leaver's pages whole; the checkpoint's collection runs right
    /// after a GC, whose commit drops every stale copy, and asks for no
    /// chain.
    pub fn collect_pages(&mut self, pages: &[PageId]) {
        if self.cfg.dataplane.pipeline() {
            let requests = self.core.lock().plan_pages(pages, self.subscribe);
            self.fetch(requests);
        }
        for &p in pages {
            self.ensure_page(p, false);
        }
    }

    #[inline]
    fn locate(&self, addr: Addr) -> (PageId, usize) {
        (
            (addr >> self.page_shift) as PageId,
            (addr & (self.slots_per_page as u64 - 1)) as usize,
        )
    }

    // ------------------------------------------------------------------
    // Synchronization
    // ------------------------------------------------------------------

    /// Acquire distributed lock `lock` (blocking). Lazy release
    /// consistency: the grant tells us the previous holder; we fetch the
    /// interval records we lack from it and invalidate accordingly.
    pub fn lock(&mut self, lock: u32) {
        let _cause = waiting_for(Cause::Lock);
        self.throttle();
        let mgr_pid = self.team.lock_manager(lock);
        let mgr_gpid = self.team.gpid(mgr_pid);
        let prev: Option<Gpid> = if mgr_gpid == self.gpid() {
            // We manage this lock: local acquire (may still block while
            // a remote process holds it).
            let (tx, rx) = nowmp_util::mailbox(self.endpoint.clock());
            let grant = self
                .core
                .lock()
                .lock_acquire(lock, self.gpid(), LockWaiter::Local(tx));
            deliver_grant(grant, &self.cfg);
            rx.recv_timeout(self.cfg.call_timeout)
                .expect("lock grant lost")
        } else {
            match self.call(
                mgr_gpid,
                Msg::LockReq {
                    epoch: self.team.epoch,
                    lock,
                },
            ) {
                Msg::LockRep { prev } => prev,
                other => panic!("unexpected reply to LockReq: {other:?}"),
            }
        };
        let records = self.core.lock().plan_acquire(prev);
        if let Some((prev, msg, expect)) = records {
            let rep = self.call(prev, msg);
            self.fold(expect, prev, rep);
        }
        DsmStats::bump(&self.stats.lock_acquires);
        self.sync_reset();
    }

    /// Release distributed lock `lock`: close our interval (making our
    /// writes forwardable) and notify the manager.
    pub fn unlock(&mut self, lock: u32) {
        self.core.lock().close_interval();
        // Releasing downgraded Write pages; cached writable entries are stale.
        self.sync_reset();
        let mgr_pid = self.team.lock_manager(lock);
        let mgr_gpid = self.team.gpid(mgr_pid);
        if mgr_gpid == self.gpid() {
            let grant = self.core.lock().lock_release(lock, self.gpid());
            deliver_grant(grant, &self.cfg);
        } else {
            self.endpoint
                .send(
                    mgr_gpid,
                    Msg::LockRelease {
                        epoch: self.team.epoch,
                        lock,
                    }
                    .encode(&self.cfg),
                )
                .expect("lock manager vanished");
        }
        self.wake_pusher();
    }

    /// Release the pushes the last interval close held
    /// ([`crate::push::PushGate::release_pushes`]) and, if the outbox
    /// has a push, wake the service thread to send it. Call it after
    /// every close, and *after* that synchronization point's own message
    /// (a `JoinArrive`, a lock release, the master's fork sends) is on
    /// the link: that message is small and on the critical path, so it
    /// reserves the wire ahead of the bulk.
    pub fn wake_pusher(&self) {
        if self.core.lock().push.release_pushes() {
            self.endpoint.wake();
        }
    }

    /// Run `f` under lock `lock` (OpenMP `critical`).
    pub fn critical<R>(&mut self, lock: u32, f: impl FnOnce(&mut TmkCtx) -> R) -> R {
        self.lock(lock);
        let r = f(self);
        self.unlock(lock);
        r
    }

    /// The region's join, the region's own barrier: at a worker, its
    /// arrival with the partial the body handed the join; at the
    /// master, the collection of every rank's, whose partials
    /// [`Self::take_join_partials`] then returns.
    pub(crate) fn join(&mut self) {
        let _cause = waiting_for(Cause::Join);
        let partial = self.partial.take();
        if self.my_pid == 0 {
            self.join_partials = self.gather(partial, |_, _| {});
        } else {
            self.arrive(partial);
        }
    }

    /// Arrive at a barrier or at the join, at a rank other than the
    /// master: close our interval, collect the `JoinArrive` aggregates
    /// of our subtree in the reduce shape, merge them into our own
    /// arrival (vector-clock merge + record union, deduped by
    /// `(pid, seq)`), and send **one** aggregate to our parent —
    /// escalating to the grandparent, and on up to the master, while
    /// the parent's endpoint is gone. Its `reduction` partials are ours
    /// (`partial`), then our subtree's, in pid order. The close's pushes
    /// go while some of our subtree is outstanding, and what is left of
    /// them when the last aggregate arrives waits for ours
    /// ([`crate::push::PushGate::await_subtree`]); a leaf's wait for
    /// its arrival.
    ///
    /// A child's aggregate can reach us before our own `Fork` or
    /// `BarrierRelease` does (the shapes differ): the wait loops leave
    /// it in the control buffer, where this collection finds it. Child
    /// data is buffered here only, never applied to our own core, so
    /// per-process DSM state is the flat collection's.
    fn arrive(&mut self, partial: Option<f64>) {
        let shapes = self.shapes();
        let shape = &shapes.reduce;
        let (pid, my) = (self.my_pid, self.my_pid as usize);
        let children = shape.children(my).len();
        let (mut vc, mut records, push_now) = {
            let mut c = self.core.lock();
            let records = c.close_and_drain();
            let push_now = c.push.await_subtree(children);
            (c.vc.clone(), records, push_now)
        };
        if push_now {
            self.endpoint.wake();
        }
        // `close_and_drain` can hand us records authored by *other* pids
        // (lock transfers), so dedup child aggregates against them.
        let mut seen: HashSet<(Pid, u32)> = records.iter().map(|r| (r.pid, r.seq)).collect();
        let endpoint = &self.endpoint;
        let mut partials = Partials::default();
        partials.add(pid, partial.into_iter().collect());
        let absorb = |from, child_vc: Vc, child_recs: Vec<Record>, part| {
            partials.add(from, part);
            vc.merge(&child_vc);
            for r in child_recs {
                if seen.insert((r.pid, r.seq)) {
                    records.push(r);
                }
            }
            // One inbound stack traversal per absorbed aggregate.
            charge_relay(endpoint);
        };
        let (epoch, timeout) = (self.team.epoch, self.cfg.call_timeout);
        let ctrl = &mut link_of(&mut self.link).ctrl;
        collect_joins(ctrl, shape, my, epoch, timeout, &self.stats, absorb);
        self.core.lock().push.subtree_collected(children);
        let bytes = Msg::JoinArrive {
            epoch,
            pid,
            vc,
            records,
            partials: partials.in_pid_order(),
        }
        .encode(&self.cfg);
        let mut target = shape.parent(my);
        while let Err(e) = endpoint.send(self.team.gpid(target as Pid), bytes.clone()) {
            if target == 0 {
                panic!("arrival from rank {my} to master failed: {e}");
            }
            eprintln!("[nowmp] arrival: rank {my}'s parent {target} unreachable; escalating");
            target = shape.parent(target);
        }
        if shape.subtree_size(my) > 1 {
            DsmStats::bump(&self.stats.reduce_relays);
        }
        self.wake_pusher();
    }

    /// The master's side of a barrier or of the join: close our
    /// interval, then collect every rank's arrival up the reduce shape,
    /// applying each aggregate as it lands and handing its sender and
    /// clock to `heard`. The master sends nothing until everyone has
    /// arrived, so its pushes start first. Returns the team's
    /// `reduction` partials in pid order, ours (`partial`) first.
    fn gather(&mut self, partial: Option<f64>, mut heard: impl FnMut(usize, Vc)) -> Vec<f64> {
        // The next fork or release hands out our records.
        self.core.lock().close_and_drain();
        self.wake_pusher();
        let shapes = self.shapes();
        let mut partials = Partials::default();
        partials.add(0, partial.into_iter().collect());
        let core = &self.core;
        let absorb = |from, vc: Vc, records: Vec<Record>, part| {
            partials.add(from, part);
            core.lock().learn(&vc, &records);
            heard(from as usize, vc);
        };
        let (epoch, timeout) = (self.team.epoch, self.cfg.call_timeout);
        let ctrl = &mut link_of(&mut self.link).ctrl;
        collect_joins(ctrl, &shapes.reduce, 0, epoch, timeout, &self.stats, absorb);
        self.core
            .lock()
            .push
            .subtree_collected(shapes.reduce.children(0).len());
        partials.in_pid_order()
    }

    /// In-region barrier: the arrival is a join's ([`Self::arrive`]),
    /// up the reduce shape to the master (pid 0), the manager. The
    /// master sends each of the root's children in the release shape
    /// ([`crate::tree::Shapes::release`]) one `BarrierRelease` with the
    /// merged clock and the records that child's subtree lacks, which
    /// interior ranks relay verbatim. On the star (a flat
    /// `join_reduce`) each slave arrives and is released on its own:
    /// the 1999 traffic. A `reduction` partial handed to the join
    /// ([`Self::hand_to_join`]) waits for the join.
    pub fn barrier(&mut self) {
        let _cause = waiting_for(Cause::Barrier);
        self.throttle();
        DsmStats::bump(&self.stats.barrier_arrivals);
        if self.nprocs() == 1 {
            self.core.lock().close_interval();
            self.sync_reset();
            return;
        }
        if self.my_pid == 0 {
            self.barrier_master();
        } else {
            self.arrive(None);
            self.await_release();
        }
        self.sync_reset();
    }

    /// The collective shapes of our team's size.
    fn shapes(&mut self) -> Arc<Shapes> {
        let n = self.nprocs();
        link_of(&mut self.link).shapes.get(n)
    }

    /// Our control buffer: every control message reaches this process
    /// through it, in its wait loop or in a collective.
    pub(crate) fn ctrl(&mut self) -> &mut CtrlBuf {
        &mut link_of(&mut self.link).ctrl
    }

    /// A slave's half of the barrier after its arrival: wait for the
    /// release, relay it to our release subtree, apply it.
    fn await_release(&mut self) {
        let (timeout, shapes) = (self.cfg.call_timeout, self.shapes());
        let c = self
            .ctrl()
            .recv_where(timeout, |c| matches!(&c.msg, Msg::BarrierRelease { .. }))
            .expect("barrier release lost");
        // Relay the verbatim payload to our subtree *before* applying:
        // the subtree's release latency is the critical path.
        relay_onward(
            &self.endpoint,
            &shapes.release,
            self.my_pid,
            &self.stats.release_relays,
            send_to(&self.endpoint, &self.team, c.raw.clone()),
        );
        if let Msg::BarrierRelease { vc, records } = c.msg {
            self.core.lock().learn(&vc, &records);
        }
    }

    fn barrier_master(&mut self) {
        // A lower bound on every rank's clock: exact for a rank whose
        // arrival came alone (every rank, on the star), the floor for
        // one aggregated with others.
        let shapes = self.shapes();
        let mut arrived = vec![self.floor.clone(); self.nprocs()];
        self.gather(None, |from, vc| {
            if shapes.reduce.subtree_size(from) == 1 {
                arrived[from] = vc;
            }
        });
        let merged = self.core.lock().vc.clone();
        // Each subtree of the root gets everything newer than the
        // pointwise-min clock bound over its ranks: what any of them
        // lacks (over-delivery is fine — record application dedups),
        // so one payload is relayed verbatim through the subtree. A
        // vanished child's adopted children get their own subtrees'.
        let shape = &shapes.release;
        relay_adopting(shape, 0, |child| {
            let mut min = arrived[child].clone();
            for vc in &arrived[child + 1..child + shape.subtree_size(child)] {
                min.meet(vc);
            }
            let release = Msg::BarrierRelease {
                vc: merged.clone(),
                records: self.core.lock().records.newer_than(&min),
            };
            send_to(&self.endpoint, &self.team, release.encode(&self.cfg))(child)
        });
        self.floor = merged;
    }
}

/// The thread engine's memory surface: typed access faults pages in
/// through the LRC protocol.
impl crate::mem::SharedMem for TmkCtx {
    fn pid(&self) -> Pid {
        self.my_pid
    }
    fn nprocs(&self) -> usize {
        self.team.nprocs()
    }
    fn params(&self) -> &[u8] {
        &self.params
    }
    fn handle(&self, name: &str) -> Option<crate::msg::RegEntry> {
        TmkCtx::handle(self, name)
    }

    /// Sleeps the speed-adjusted cost on the simulation clock. The
    /// worksharing loops call this at every chunk boundary — under a
    /// virtual clock this is what makes compute *time-visible*, turning
    /// event orderings into quantitative timelines. Free (an early
    /// return) when no cost model is installed.
    fn charge_compute(&mut self, iters: u64) {
        if self.iter_cost.is_zero() || iters == 0 {
            return;
        }
        let d = self
            .endpoint
            .cost()
            .compute_time(self.iter_cost, iters, self.endpoint.host());
        if !d.is_zero() {
            let _cause = waiting_for(Cause::Compute);
            self.endpoint.clock().sleep(d);
        }
    }

    /// No-op unless the cost model has compute charging enabled.
    fn charge_flops(&mut self, flops: f64) {
        let d = self
            .endpoint
            .cost()
            .flops_charge(flops, self.endpoint.host());
        if !d.is_zero() {
            let _cause = waiting_for(Cause::Compute);
            self.endpoint.clock().sleep(d);
        }
    }

    #[inline]
    fn read_u64(&mut self, addr: Addr) -> u64 {
        let (page, off) = self.locate(addr);
        self.ensure_page(page, false).buf.load(off)
    }

    #[inline]
    fn write_u64(&mut self, addr: Addr, v: u64) {
        let (page, off) = self.locate(addr);
        self.ensure_page(page, true).buf.store(off, v);
    }

    fn read_words(&mut self, addr: Addr, dst: &mut [u64]) {
        let mut a = addr;
        let mut i = 0;
        while i < dst.len() {
            let (page, off) = self.locate(a);
            let n = (self.slots_per_page - off).min(dst.len() - i);
            let ent = self.ensure_page(page, false);
            ent.buf.read_range(off, &mut dst[i..i + n]);
            i += n;
            a += n as u64;
        }
    }

    fn write_words(&mut self, addr: Addr, src: &[u64]) {
        let mut a = addr;
        let mut i = 0;
        while i < src.len() {
            let (page, off) = self.locate(a);
            let n = (self.slots_per_page - off).min(src.len() - i);
            let ent = self.ensure_page(page, true);
            ent.buf.write_range(off, &src[i..i + n]);
            i += n;
            a += n as u64;
        }
    }

    fn read_f64s(&mut self, addr: Addr, dst: &mut [f64]) {
        let mut a = addr;
        let mut i = 0;
        while i < dst.len() {
            let (page, off) = self.locate(a);
            let n = (self.slots_per_page - off).min(dst.len() - i);
            let ent = self.ensure_page(page, false);
            for k in 0..n {
                dst[i + k] = f64::from_bits(ent.buf.load(off + k));
            }
            i += n;
            a += n as u64;
        }
    }

    fn write_f64s(&mut self, addr: Addr, src: &[f64]) {
        let mut a = addr;
        let mut i = 0;
        while i < src.len() {
            let (page, off) = self.locate(a);
            let n = (self.slots_per_page - off).min(src.len() - i);
            let ent = self.ensure_page(page, true);
            for k in 0..n {
                ent.buf.store(off + k, src[i + k].to_bits());
            }
            i += n;
            a += n as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DataPlaneConfig;
    use crate::mem::SharedMem;
    use crate::stats::DsmStats as Stats;
    use nowmp_net::{HostId, NetModel, Network};
    use nowmp_util::wire::Wire;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn make_ctx() -> TmkCtx {
        let net = Network::new(1, NetModel::disabled());
        let ep = Arc::new(net.register(HostId(0)));
        let gpid = ep.gpid();
        let core = Arc::new(Mutex::new(ProcCore::new(
            DsmConfig {
                page_size: 64,
                ..DsmConfig::test_small()
            },
            gpid,
            Stats::new_shared(),
            gpid,
        )));
        TmkCtx::new(core, ep, None)
    }

    /// With no deadline (`Duration::MAX`) a wait buffers what does not
    /// match, returns the match however late it comes, and ends on a
    /// disconnect.
    #[test]
    fn recv_where_without_deadline_waits_for_a_late_match() {
        let (tx, rx) = nowmp_util::mailbox(&nowmp_util::Clock::real());
        let mut buf = CtrlBuf::new(rx);
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            for msg in [Msg::Ack, Msg::Terminate] {
                let ctrl = Ctrl {
                    msg,
                    raw: bytes::Bytes::new(),
                    replier: None,
                };
                tx.send(ctrl).unwrap();
            }
        });
        let is_terminate = |c: &Ctrl| matches!(c.msg, Msg::Terminate);
        let got = buf.recv_where(Duration::MAX, is_terminate).unwrap();
        assert!(is_terminate(&got));
        sender.join().unwrap();
        assert!(matches!(
            buf.recv_where(Duration::MAX, is_terminate),
            Err(NetError::Disconnected(_))
        ));
        let backlog = buf.drain_where(|_| true);
        assert!(matches!(backlog[..], [Ctrl { msg: Msg::Ack, .. }]));
    }

    #[test]
    fn single_proc_read_write() {
        let mut ctx = make_ctx();
        ctx.write_f64(3, 2.5);
        assert_eq!(ctx.read_f64(3), 2.5);
        ctx.write_u64(100, 42); // different page (8 slots per page)
        assert_eq!(ctx.read_u64(100), 42);
        assert_eq!(ctx.read_u64(101), 0, "untouched slots read zero");
    }

    #[test]
    fn bulk_ops_cross_pages() {
        let mut ctx = make_ctx();
        let src: Vec<u64> = (0..50).collect();
        ctx.write_words(3, &src);
        let mut dst = vec![0u64; 50];
        ctx.read_words(3, &mut dst);
        assert_eq!(dst, src);

        let fsrc: Vec<f64> = (0..30).map(|i| i as f64 * 0.5).collect();
        ctx.write_f64s(100, &fsrc);
        let mut fdst = vec![0f64; 30];
        ctx.read_f64s(100, &mut fdst);
        assert_eq!(fdst, fsrc);
    }

    #[test]
    fn cache_hit_avoids_slow_path() {
        let mut ctx = make_ctx();
        ctx.write_u64(0, 1);
        let faults_before = ctx.stats().snapshot();
        for i in 0..8 {
            ctx.write_u64(i, i);
            let _ = ctx.read_u64(i);
        }
        let faults_after = ctx.stats().snapshot();
        assert_eq!(
            faults_after.write_faults, faults_before.write_faults,
            "same-page accesses must hit the cache"
        );
    }

    #[test]
    fn sync_reset_forces_revalidation() {
        let mut ctx = make_ctx();
        ctx.write_u64(0, 7);
        ctx.sync_reset();
        // Still readable (state preserved in core), value intact.
        assert_eq!(ctx.read_u64(0), 7);
    }

    #[test]
    fn single_proc_barrier_is_local() {
        let mut ctx = make_ctx();
        ctx.write_u64(0, 7);
        ctx.barrier();
        assert_eq!(ctx.read_u64(0), 7);
        assert_eq!(ctx.stats().snapshot().barrier_arrivals, 1);
    }

    #[test]
    fn self_managed_lock_roundtrip() {
        let mut ctx = make_ctx();
        ctx.lock(0);
        ctx.write_u64(0, 5);
        ctx.unlock(0);
        ctx.lock(0);
        assert_eq!(ctx.read_u64(0), 5);
        ctx.unlock(0);
        assert_eq!(ctx.stats().snapshot().lock_acquires, 2);
    }

    #[test]
    fn critical_section_helper() {
        let mut ctx = make_ctx();
        let v = ctx.critical(3, |c| {
            c.write_u64(9, 11);
            c.read_u64(9)
        });
        assert_eq!(v, 11);
    }

    #[test]
    fn params_roundtrip() {
        let mut ctx = make_ctx();
        ctx.set_params(vec![1, 2, 3]);
        assert_eq!(ctx.params(), &[1, 2, 3]);
    }

    // --- parking on a pushed diff (rule R) ---

    /// Rank 0 of a two-process team on `clock`, holding a copy of page
    /// 0 that lacks intervals 1 and 2 of rank 1. Rank 1's reply to a
    /// region fault acknowledged the subscription at seq 0, so both are
    /// expected; interval 1 was pushed (slot 1 := 11), interval 2 is
    /// still on its way.
    fn ctx_expecting_a_push(clock: &nowmp_util::Clock, timeout: Duration) -> (TmkCtx, Gpid) {
        use crate::records::Record;
        use crate::types::Vc;
        let net = Network::with_clock(
            2,
            1,
            NetModel::disabled(),
            nowmp_net::CostModel::disabled(),
            clock.clone(),
        );
        let ep = Arc::new(net.register(HostId(0)));
        let writer = net.register(HostId(1)).gpid();
        let gpid = ep.gpid();
        let mut pc = ProcCore::new(
            DsmConfig {
                page_size: 64,
                call_timeout: timeout,
                ..DsmConfig::test_small()
            },
            gpid,
            Stats::new_shared(),
            gpid,
        );
        // Page 0 was allocated before the team was founded, so a fault
        // with no copy fetches it whole.
        pc.found_team(Team::new(0, vec![gpid, writer]), &[gpid]);
        for seq in 1..=2 {
            let mut vc = Vc::new(2);
            vc.set(1, seq);
            let rec = Record {
                pid: 1,
                seq,
                vc: vc.clone(),
                pages: vec![0],
            };
            pc.learn(&vc, &[rec]);
        }
        // The region fault's `PageReq` goes to the writer, whose reply
        // brings the page as it was before both intervals and
        // acknowledges the subscription.
        let AccessPlan::Missing(requests) = pc.plan_access(0, false, true) else {
            panic!("no copy yet")
        };
        let [(
            dst,
            Msg::PageReq {
                subscribe: true, ..
            },
            expect,
        )] = &requests[..]
        else {
            panic!("one marked PageReq, got {requests:?}")
        };
        let rep = Msg::PageRep {
            applied: vec![],
            words: vec![0; 8],
            redirect: None,
            push_after: Some(0),
        };
        pc.fold(*expect, *dst, rep).unwrap();
        pc.deposit_push(
            0,
            writer,
            vec![(0, 1, Arc::new(crate::diff::Diff::of_run(1, &[11])))],
        );
        (TmkCtx::new(Arc::new(Mutex::new(pc)), ep, None), writer)
    }

    #[test]
    fn fault_parks_until_the_expected_push_is_deposited() {
        for clock in [nowmp_util::Clock::real(), nowmp_util::Clock::new_virtual()] {
            let (mut ctx, writer) = ctx_expecting_a_push(&clock, Duration::from_secs(30));
            let core = Arc::clone(ctx.core());
            let delay = Duration::from_millis(5);
            let (c2, t0) = (clock.clone(), clock.now());
            // The writer's push, as the service thread would deposit it.
            let pusher = clock.spawn("pusher", move || {
                c2.sleep(delay);
                core.lock().deposit_push(
                    0,
                    writer,
                    vec![(0, 2, Arc::new(crate::diff::Diff::of_run(2, &[22])))],
                );
            });
            // Nothing to ask the network for (nobody serves it here):
            // the fault waits for the deposit and applies both diffs.
            assert_eq!(ctx.read_u64(2), 22);
            assert_eq!(ctx.read_u64(1), 11);
            let waited = clock.elapsed_since(t0);
            pusher.join().unwrap();
            assert!(
                waited >= delay,
                "returned after {waited:?}, before the deposit"
            );
            if clock.is_virtual() {
                assert_eq!(waited, delay, "woken by the deposit, at its tick");
            }
            assert_eq!(clock.forced_advances(), 0, "the park must be clock-visible");
            let s = ctx.stats().snapshot();
            assert_eq!((s.push_hits, s.diffs_fetched), (2, 2));
        }
    }

    #[test]
    #[should_panic(expected = "pushed diff lost: page 0, writer pid 1, seq 2")]
    fn lost_push_trips_the_real_time_guard() {
        let (mut ctx, _writer) =
            ctx_expecting_a_push(&nowmp_util::Clock::real(), Duration::from_millis(50));
        let _ = ctx.read_u64(2);
    }

    // --- call_all, the one request path ---

    /// One round trip of the network `call_three` runs on.
    const RTT: Duration = Duration::from_millis(2);

    /// `call_all` of a `GcQuery` to three servers on a virtual clock,
    /// one `RTT` away, each answering with its own gpid after 0.2, 0.1
    /// and 0 ms of work — so when the requests overlap, the replies
    /// land in reverse request order. Checks that they come back in
    /// request order; returns when `local` ran and when the call
    /// returned, from its start.
    fn call_three(dataplane: DataPlaneConfig) -> (Duration, Duration) {
        let clock = nowmp_util::Clock::new_virtual();
        let model = NetModel {
            one_way_latency: RTT / 2,
            ..NetModel::disabled()
        };
        let net = Network::with_clock(4, 1, model, nowmp_net::CostModel::disabled(), clock.clone());
        let client = net.register(HostId(0));
        let (mut servers, mut threads) = (Vec::new(), Vec::new());
        for h in 1..4u16 {
            let ep = net.register(HostId(h));
            let (g, c) = (ep.gpid(), clock.clone());
            let work = Duration::from_micros(100 * (3 - h as u64));
            servers.push(g);
            threads.push(clock.spawn(format!("srv-{g}"), move || {
                let inc = ep.recv().unwrap();
                c.sleep(work);
                let rep = Msg::LockRep { prev: Some(g) }.to_bytes();
                inc.replier.unwrap().reply(rep);
            }));
        }
        let cfg = DsmConfig::test_small().with_dataplane(dataplane);
        let calls = servers
            .iter()
            .map(|&g| (g, Msg::GcQuery { epoch: 0 }))
            .collect();
        let c = clock.clone();
        let (replies, local_at, took) = clock
            .spawn("client", move || {
                let t0 = c.now();
                let mut local_at = None;
                let replies = call_all(&client, &cfg, calls, || {
                    local_at = Some(c.elapsed_since(t0));
                });
                (replies, local_at.unwrap(), c.elapsed_since(t0))
            })
            .join()
            .unwrap();
        threads.into_iter().for_each(|t| t.join().unwrap());
        let want: Vec<_> = servers
            .into_iter()
            .map(|g| (g, Msg::LockRep { prev: Some(g) }))
            .collect();
        assert_eq!(replies, want, "replies come back in request order");
        (local_at, took)
    }

    #[test]
    fn call_all_overlaps_when_the_data_plane_pipelines_and_serializes_otherwise() {
        let (local_at, took) = call_three(DataPlaneConfig::Overlap);
        assert!(
            took >= RTT && took < RTT * 3 / 2,
            "three overlapped requests took {took:?}, not about one round trip"
        );
        assert!(local_at < RTT, "local ran at {local_at:?}, after a reply");
        let (local_at, took) = call_three(DataPlaneConfig::Demand);
        assert!(took >= RTT * 3, "three serial requests took {took:?}");
        assert_eq!(local_at, took, "local runs after the last reply");
    }

    // --- ownership redirects ---

    /// Spawn a fake page server answering every `PageReq` with `rep`;
    /// the returned counter counts the requests it answered.
    fn page_server(ep: nowmp_net::Endpoint, rep: Msg) -> Arc<AtomicUsize> {
        let asked = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&asked);
        std::thread::spawn(move || {
            while let Ok(inc) = ep.recv() {
                match Msg::from_wire(&inc.payload).expect("malformed request") {
                    Msg::PageReq { .. } => {
                        count.fetch_add(1, Ordering::SeqCst);
                        inc.replier
                            .expect("PageReq is a request")
                            .reply(rep.to_bytes())
                    }
                    other => panic!("unexpected message at fake page server: {other:?}"),
                }
            }
        });
        asked
    }

    /// A ctx on host 0 of `net` whose page 0 carries a (possibly stale)
    /// owner hint pointing at `owner`.
    fn make_ctx_with_owner_hint(net: &Network, owner: nowmp_net::Gpid) -> TmkCtx {
        let ep = Arc::new(net.register(HostId(0)));
        let gpid = ep.gpid();
        let core = Arc::new(Mutex::new(ProcCore::new(
            DsmConfig {
                page_size: 64,
                ..DsmConfig::test_small()
            },
            gpid,
            Stats::new_shared(),
            gpid,
        )));
        {
            let mut pc = core.lock();
            pc.ensure_pages(1);
            pc.pages[0].owner = owner;
            pc.pages[0].shared = true;
        }
        TmkCtx::new(core, ep, None)
    }

    #[test]
    fn fault_follows_multi_hop_redirects() {
        let net = Network::new(3, NetModel::disabled());
        let b = net.register(HostId(1));
        let c = net.register(HostId(2));
        let (bg, cg) = (b.gpid(), c.gpid());
        // b's hint is stale — it points onward to c; c has the page.
        page_server(
            b,
            Msg::PageRep {
                applied: vec![],
                words: vec![],
                redirect: Some(cg),
                push_after: None,
            },
        );
        page_server(
            c,
            Msg::PageRep {
                applied: vec![],
                words: vec![42; 8],
                redirect: None,
                push_after: None,
            },
        );
        let mut ctx = make_ctx_with_owner_hint(&net, bg);
        assert_eq!(
            ctx.read_u64(0),
            42,
            "the value arrives through the redirect chain"
        );
        let owner = ctx.core().lock().pages[0].owner;
        assert_eq!(owner, cg, "install records the actual server as owner");
    }

    #[test]
    #[should_panic(expected = "too many ownership redirects")]
    fn fault_redirect_cycle_panics() {
        // b and c each claim the other owns the page: the chase must
        // stop loudly at MAX_REDIRECTS instead of ping-ponging forever.
        let net = Network::new(3, NetModel::disabled());
        let b = net.register(HostId(1));
        let c = net.register(HostId(2));
        let (bg, cg) = (b.gpid(), c.gpid());
        page_server(
            b,
            Msg::PageRep {
                applied: vec![],
                words: vec![],
                redirect: Some(cg),
                push_after: None,
            },
        );
        page_server(
            c,
            Msg::PageRep {
                applied: vec![],
                words: vec![],
                redirect: Some(bg),
                push_after: None,
            },
        );
        let mut ctx = make_ctx_with_owner_hint(&net, bg);
        let _ = ctx.read_u64(0);
    }

    #[test]
    fn a_redirect_back_to_the_asker_panics_and_leaves_the_hint_alone() {
        let net = Network::new(2, NetModel::disabled());
        let b = net.register(HostId(1));
        let bg = b.gpid();
        let mut ctx = make_ctx_with_owner_hint(&net, bg);
        // b claims we own the page: aiming the hint at ourselves would
        // make the next plan conjure a zero page over real data.
        let asked = page_server(
            b,
            Msg::PageRep {
                applied: vec![],
                words: vec![],
                redirect: Some(ctx.gpid()),
                push_after: None,
            },
        );
        let fault = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ctx.read_u64(0)));
        let payload = fault.expect_err("a redirect to ourselves must not resolve");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("page 0 redirect loop back to self"), "{msg}");
        assert_eq!(asked.load(Ordering::SeqCst), 1, "asked once, not chased");
        assert_eq!(ctx.core().lock().pages[0].owner, bg);
    }

    #[test]
    fn a_collection_redirect_reaims_the_hint_for_the_demand_fault() {
        let net = Network::new(3, NetModel::disabled());
        let b = net.register(HostId(1));
        let c = net.register(HostId(2));
        let (bg, cg) = (b.gpid(), c.gpid());
        let stale = page_server(
            b,
            Msg::PageRep {
                applied: vec![],
                words: vec![],
                redirect: Some(cg),
                push_after: None,
            },
        );
        let holder = page_server(
            c,
            Msg::PageRep {
                applied: vec![],
                words: vec![42; 8],
                redirect: None,
                push_after: None,
            },
        );
        let mut ctx = make_ctx_with_owner_hint(&net, bg);
        // The collection's batched plan asks the stale hint, and the
        // one fold re-aims it at the redirect's target ...
        let requests = ctx.core().lock().plan_pages(&[0], false);
        assert!(matches!(
            &requests[..],
            [(to, Msg::PageReq { page: 0, .. }, _)] if *to == bg
        ));
        ctx.collect_pages(&[0]);
        assert_eq!(ctx.core().lock().pages[0].owner, cg);
        // ... so the demand fault behind it sends one `PageReq`,
        // straight to c, and the page is in.
        assert_eq!(
            (stale.load(Ordering::SeqCst), holder.load(Ordering::SeqCst)),
            (1, 1)
        );
        assert_eq!(ctx.read_u64(0), 42);
        assert_eq!(holder.load(Ordering::SeqCst), 1, "served from the cache");
    }
}
