//! The simulated switch: hosts, endpoints, and request/reply transport.
//!
//! Topology and semantics:
//!
//! * every host hangs off one switch port with a full-duplex link;
//! * an [`Endpoint`] is a process mailbox bound to a host (re-bindable:
//!   migration re-labels the endpoint onto another host);
//! * messages are reliable and in-order per sender/receiver pair;
//! * a *request* carries a reply channel; the responder's
//!   [`Replier::reply`] routes the answer straight back to the waiting
//!   caller (the DSM's SIGIO-handler analog replies from the service
//!   thread while the application thread computes);
//! * unless the [`NetModel`] is free ([`NetModel::is_free`]), the
//!   sender reserves its host's outbound wire for the serialization
//!   time — senders sharing a workstation (a process's application and
//!   service threads, or two multiplexed processes) go back to back,
//!   each sleeping exactly to the end of its slot — and the receiver
//!   honors the propagation latency.

use crate::cost::CostModel;
use crate::model::NetModel;
use crate::stats::{LinkStats, NetStats, StatsSnapshot};
use crate::{Gpid, HostId};
use bytes::Bytes;
use nowmp_util::mailbox::{mailbox, MailboxReceiver, MailboxSender, RecvTimeoutError};
use nowmp_util::{waiting_for, Cause, Clock, Tick};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU16, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Errors surfaced by the transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Destination gpid is not registered (process left or never existed).
    Unknown(Gpid),
    /// The peer disconnected before replying.
    Disconnected(Gpid),
    /// No reply within the deadline (used to surface protocol deadlocks
    /// in tests instead of hanging forever).
    Timeout(Gpid),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Unknown(g) => write!(f, "unknown destination {g}"),
            NetError::Disconnected(g) => write!(f, "peer {g} disconnected"),
            NetError::Timeout(g) => write!(f, "timeout waiting for reply from {g}"),
        }
    }
}

impl std::error::Error for NetError {}

/// A message as delivered to a service loop.
pub struct Packet {
    /// Sender's process id.
    pub src: Gpid,
    /// Encoded payload.
    pub payload: Bytes,
    /// Present iff the sender awaits a reply.
    pub reply: Option<MailboxSender<Packet>>,
    /// Earliest delivery time on the network clock, under emulation.
    deliver_at: Option<Tick>,
    /// An [`Endpoint::wake`] token: carries nothing and never left the
    /// host.
    wake: bool,
}

/// An incoming message plus the means to answer it.
pub struct Incoming {
    /// Sender's process id.
    pub src: Gpid,
    /// Encoded payload.
    pub payload: Bytes,
    /// Reply handle when the sender used [`Endpoint::call`].
    pub replier: Option<Replier>,
}

/// Handle used by a service loop to answer a request.
pub struct Replier {
    net: Arc<NetInner>,
    from: Gpid,
    from_host: Arc<HostRec>,
    to: Gpid,
    tx: MailboxSender<Packet>,
}

impl Replier {
    /// Send `payload` back to the requester, with full cost accounting.
    /// The reply travels straight to the waiting caller's channel, not
    /// the requester's mailbox.
    pub fn reply(self, payload: Bytes) {
        self.reply_checked(payload);
    }

    /// The gpid that will receive the reply.
    pub fn requester(&self) -> Gpid {
        self.to
    }

    /// Answer the request; returns `false` if the requester vanished.
    pub fn reply_checked(self, payload: Bytes) -> bool {
        self.net.transmit(
            self.from,
            &self.from_host,
            self.to,
            payload,
            Route::Reply(&self.tx),
        )
    }
}

/// A workstation as the network sees it: its two link directions. No
/// processor is modelled, so processes sharing a host contend for its
/// links only.
struct HostRec {
    /// Next-free time of the host's *outbound* wire: everything sent
    /// from one workstation shares it. See [`NetInner::occupy_link`].
    outbound: Mutex<Tick>,
    /// Next-free time of the host's *inbound* wire. A single stream
    /// already pays its serialization at the sender, so an uncontended
    /// message is delivered at `send_finish + latency` exactly as
    /// before; but messages *converging* from different senders must
    /// drain one at a time through the receiver's port — the physical
    /// ceiling a flat `n - 1` collection hits at the master. See
    /// [`HostRec::receive_at`].
    inbound: Mutex<Tick>,
    link_stats: Arc<LinkStats>,
}

impl HostRec {
    /// FIFO inbound admission: each message occupies the receiving
    /// host's inbound path for `occ` — its serialization time plus the
    /// per-message receive overhead (interrupt + dispatch, the paper's
    /// PER_MSG_OVERHEAD) — ending at delivery. Uncontended (`inbound`
    /// free before `candidate - occ`, i.e. the bits flowed cut-through
    /// and the handler overlapped the tail of the transfer) this
    /// returns `candidate` unchanged, so single-stream timings — and
    /// the calibrated Table 1/2 pins — are untouched; under
    /// convergence it returns the earliest slot after the queue
    /// drains. The overhead term is what a reduce tree amortizes:
    /// `n - 1` small messages converging on the master each pay it in
    /// turn, the root's few aggregates carrying the same bytes pay it
    /// once each.
    fn receive_at(&self, candidate: Tick, occ: Duration) -> Tick {
        let mut free = self.inbound.lock();
        let start = (*free).max(Tick::from_nanos(
            candidate
                .as_nanos()
                .saturating_sub(occ.as_nanos().min(u64::MAX as u128) as u64),
        ));
        let done = start + occ;
        *free = done;
        done
    }
}

struct EndpointRec {
    tx: MailboxSender<Packet>,
    host: Arc<AtomicU16>,
}

struct NetInner {
    model: NetModel,
    cost: CostModel,
    clock: Clock,
    stats: NetStats,
    hosts: RwLock<Vec<Arc<HostRec>>>,
    endpoints: RwLock<HashMap<u32, EndpointRec>>,
    next_gpid: AtomicU32,
}

impl NetInner {
    fn host(&self, id: HostId) -> Arc<HostRec> {
        Arc::clone(&self.hosts.read()[id.0 as usize])
    }

    /// Charge `d` of wire occupancy on `host`'s outbound link, returning
    /// once the transmission has left it.
    ///
    /// The link is a reservation book, not a lock: a sender takes the
    /// slot `[max(free, now), +d)` and sleeps once, to the slot's end.
    /// Back-to-back senders leave no idle wire between them, and the
    /// wait is an ordinary clock deadline — a waiter is never a
    /// deadline-less blocked participant the virtual clock could leap
    /// past to an unrelated, far-off compute charge. Senders that ask at
    /// the same tick are served in the order they reach the book.
    fn occupy_link(&self, host: &HostRec, d: Duration) {
        let _cause = waiting_for(Cause::Transmit);
        let done = {
            let mut free = host.outbound.lock();
            *free = (*free).max(self.clock.now()) + d;
            *free
        };
        self.clock.sleep_until(done);
    }

    /// The one transmit path: accounting, plus the wire's delays when
    /// the model has any. A request or one-way message goes to `dst`'s
    /// mailbox and fails if `dst` is not registered; a reply goes down
    /// the waiting caller's own channel, and is still sent (and charged
    /// to the sender) if the requester has left.
    fn transmit(
        &self,
        src: Gpid,
        src_host: &HostRec,
        dst: Gpid,
        payload: Bytes,
        route: Route<'_>,
    ) -> bool {
        let (reply, via, push) = match route {
            Route::OneWay { push } => (None, None, push),
            Route::Call(reply) => (Some(reply), None, false),
            Route::Reply(via) => (None, Some(via), false),
        };
        let bytes = (payload.len() + self.model.header_bytes) as u64;

        // Sender-side occupancy: concurrent senders on the same host
        // contend, as they would on one physical wire.
        let occupancy = self.model.sender_time(payload.len());
        if !occupancy.is_zero() {
            self.occupy_link(src_host, occupancy);
        }

        // Resolve destination *after* serialization (a migrating peer may
        // have re-labeled meanwhile; the switch forwards to its port).
        let (mailbox, dst_rec) = match self.endpoints.read().get(&dst.0) {
            Some(rec) => (
                via.is_none().then(|| rec.tx.clone()),
                Some(self.host(HostId(rec.host.load(Ordering::Acquire)))),
            ),
            None => (None, None),
        };
        let Some(tx) = via.or(mailbox.as_ref()) else {
            return false;
        };

        // Queue on the inbound wire of the destination's current host.
        let deliver_at = (!self.model.is_free()).then(|| {
            let candidate = self.clock.now() + self.model.latency();
            match &dst_rec {
                Some(h) => h.receive_at(candidate, self.model.receive_time(payload.len())),
                None => candidate,
            }
        });

        // The push column first: a snapshot reads it after the totals,
        // so a push it half sees is never more in the push column than
        // in the totals.
        if push {
            self.stats.record_push(bytes);
        }
        src_host.link_stats.record_out(bytes);
        if let Some(h) = &dst_rec {
            h.link_stats.record_in(bytes);
        }
        self.stats.record_msg(bytes);

        tx.send(Packet {
            src,
            payload,
            reply,
            deliver_at,
            wake: false,
        })
        .is_ok()
    }
}

/// How [`NetInner::transmit`] delivers a message.
enum Route<'a> {
    /// Fire-and-forget to `dst`'s mailbox; `push` counts it as push
    /// traffic as well ([`Endpoint::send_push`]).
    OneWay { push: bool },
    /// A request to `dst`'s mailbox, answered down this channel.
    Call(MailboxSender<Packet>),
    /// A reply, down the waiting caller's own channel.
    Reply(&'a MailboxSender<Packet>),
}

/// The simulated switched network. Cheap to clone (all state shared).
#[derive(Clone)]
pub struct Network {
    inner: Arc<NetInner>,
}

impl Network {
    /// Create a network with `hosts` initial workstations, each a pair
    /// of links and no processor. Host-side costs default to
    /// [`CostModel::disabled`]; the time backend comes from the
    /// environment ([`Clock::from_env`]): real by default, virtual under
    /// `NOWMP_CLOCK=virtual`.
    pub fn new(hosts: usize, model: NetModel) -> Self {
        Self::with_clock(hosts, 1, model, CostModel::disabled(), Clock::from_env())
    }

    /// [`Network::new`] with an explicit host [`CostModel`] and time
    /// backend. Everything that shares a simulation must share one
    /// clock — pass clones of the same handle. `_cpu_slots` is ignored:
    /// no host models CPU slots.
    pub fn with_clock(
        hosts: usize,
        _cpu_slots: usize,
        model: NetModel,
        cost: CostModel,
        clock: Clock,
    ) -> Self {
        let net = Network {
            inner: Arc::new(NetInner {
                model,
                cost,
                clock,
                stats: NetStats::new(),
                hosts: RwLock::new(Vec::new()),
                endpoints: RwLock::new(HashMap::new()),
                next_gpid: AtomicU32::new(1),
            }),
        };
        for _ in 0..hosts {
            net.add_host();
        }
        net
    }

    /// The clock every delay in this network is charged on.
    pub fn clock(&self) -> &Clock {
        &self.inner.clock
    }

    /// Add a workstation to the pool; returns its id.
    pub fn add_host(&self) -> HostId {
        let mut hosts = self.inner.hosts.write();
        let id = HostId(hosts.len() as u16);
        hosts.push(Arc::new(HostRec {
            outbound: Mutex::new(Tick::ZERO),
            inbound: Mutex::new(Tick::ZERO),
            link_stats: self.inner.stats.add_link(),
        }));
        id
    }

    /// Number of hosts ever added.
    pub fn host_count(&self) -> usize {
        self.inner.hosts.read().len()
    }

    /// The wire cost model in force.
    pub fn model(&self) -> &NetModel {
        &self.inner.model
    }

    /// The host cost model in force.
    pub fn cost_model(&self) -> &CostModel {
        &self.inner.cost
    }

    /// Snapshot all traffic counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Register a new process endpoint on `host`.
    pub fn register(&self, host: HostId) -> Endpoint {
        assert!(
            (host.0 as usize) < self.host_count(),
            "register on unknown host {host}"
        );
        let gpid = Gpid(self.inner.next_gpid.fetch_add(1, Ordering::Relaxed));
        let (tx, rx) = mailbox(&self.inner.clock);
        let host_cell = Arc::new(AtomicU16::new(host.0));
        self.inner.endpoints.write().insert(
            gpid.0,
            EndpointRec {
                tx,
                host: Arc::clone(&host_cell),
            },
        );
        Endpoint {
            net: Arc::clone(&self.inner),
            gpid,
            host: host_cell,
            inbox: Mutex::new((None, rx)),
        }
    }

    /// Remove a process endpoint (the process left the computation).
    /// Subsequent sends to it fail with [`NetError::Unknown`].
    pub fn unregister(&self, gpid: Gpid) {
        self.inner.endpoints.write().remove(&gpid.0);
    }

    /// Re-label `gpid` onto `new_host` (process migration). The mailbox
    /// and all queued messages survive; only link accounting moves.
    pub fn relabel(&self, gpid: Gpid, new_host: HostId) -> Result<(), NetError> {
        assert!(
            (new_host.0 as usize) < self.host_count(),
            "relabel to unknown host {new_host}"
        );
        let eps = self.inner.endpoints.read();
        match eps.get(&gpid.0) {
            Some(rec) => {
                rec.host.store(new_host.0, Ordering::Release);
                Ok(())
            }
            None => Err(NetError::Unknown(gpid)),
        }
    }

    /// Current host of a process.
    pub fn host_of(&self, gpid: Gpid) -> Option<HostId> {
        self.inner
            .endpoints
            .read()
            .get(&gpid.0)
            .map(|r| HostId(r.host.load(Ordering::Acquire)))
    }

    /// Emulate streaming a migration image of `bytes` (paper: 8.1 MB/s)
    /// from `src_host`, returning the charged duration. The rate comes
    /// from the host [`CostModel`]; traffic is accounted on both hosts'
    /// links.
    pub fn charge_migration(&self, src_host: HostId, dst_host: HostId, bytes: usize) -> Duration {
        let d = self.inner.cost.migration_time(bytes);
        let src = self.inner.host(src_host);
        let dst = self.inner.host(dst_host);
        src.link_stats.record_out(bytes as u64);
        dst.link_stats.record_in(bytes as u64);
        self.inner.stats.record_msg(bytes as u64);
        if !d.is_zero() {
            self.inner.occupy_link(&src, d);
        }
        d
    }

    /// Emulate process creation on a host (paper: 0.6–0.8 s), returning
    /// the charged duration (from the host [`CostModel`]).
    pub fn charge_spawn(&self) -> Duration {
        let d = self.inner.cost.spawn_time();
        if !d.is_zero() {
            self.inner.clock.sleep(d);
        }
        d
    }
}

/// A process's connection to the network: mailbox plus send/call API.
pub struct Endpoint {
    net: Arc<NetInner>,
    gpid: Gpid,
    host: Arc<AtomicU16>,
    /// The head of the inbox when [`Self::try_recv`] took it off the
    /// mailbox and found it still on the wire (every receive call looks
    /// there first, so arrival order holds), then the mailbox itself.
    /// The lock makes the single-consumer mailbox shareable: the
    /// service thread receives while the application thread sends.
    inbox: Mutex<(Option<Packet>, MailboxReceiver<Packet>)>,
}

/// Default deadline for [`Endpoint::call`]; long enough for any emulated
/// protocol exchange, short enough to turn a deadlock into a test error.
pub const CALL_TIMEOUT: Duration = Duration::from_secs(120);

impl Endpoint {
    /// This endpoint's immutable process id.
    pub fn gpid(&self) -> Gpid {
        self.gpid
    }

    /// The network's clock (shared by all endpoints of one network).
    pub fn clock(&self) -> &Clock {
        &self.net.clock
    }

    /// The host cost model (shared by all endpoints of one network).
    pub fn cost(&self) -> &CostModel {
        &self.net.cost
    }

    /// The host this endpoint currently resides on.
    pub fn host(&self) -> HostId {
        HostId(self.host.load(Ordering::Acquire))
    }

    fn host_rec(&self) -> Arc<HostRec> {
        self.net.host(self.host())
    }

    /// Fire-and-forget send.
    pub fn send(&self, dst: Gpid, payload: Bytes) -> Result<(), NetError> {
        self.send_one_way(dst, payload, false)
    }

    /// [`Self::send`] for data sent ahead of any request (a diff pushed
    /// to a subscribed reader): the same message on the same wire, also
    /// counted in [`crate::StatsSnapshot::pushed_bytes`].
    pub fn send_push(&self, dst: Gpid, payload: Bytes) -> Result<(), NetError> {
        self.send_one_way(dst, payload, true)
    }

    fn send_one_way(&self, dst: Gpid, payload: Bytes, push: bool) -> Result<(), NetError> {
        if self.net.transmit(
            self.gpid,
            &self.host_rec(),
            dst,
            payload,
            Route::OneWay { push },
        ) {
            Ok(())
        } else {
            Err(NetError::Unknown(dst))
        }
    }

    /// Request/reply: send `payload` to `dst` and block for the answer.
    pub fn call(&self, dst: Gpid, payload: Bytes) -> Result<Bytes, NetError> {
        self.call_deadline(dst, payload, CALL_TIMEOUT)
    }

    /// [`Self::call`] with an explicit deadline.
    pub fn call_deadline(
        &self,
        dst: Gpid,
        payload: Bytes,
        timeout: Duration,
    ) -> Result<Bytes, NetError> {
        self.call_begin(dst, payload)?.wait(timeout)
    }

    /// Issue a request without blocking for the answer: the scatter
    /// half of a scatter-gather exchange. Returns a [`PendingCall`]
    /// whose [`PendingCall::wait`] is exactly the gather half of
    /// [`Self::call_deadline`]; issuing several before waiting on any
    /// makes a multi-peer fault pay the max of the peers' latencies
    /// instead of the sum.
    pub fn call_begin(&self, dst: Gpid, payload: Bytes) -> Result<PendingCall, NetError> {
        let (tx, rx) = mailbox(&self.net.clock);
        if !self
            .net
            .transmit(self.gpid, &self.host_rec(), dst, payload, Route::Call(tx))
        {
            return Err(NetError::Unknown(dst));
        }
        Ok(PendingCall {
            clock: self.net.clock.clone(),
            dst,
            rx,
        })
    }

    /// Loopback wake: put an empty local token into this endpoint's own
    /// mailbox, so a thread blocked in [`Self::recv_burst`] returns and
    /// looks at whatever its owner queued for it off the wire. The token
    /// never touches a link: no reservation, no [`NetStats`] entry, no
    /// virtual time. Only `recv_burst` reports it (by returning, maybe
    /// with nothing appended); the other receive calls skip it. A no-op
    /// once the endpoint is unregistered.
    pub fn wake(&self) {
        let tx = match self.net.endpoints.read().get(&self.gpid.0) {
            Some(rec) => rec.tx.clone(),
            None => return,
        };
        let _ = tx.send(Packet {
            src: self.gpid,
            payload: Bytes::new(),
            reply: None,
            deliver_at: None,
            wake: true,
        });
    }

    /// Turn a packet into a delivered message (sleeping to its modeled
    /// delivery time); `None` for a wake token.
    fn unpack(&self, pkt: Packet) -> Option<Incoming> {
        if pkt.wake {
            return None;
        }
        if let Some(at) = pkt.deliver_at {
            self.net.clock.sleep_until(at);
        }
        let replier = pkt.reply.map(|tx| Replier {
            net: Arc::clone(&self.net),
            from: self.gpid,
            from_host: self.host_rec(),
            to: pkt.src,
            tx,
        });
        // The Replier keeps the raw reply sender: answering goes through
        // the full transmit path for accounting, then down that channel.
        Some(Incoming {
            src: pkt.src,
            payload: pkt.payload,
            replier,
        })
    }

    /// The next packet in arrival order, blocking for it (`limit`: a
    /// real-time guard). `Ok(None)` when the guard ran out.
    fn next_packet(&self, limit: Option<Duration>) -> Result<Option<Packet>, NetError> {
        let (on_wire, rx) = &mut *self.inbox.lock();
        if let Some(pkt) = on_wire.take() {
            return Ok(Some(pkt));
        }
        let got = match limit {
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(left) => rx.recv_timeout(left),
        };
        match got {
            Ok(pkt) => Ok(Some(pkt)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(NetError::Disconnected(self.gpid)),
        }
    }

    /// Blocking receive; `Err` means the network shut down.
    pub fn recv(&self) -> Result<Incoming, NetError> {
        loop {
            let pkt = self.next_packet(None)?.expect("no guard, no timeout");
            if let Some(inc) = self.unpack(pkt) {
                return Ok(inc);
            }
        }
    }

    /// Receive with a (real-time) deadline.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<Incoming>, NetError> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            let Some(pkt) = self.next_packet(Some(left))? else {
                return Ok(None);
            };
            if let Some(inc) = self.unpack(pkt) {
                return Ok(Some(inc));
            }
        }
    }

    /// Non-blocking receive, in modeled time too: a message that is
    /// queued but whose delivery time is still in the future has not
    /// arrived, and is left at the head of the inbox. (A caller with
    /// something better to do than wait for it — the service thread
    /// between two pushes — must not sleep through its own link time.)
    pub fn try_recv(&self) -> Option<Incoming> {
        loop {
            let pkt = self.queued_packet()?;
            if pkt.deliver_at.is_some_and(|at| self.net.clock.now() < at) {
                self.inbox.lock().0 = Some(pkt);
                return None;
            }
            if let Some(inc) = self.unpack(pkt) {
                return Some(inc);
            }
        }
    }

    /// The next packet in arrival order if one is queued, delivered
    /// or not. Never blocks.
    fn queued_packet(&self) -> Option<Packet> {
        let (on_wire, rx) = &mut *self.inbox.lock();
        on_wire.take().or_else(|| rx.try_recv().ok())
    }

    /// Block until something arrives — a message or a [`Self::wake`]
    /// token — then drain already-queued messages, up to `max` in all.
    /// One sleep/wakeup (and, in the service loop, one pass over the
    /// dispatch) amortizes over a whole burst instead of paying per
    /// message. Returns the number of messages appended to `out` (0
    /// when only a wake arrived); `Err` means the network shut down
    /// (nothing appended).
    pub fn recv_burst(&self, max: usize, out: &mut Vec<Incoming>) -> Result<usize, NetError> {
        let mut next = self.next_packet(None)?;
        let mut n = 0;
        while let Some(pkt) = next {
            if let Some(inc) = self.unpack(pkt) {
                out.push(inc);
                n += 1;
            }
            next = if n < max { self.queued_packet() } else { None };
        }
        Ok(n)
    }
}

/// A request in flight, created by [`Endpoint::call_begin`]. Dropping
/// it abandons the reply, which then goes nowhere and holds nothing.
pub struct PendingCall {
    clock: Clock,
    dst: Gpid,
    rx: MailboxReceiver<Packet>,
}

impl std::fmt::Debug for PendingCall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingCall")
            .field("dst", &self.dst)
            .finish()
    }
}

impl PendingCall {
    /// Block for the reply — the gather half of
    /// [`Endpoint::call_deadline`]: the wait is clock-visible, the
    /// timeout is a *real-time* deadlock guard under both backends, and
    /// wire delivery time is slept to on arrival.
    pub fn wait(self, timeout: Duration) -> Result<Bytes, NetError> {
        let pkt = self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => NetError::Timeout(self.dst),
            RecvTimeoutError::Disconnected => NetError::Disconnected(self.dst),
        })?;
        if let Some(at) = pkt.deliver_at {
            self.clock.sleep_until(at);
        }
        Ok(pkt.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net2() -> (Network, Endpoint, Endpoint) {
        let net = Network::new(2, NetModel::disabled());
        let a = net.register(HostId(0));
        let b = net.register(HostId(1));
        (net, a, b)
    }

    #[test]
    fn send_and_recv() {
        let (_net, a, b) = net2();
        a.send(b.gpid(), Bytes::from_static(b"hello")).unwrap();
        let got = b.recv().unwrap();
        assert_eq!(&got.payload[..], b"hello");
        assert_eq!(got.src, a.gpid());
        assert!(got.replier.is_none());
    }

    #[test]
    fn request_reply_roundtrip_threaded() {
        let (_net, a, b) = net2();
        let b_gpid = b.gpid();
        let server = std::thread::spawn(move || {
            let inc = b.recv().unwrap();
            assert_eq!(&inc.payload[..], b"ping");
            inc.replier.unwrap().reply(Bytes::from_static(b"pong"));
        });
        let reply = a.call(b_gpid, Bytes::from_static(b"ping")).unwrap();
        assert_eq!(&reply[..], b"pong");
        server.join().unwrap();
    }

    #[test]
    fn scatter_gather_call_begin() {
        let net = Network::new(3, NetModel::disabled());
        let a = net.register(HostId(0));
        let b = net.register(HostId(1));
        let c = net.register(HostId(2));
        let serve = |ep: Endpoint, tag: &'static [u8]| {
            std::thread::spawn(move || {
                let inc = ep.recv().unwrap();
                inc.replier.unwrap().reply(Bytes::from_static(tag));
            })
        };
        let (bg, cg) = (b.gpid(), c.gpid());
        let sb = serve(b, b"from-b");
        let sc = serve(c, b"from-c");
        // Scatter both requests before gathering either reply.
        let pb = a.call_begin(bg, Bytes::from_static(b"ping")).unwrap();
        let pc = a.call_begin(cg, Bytes::from_static(b"ping")).unwrap();
        assert_eq!(&pb.wait(CALL_TIMEOUT).unwrap()[..], b"from-b");
        assert_eq!(&pc.wait(CALL_TIMEOUT).unwrap()[..], b"from-c");
        sb.join().unwrap();
        sc.join().unwrap();
    }

    #[test]
    fn call_begin_unknown_destination() {
        let (_net, a, _b) = net2();
        let err = a.call_begin(Gpid(999), Bytes::new()).unwrap_err();
        assert_eq!(err, NetError::Unknown(Gpid(999)));
    }

    #[test]
    fn dropped_pending_call_abandons_delivered_reply() {
        let clock = Clock::new_virtual();
        let net = Network::with_clock(
            2,
            1,
            NetModel::disabled(),
            CostModel::disabled(),
            clock.clone(),
        );
        let (a, b) = (net.register(HostId(0)), net.register(HostId(1)));
        let p = a.call_begin(b.gpid(), Bytes::from_static(b"ping")).unwrap();
        let inc = b.recv().unwrap();
        inc.replier.unwrap().reply(Bytes::from_static(b"pong"));
        // An abandoned reply holds nothing: neither while it sits in
        // the mailbox nor once the handle is gone does it pin time.
        clock.sleep(Duration::from_secs(1));
        drop(p);
        clock.sleep(Duration::from_secs(1));
        assert_eq!(clock.now(), Tick::ZERO + Duration::from_secs(2));
        assert_eq!(clock.forced_advances(), 0);
    }

    #[test]
    fn unknown_destination() {
        let (_net, a, _b) = net2();
        let err = a.send(Gpid(999), Bytes::new()).unwrap_err();
        assert_eq!(err, NetError::Unknown(Gpid(999)));
    }

    #[test]
    fn unregister_makes_destination_unknown() {
        let (net, a, b) = net2();
        let bg = b.gpid();
        net.unregister(bg);
        assert_eq!(a.send(bg, Bytes::new()).unwrap_err(), NetError::Unknown(bg));
    }

    #[test]
    fn stats_count_messages_and_headers() {
        let (net, a, b) = net2();
        a.send(b.gpid(), Bytes::from(vec![0u8; 100])).unwrap();
        b.recv().unwrap();
        let s = net.stats();
        assert_eq!(s.total_msgs, 1);
        assert_eq!(s.total_bytes, 100 + 42);
        assert_eq!(s.links[0].bytes_out, 142);
        assert_eq!(s.links[1].bytes_in, 142);
        assert_eq!(s.max_link_bytes(), 142); // both links saw the same traffic
    }

    #[test]
    fn a_push_is_counted_in_the_totals_and_in_its_own_column() {
        let (net, a, b) = net2();
        a.send(b.gpid(), Bytes::from(vec![0u8; 100])).unwrap();
        a.send_push(b.gpid(), Bytes::from(vec![0u8; 10])).unwrap();
        let s = net.stats();
        assert_eq!((s.total_msgs, s.total_bytes), (2, 142 + 52));
        assert_eq!(s.pushed_bytes, 52);
        assert_eq!(s.links[1].bytes_in, 142 + 52);
    }

    #[test]
    fn reply_accounts_on_both_links() {
        let (net, a, b) = net2();
        let b_gpid = b.gpid();
        let server = std::thread::spawn(move || {
            let inc = b.recv().unwrap();
            inc.replier.unwrap().reply(Bytes::from(vec![0u8; 10]));
        });
        a.call(b_gpid, Bytes::from(vec![0u8; 20])).unwrap();
        server.join().unwrap();
        let s = net.stats();
        assert_eq!(s.total_msgs, 2);
        assert_eq!(s.links[0].bytes_out, 20 + 42);
        assert_eq!(s.links[0].bytes_in, 10 + 42);
        assert_eq!(s.links[1].bytes_in, 20 + 42);
        assert_eq!(s.links[1].bytes_out, 10 + 42);
    }

    #[test]
    fn relabel_moves_accounting() {
        let net = Network::new(3, NetModel::disabled());
        let a = net.register(HostId(0));
        let b = net.register(HostId(1));
        net.relabel(b.gpid(), HostId(2)).unwrap();
        assert_eq!(net.host_of(b.gpid()), Some(HostId(2)));
        a.send(b.gpid(), Bytes::from(vec![0u8; 8])).unwrap();
        b.recv().unwrap();
        let s = net.stats();
        assert_eq!(s.links[1].bytes_in, 0, "old host sees nothing");
        assert_eq!(s.links[2].bytes_in, 50, "new host receives");
        // Sends from b now occupy host 2's link.
        b.send(a.gpid(), Bytes::new()).unwrap();
        let s = net.stats();
        assert_eq!(s.links[2].bytes_out, 42);
    }

    #[test]
    fn relabel_unknown_gpid_errors() {
        let net = Network::new(2, NetModel::disabled());
        assert!(net.relabel(Gpid(77), HostId(1)).is_err());
    }

    #[test]
    fn emulated_latency_is_enforced() {
        let mut model = NetModel::disabled();
        model.one_way_latency = Duration::from_micros(500);
        let net = Network::new(2, model);
        let a = net.register(HostId(0));
        let b = net.register(HostId(1));
        let b_gpid = b.gpid();
        let server = std::thread::spawn(move || {
            let inc = b.recv().unwrap();
            inc.replier.unwrap().reply(Bytes::from_static(b"x"));
        });
        // Measure on the network clock so the bound holds under both
        // backends (wall time when real, exact virtual time otherwise).
        let clock = net.clock().clone();
        let t = clock.now();
        a.call(b_gpid, Bytes::from_static(b"y")).unwrap();
        let rtt = clock.elapsed_since(t);
        server.join().unwrap();
        assert!(
            rtt >= Duration::from_micros(1000),
            "roundtrip {rtt:?} < 2x latency"
        );
        assert!(
            rtt < Duration::from_millis(100),
            "roundtrip {rtt:?} unexpectedly slow"
        );
    }

    #[test]
    fn migration_charge_accounts_and_times() {
        let mut cost = CostModel::disabled();
        cost.migration_bandwidth = 10e6; // 10 MB/s
        let net = Network::with_clock(2, 1, NetModel::disabled(), cost, Clock::from_env());
        let t = net.clock().now();
        let d = net.charge_migration(HostId(0), HostId(1), 1_000_000); // 0.1 s
        assert!((d.as_secs_f64() - 0.1).abs() < 1e-9);
        assert!(net.clock().elapsed_since(t) >= d);
        let s = net.stats();
        assert_eq!(s.links[0].bytes_out, 1_000_000);
        assert_eq!(s.links[1].bytes_in, 1_000_000);
    }

    #[test]
    fn concurrent_calls_stress() {
        let net = Network::new(4, NetModel::disabled());
        let server_ep = net.register(HostId(0));
        let server_gpid = server_ep.gpid();
        let server = std::thread::spawn(move || {
            let mut served = 0;
            while let Ok(inc) = server_ep.recv() {
                if inc.payload.is_empty() {
                    break;
                }
                let echo = inc.payload.clone();
                inc.replier.unwrap().reply(echo);
                served += 1;
            }
            served
        });
        let mut clients = vec![];
        for i in 1..4u16 {
            let net = net.clone();
            clients.push(std::thread::spawn(move || {
                let ep = net.register(HostId(i));
                for k in 0..200u32 {
                    let msg = Bytes::from(k.to_le_bytes().to_vec());
                    let r = ep.call(server_gpid, msg.clone()).unwrap();
                    assert_eq!(r, msg);
                }
            }));
        }
        for c in clients {
            c.join().unwrap();
        }
        // Shut the server down.
        let ep = net.register(HostId(0));
        ep.send(server_gpid, Bytes::new()).unwrap();
        assert_eq!(server.join().unwrap(), 600);
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use crate::model::NetModel;

    #[test]
    fn recv_timeout_returns_none_when_quiet() {
        let net = Network::new(1, NetModel::disabled());
        let ep = net.register(HostId(0));
        let got = ep.recv_timeout(Duration::from_millis(20)).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn try_recv_nonblocking() {
        let net = Network::new(2, NetModel::disabled());
        let a = net.register(HostId(0));
        let b = net.register(HostId(1));
        assert!(b.try_recv().is_none());
        a.send(b.gpid(), Bytes::from_static(b"x")).unwrap();
        // Delivery through an in-process channel is immediate.
        let got = b.try_recv().expect("message queued");
        assert_eq!(&got.payload[..], b"x");
    }

    #[test]
    fn try_recv_leaves_a_message_on_the_wire_alone() {
        let clock = Clock::new_virtual();
        let net = Network::with_clock(
            2,
            1,
            NetModel::paper_1999(),
            CostModel::disabled(),
            clock.clone(),
        );
        let a = net.register(HostId(0));
        let b = net.register(HostId(1));
        for m in [&b"1"[..], &b"2"[..]] {
            a.send(b.gpid(), Bytes::copy_from_slice(m)).unwrap();
        }
        // Both are queued; neither has been delivered yet. Asking is
        // free: no time passes, nothing is consumed or reordered.
        let sent = clock.now();
        assert!(b.try_recv().is_none() && b.try_recv().is_none());
        assert_eq!(clock.now(), sent, "a non-blocking receive must not sleep");
        clock.sleep(net.model().latency());
        assert_eq!(&b.try_recv().expect("delivered by now").payload[..], b"1");
        assert_eq!(&b.recv().unwrap().payload[..], b"2");
        assert_eq!(clock.forced_advances(), 0);
    }

    #[test]
    fn recv_burst_drains_queued_messages_in_order() {
        let net = Network::new(2, NetModel::disabled());
        let a = net.register(HostId(0));
        let b = net.register(HostId(1));
        for i in 0..5u8 {
            a.send(b.gpid(), Bytes::from(vec![i])).unwrap();
        }
        let mut burst = Vec::new();
        let n = b.recv_burst(4, &mut burst).unwrap();
        assert_eq!(n, 4, "burst caps at max");
        let vals: Vec<u8> = burst.iter().map(|i| i.payload[0]).collect();
        assert_eq!(vals, vec![0, 1, 2, 3], "burst preserves arrival order");
        burst.clear();
        assert_eq!(b.recv_burst(4, &mut burst).unwrap(), 1);
        assert_eq!(burst[0].payload[0], 4);
    }

    #[test]
    fn wake_reaches_recv_burst_and_nothing_else() {
        // Under the paper's wire model on a virtual clock, where a real
        // message would move counters, link books and time.
        let clock = Clock::new_virtual();
        let net = Network::with_clock(
            2,
            1,
            NetModel::paper_1999(),
            CostModel::disabled(),
            clock.clone(),
        );
        let a = net.register(HostId(0));
        let b = net.register(HostId(1));
        b.wake();
        let mut burst = Vec::new();
        assert_eq!(
            b.recv_burst(4, &mut burst),
            Ok(0),
            "woken, nothing to serve"
        );
        assert!(burst.is_empty());
        let s = net.stats();
        assert_eq!((s.total_msgs, s.total_bytes, s.max_link_bytes()), (0, 0, 0));
        assert_eq!(clock.now(), Tick::ZERO, "a wake costs no virtual time");
        // A wake queued among messages: the messages come out, in
        // order, and the token is nobody's message.
        a.send(b.gpid(), Bytes::from_static(b"1")).unwrap();
        b.wake();
        a.send(b.gpid(), Bytes::from_static(b"2")).unwrap();
        assert_eq!(b.recv_burst(4, &mut burst), Ok(2));
        assert_eq!(
            (&burst[0].payload[..], &burst[1].payload[..]),
            (&b"1"[..], &b"2"[..])
        );
        assert_eq!(net.stats().total_msgs, 2);
        b.wake();
        assert!(b.try_recv().is_none(), "only recv_burst reports a wake");
        // After unregistering there is no mailbox to wake.
        net.unregister(b.gpid());
        b.wake();
        assert_eq!(clock.forced_advances(), 0);
    }

    #[test]
    fn call_timeout_surfaces_deadlock() {
        let net = Network::new(2, NetModel::disabled());
        let a = net.register(HostId(0));
        let b = net.register(HostId(1)); // nobody serves b's mailbox
        let err = a
            .call_deadline(
                b.gpid(),
                Bytes::from_static(b"?"),
                Duration::from_millis(30),
            )
            .unwrap_err();
        assert_eq!(err, NetError::Timeout(b.gpid()));
    }

    #[test]
    fn charges_are_free_without_emulation() {
        let net = Network::new(2, NetModel::disabled());
        assert_eq!(net.charge_spawn(), Duration::ZERO);
        let d = net.charge_migration(HostId(0), HostId(1), 1 << 20);
        assert_eq!(d, Duration::ZERO);
        // ... but the bytes are still accounted.
        assert_eq!(net.stats().links[1].bytes_in, 1 << 20);
    }

    #[test]
    fn gpids_are_unique_across_registrations() {
        let net = Network::new(1, NetModel::disabled());
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50 {
            let ep = net.register(HostId(0));
            assert!(seen.insert(ep.gpid()), "gpid reused");
            net.unregister(ep.gpid());
        }
    }

    #[test]
    fn messages_are_fifo_per_sender() {
        let net = Network::new(2, NetModel::disabled());
        let a = net.register(HostId(0));
        let b = net.register(HostId(1));
        for i in 0..100u32 {
            a.send(b.gpid(), Bytes::from(i.to_le_bytes().to_vec()))
                .unwrap();
        }
        for i in 0..100u32 {
            let got = b.recv().unwrap();
            assert_eq!(got.payload[..], i.to_le_bytes());
        }
    }
}
