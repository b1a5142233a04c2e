//! Real vs. virtual time — the [`Clock`] every layer tells time by.
//!
//! The network emulation charges the paper's measured delays (63 µs
//! latencies, 0.7 s process creation, 8.1 MB/s migration streams). With
//! the real backend those delays cost wall time (hybrid sleep + spin).
//! The virtual backend instead keeps a *discrete-event* time source
//! shared by every thread of one simulation: virtual time advances to
//! the earliest pending deadline at the instant, and only when, no
//! participant can run. Emulated delays then cost zero wall time while
//! preserving every ratio and ordering the paper reports.
//!
//! ## The books
//!
//! "Who can run" is a fact the clock keeps under one lock, never a
//! guess with a timeout. Every participant is in exactly one state —
//! running, or blocked on a wake channel — and the transition back to
//! running is written *by the waker, under the lock*, before it unparks
//! the sleeper (the xv6 `sleep`/`wakeup` discipline):
//!
//! * [`Clock::sleep`] / [`Clock::sleep_until`] / [`Alarm::wait`] — the
//!   waiter blocks on a deadline; the thread whose own blocking makes
//!   the simulation quiescent advances time and marks every sleeper
//!   due at the new instant runnable.
//! * [`Mailbox`](mod@crate::mailbox) — a `send` marks a receiver parked on
//!   *that mailbox* runnable; a message whose reader waits elsewhere
//!   holds nothing.
//! * [`ClockCondvar`] — `notify_*` marks the waiters it wakes runnable
//!   (the migration freeze gate, a fault waiting for a pushed diff).
//! * [`Clock::spawn`] / [`JoinHandle::join`] — the child is a running
//!   participant from the moment the parent calls `spawn`, not from
//!   whenever the OS first schedules it, and its exit wakes a joiner.
//! * [`Clock::participant`] — registers an existing thread (the
//!   master's application thread). While a registered thread runs,
//!   virtual time holds still, exactly like wall time holds still for
//!   no one — registration is what keeps a pending 3 s grace timer from
//!   firing while the master is between two forks. A thread may be
//!   registered on several clocks at once; its state is kept per clock.
//!
//! Threads that never register are invisible while running: the clock
//! may advance underneath a long computation on such a thread. That is
//! the intended semantic for harness/test threads — compute costs zero
//! virtual time. Inside any of the waits above they count as transient
//! participants.
//!
//! [`Clock::blocked`] (with [`Clock::msg_sent`] / [`Clock::msg_received`])
//! remains for waits the clock cannot see into — a foreign barrier, a
//! plain channel. There the *waiter* does its own accounting after the
//! fact, so the hand-off is only as exact as the pin the caller holds
//! around it. No library code uses them.
//!
//! A registered thread stuck in a wait the clock cannot see would wedge
//! the simulation. A watchdog in every deadline wait notices (no
//! transition in the books for 250 ms of wall time with a deadline
//! pending), names the unaccounted threads, counts the event in
//! [`Clock::forced_advances`] and — only in release builds — steps to
//! the earliest deadline; under `debug_assertions` it panics. Correct
//! accounting never meets it.
//!
//! ## The ledger
//!
//! Every registered participant also keeps a [`Ledger`]: one row of
//! virtual nanoseconds per [`Cause`]. A wait site names its cause with
//! [`waiting_for`] (a fault's fetch, a barrier, a compute charge, the
//! sender's share of a transmission); each blocked → running
//! transition, written under the lock, adds the virtual time the wait
//! lasted to that cause's row, and time that passes while the
//! participant runs (an [`Clock::advance_to`] bridge) goes to
//! [`Cause::Other`]. The rows therefore sum, in integer nanoseconds, to
//! the participant's virtual lifetime. [`Clock::ledger`] reads them.

use parking_lot::{Condvar, Mutex, MutexGuard};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crate::timing::precise_sleep;

/// A point on a [`Clock`]'s timeline: nanoseconds since clock creation.
///
/// Ticks from the same clock (and its clones) are totally ordered;
/// comparing ticks from different clocks is meaningless.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tick(u64);

impl Tick {
    /// The clock's creation instant.
    pub const ZERO: Tick = Tick(0);

    /// Construct from nanoseconds since clock creation.
    pub const fn from_nanos(n: u64) -> Tick {
        Tick(n)
    }

    /// Nanoseconds since clock creation.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// `self - earlier` as a [`Duration`] (zero if `earlier` is later).
    pub fn saturating_since(self, earlier: Tick) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }
}

impl std::ops::Add<Duration> for Tick {
    type Output = Tick;

    fn add(self, d: Duration) -> Tick {
        // u64 nanoseconds cover ~584 years of simulated time; saturate
        // rather than panic on absurd durations.
        Tick(
            self.0
                .saturating_add(d.as_nanos().min(u64::MAX as u128) as u64),
        )
    }
}

impl std::fmt::Display for Tick {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6}s", self.0 as f64 / 1e9)
    }
}

/// The watchdog's patience: a deadline wait that sees no transition in
/// the clock's books for this long in real time reports a stall (see
/// the [module docs](self)). It decides nothing on a correct run.
const STALL_ADVANCE: Duration = Duration::from_millis(250);

/// Why a participant waits: the [`Ledger`] row a wait's virtual time
/// goes to. A wait site names it with [`waiting_for`]; a wait no site
/// names is [`Cause::Other`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cause {
    /// The reply to a fault's or a collection's requests.
    Fetch,
    /// A fault parked on a diff its writer pushes.
    Push,
    /// An in-region barrier.
    Barrier,
    /// A region's join.
    Join,
    /// A lock grant.
    Lock,
    /// Any other control message (a joiner's readiness, teardown).
    Control,
    /// A worker between regions, waiting for its next fork or
    /// adaptation step.
    Region,
    /// The sender's share of a transmission: its outbound link busy.
    Transmit,
    /// A compute charge.
    Compute,
    /// A wait no site names (a service thread's idle inbox), and time
    /// that passes while the participant runs.
    Other,
}

/// The number of [`Cause`]s: a [`Ledger`]'s row count.
pub const CAUSES: usize = 10;

impl Cause {
    /// Every cause, in row order.
    pub const ALL: [Cause; CAUSES] = [
        Cause::Fetch,
        Cause::Push,
        Cause::Barrier,
        Cause::Join,
        Cause::Lock,
        Cause::Control,
        Cause::Region,
        Cause::Transmit,
        Cause::Compute,
        Cause::Other,
    ];

    /// The row's name in tables.
    pub fn name(self) -> &'static str {
        match self {
            Cause::Fetch => "fetch",
            Cause::Push => "push",
            Cause::Barrier => "barrier",
            Cause::Join => "join",
            Cause::Lock => "lock",
            Cause::Control => "control",
            Cause::Region => "region",
            Cause::Transmit => "transmit",
            Cause::Compute => "compute",
            Cause::Other => "other",
        }
    }
}

thread_local! {
    /// The cause this thread's next waits are booked to.
    static CAUSE: Cell<Cause> = const { Cell::new(Cause::Other) };
}

/// Book the calling thread's waits to `cause` until the returned scope
/// drops; the cause in force before comes back then. Scopes nest: an
/// inner site (a transmission inside a fault) names its own cause.
pub fn waiting_for(cause: Cause) -> CauseScope {
    CauseScope {
        prev: CAUSE.with(|c| c.replace(cause)),
        _thread: std::marker::PhantomData,
    }
}

/// A cause in force on this thread, from [`waiting_for`].
#[must_use = "the cause holds only while the scope lives"]
#[derive(Debug)]
pub struct CauseScope {
    prev: Cause,
    /// Restored on the thread that set it.
    _thread: std::marker::PhantomData<*const ()>,
}

impl Drop for CauseScope {
    fn drop(&mut self) {
        CAUSE.with(|c| c.set(self.prev));
    }
}

/// One participant's virtual lifetime split by [`Cause`]
/// ([`Clock::ledger`]). `rows` sums to `end - born` exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ledger {
    /// The participant's thread name.
    pub name: String,
    /// Virtual nanoseconds at registration.
    pub born: u64,
    /// Virtual nanoseconds at deregistration, or at the snapshot.
    pub end: u64,
    /// Virtual nanoseconds per cause, indexed by [`Cause::ALL`] order.
    pub rows: [u64; CAUSES],
}

impl Ledger {
    /// The row of `cause`.
    pub fn get(&self, cause: Cause) -> u64 {
        self.rows[cause as usize]
    }

    /// The virtual lifetime the rows split.
    pub fn lifetime(&self) -> u64 {
        self.end - self.born
    }
}

/// A participant's running account: the open interval since the last
/// transition, and the cause it books to.
#[derive(Debug)]
struct Book {
    born: u64,
    since: u64,
    cause: Cause,
    rows: [u64; CAUSES],
}

impl Book {
    /// Close the open interval at `now` and open the next, booked to
    /// `next`.
    fn turn(&mut self, now: u64, next: Cause) {
        self.rows[self.cause as usize] += now - self.since;
        self.since = now;
        self.cause = next;
    }

    /// The ledger as of `now`, the open interval included.
    fn read(&self, name: &str, now: u64) -> Ledger {
        let mut rows = self.rows;
        rows[self.cause as usize] += now - self.since;
        Ledger {
            name: name.to_owned(),
            born: self.born,
            end: now,
            rows,
        }
    }
}

/// Ids for clocks, participants and wake channels (one namespace).
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// One participant of one virtual clock: a (thread, clock) pair, or a
/// spawned thread that has not started yet.
#[derive(Debug)]
pub(crate) struct Part {
    /// The wake channel this participant's own sleeps park on.
    chan: u64,
    /// For the watchdog's report.
    name: String,
    /// Set once the thread exists; a participant only ever parks itself,
    /// so every waker finds it set.
    thread: OnceLock<std::thread::Thread>,
    /// Set by the waker under the clock lock (`Release`); the parked
    /// thread's `park` loop reads it without the lock (`Acquire`), which
    /// is what makes everything the waker wrote first — the new `now`,
    /// the queued message — visible to the thread it woke.
    woken: AtomicBool,
    /// Cannot run. Read and written under the clock lock only, which
    /// orders it (`Relaxed`).
    blocked: AtomicBool,
    /// Still counted in `VState::registry`. A plain flag (`Relaxed`):
    /// cleared when the guard drops, possibly on another thread, and
    /// then only tells the owner to forget its stale thread-local.
    registered: AtomicBool,
    /// The ledger's running account. Touched under the clock lock
    /// only, so its own lock is never contended.
    book: Mutex<Book>,
}

impl Part {
    /// A participant born at virtual `now`, running.
    fn new(name: String, registered: bool, now: u64) -> Arc<Part> {
        Arc::new(Part {
            chan: next_id(),
            name,
            thread: OnceLock::new(),
            woken: AtomicBool::new(false),
            blocked: AtomicBool::new(false),
            registered: AtomicBool::new(registered),
            book: Mutex::new(Book {
                born: now,
                since: now,
                cause: Cause::Other,
                rows: [0; CAUSES],
            }),
        })
    }

    fn bind_current_thread(&self) {
        let _ = self.thread.set(std::thread::current());
    }
}

thread_local! {
    /// This thread's registrations: `(clock id, participant)` per
    /// virtual clock it is registered on.
    static REGISTERED: RefCell<Vec<(u64, Arc<Part>)>> = const { RefCell::new(Vec::new()) };
}

/// How long a [`VirtualCore::park`] may last in real time.
#[derive(Clone, Copy)]
pub(crate) enum Limit {
    /// Until woken.
    Forever,
    /// A real-time deadlock guard: give up at this instant.
    Until(Instant),
    /// A wait on virtual time itself: woken when the deadline fires,
    /// running the stall watchdog meanwhile.
    Watchdog,
}

/// Participants made runnable under the lock, to unpark after it.
pub(crate) type Wake = Vec<Arc<Part>>;

/// The books of one virtual time source (all under one lock).
#[derive(Debug, Default)]
pub(crate) struct VState {
    /// Pending deadlines, `(tick, arm order) -> wake channel`: sleepers
    /// (their private channel) and armed alarms.
    deadlines: BTreeMap<(u64, u64), u64>,
    /// Arm counter.
    seq: u64,
    /// Participants that can run. Time moves only at zero.
    running: usize,
    /// Opaque-wait pins ([`Clock::msg_sent`]). Time moves only at zero.
    pins: usize,
    /// Who is parked on which wake channel, in arrival order. A flat
    /// list scanned by channel, like xv6's `wakeup`: it holds at most
    /// one entry per simulation thread.
    parked: Vec<(u64, Arc<Part>)>,
    /// Registered participants, for the watchdog's report.
    registry: Vec<Arc<Part>>,
    /// Bumped on every transition; the watchdog's notion of progress.
    epoch: u64,
    /// Virtual now, as `VirtualCore::now` holds it: the ledger's
    /// timestamps, read under the lock.
    now: u64,
    /// The ledgers of deregistered participants, in order of leaving.
    retired: Vec<Ledger>,
}

impl VState {
    /// `me` can no longer run: its running interval closes, and the
    /// wait books to the cause the calling thread (`me`'s own) names.
    fn block(&mut self, me: &Part) {
        let was = me.blocked.swap(true, Ordering::Relaxed);
        debug_assert!(!was, "clock wait inside a Clock::blocked scope");
        me.book.lock().turn(self.now, CAUSE.with(Cell::get));
        self.running -= 1;
        self.epoch += 1;
    }

    /// `me` can run again (by its own account: a timeout, or the end of
    /// an opaque [`Clock::blocked`] scope): the wait's time goes to its
    /// cause's row.
    fn unblock(&mut self, me: &Part) {
        me.blocked.store(false, Ordering::Relaxed);
        me.book.lock().turn(self.now, Cause::Other);
        self.running += 1;
        self.epoch += 1;
    }

    /// The waker's half of a hand-off: `p` is runnable from this
    /// instant, before it has been unparked.
    fn make_runnable(&mut self, p: Arc<Part>, wake: &mut Wake) {
        self.unblock(&p);
        p.woken.store(true, Ordering::Release);
        wake.push(p);
    }

    /// Wake the longest-parked participant of `chan`, if any.
    pub(crate) fn wake_one(&mut self, chan: u64, wake: &mut Wake) {
        if let Some(i) = self.parked.iter().position(|(c, _)| *c == chan) {
            let (_, p) = self.parked.remove(i);
            self.make_runnable(p, wake);
        }
    }

    /// Wake everyone parked on `chan`.
    pub(crate) fn wake_all(&mut self, chan: u64, wake: &mut Wake) {
        let mut i = 0;
        while i < self.parked.len() {
            if self.parked[i].0 == chan {
                let (_, p) = self.parked.remove(i);
                self.make_runnable(p, wake);
            } else {
                i += 1;
            }
        }
    }

    /// Take `me` off the wait list (a wait it is abandoning).
    fn withdraw(&mut self, me: &Arc<Part>) {
        self.parked.retain(|(_, p)| !Arc::ptr_eq(p, me));
    }

    /// Fire every deadline at or before `now`.
    fn fire_due(&mut self, now: u64, wake: &mut Wake) {
        while let Some(e) = self.deadlines.first_entry() {
            if e.key().0 > now {
                break;
            }
            let chan = e.remove();
            self.wake_all(chan, wake);
        }
    }

    /// The quiescence rule: while nobody can run, step to the earliest
    /// pending deadline and fire it.
    fn try_advance(&mut self, now: &AtomicU64, wake: &mut Wake) {
        while self.running == 0 && self.pins == 0 {
            let Some((&(t, _), _)) = self.deadlines.first_key_value() else {
                return;
            };
            self.step_to(t, now, wake);
        }
    }

    /// Raise `now` to `t` (never backwards) and fire what is due.
    fn step_to(&mut self, t: u64, now: &AtomicU64, wake: &mut Wake) {
        let t = t.max(now.load(Ordering::Relaxed));
        now.store(t, Ordering::Release);
        self.now = t;
        self.epoch += 1;
        self.fire_due(t, wake);
    }

    /// What the watchdog prints: who holds time still.
    fn stall_report(&self, now: u64) -> String {
        let unaccounted: Vec<&str> = self
            .registry
            .iter()
            .filter(|p| !p.blocked.load(Ordering::Relaxed))
            .map(|p| p.name.as_str())
            .collect();
        format!(
            "[nowmp] virtual clock stalled at {}: a deadline is pending but the books have not \
             changed for {STALL_ADVANCE:?} of wall time; {} participant(s) running, {} opaque pin(s); \
             registered and not blocked (in a wait the clock cannot see, or computing): {unaccounted:?}",
            Tick(now),
            self.running,
            self.pins,
        )
    }
}

#[derive(Debug)]
pub(crate) struct VirtualCore {
    id: u64,
    /// Virtual now, in nanoseconds. Written under `state`'s lock
    /// (`Release`) and read without it (`Acquire`): a running
    /// participant holds time still, so what it reads cannot be stale.
    now: AtomicU64,
    /// Times the watchdog reported a stall.
    forced: AtomicU64,
    /// What the watchdog reported, in order.
    stalls: Mutex<Vec<String>>,
    state: Mutex<VState>,
}

impl VirtualCore {
    fn new() -> Arc<Self> {
        Arc::new(VirtualCore {
            id: next_id(),
            now: AtomicU64::new(0),
            forced: AtomicU64::new(0),
            stalls: Mutex::new(Vec::new()),
            state: Mutex::new(VState::default()),
        })
    }

    fn now(&self) -> u64 {
        self.now.load(Ordering::Acquire)
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, VState> {
        self.state.lock()
    }

    /// A fresh wake channel.
    pub(crate) fn new_chan(&self) -> u64 {
        next_id()
    }

    /// Change the books under the lock, then unpark whoever the change
    /// made runnable.
    pub(crate) fn transition<R>(&self, f: impl FnOnce(&mut VState, &mut Wake) -> R) -> R {
        let mut wake = Wake::new();
        let r = f(&mut self.state.lock(), &mut wake);
        unpark(wake, None);
        r
    }

    /// The calling thread's registration on this clock, if it has one.
    fn registered_here(&self) -> Option<Arc<Part>> {
        REGISTERED.with(|r| {
            let mut r = r.borrow_mut();
            let pos = r.iter().position(|(id, _)| *id == self.id)?;
            if r[pos].1.registered.load(Ordering::Relaxed) {
                Some(Arc::clone(&r[pos].1))
            } else {
                // The guard was dropped on another thread.
                r.swap_remove(pos);
                None
            }
        })
    }

    /// Run a clock-visible wait as the calling thread's participant on
    /// this clock; an unregistered thread is admitted as a transient
    /// participant for the duration.
    pub(crate) fn with_me<R>(&self, wait: impl FnOnce(&Arc<Part>) -> R) -> R {
        if let Some(me) = self.registered_here() {
            return wait(&me);
        }
        let mut st = self.state.lock();
        let me = Part::new(String::new(), false, st.now);
        me.bind_current_thread();
        st.running += 1;
        drop(st);
        let r = wait(&me);
        self.transition(|st, wake| {
            st.running -= 1;
            st.epoch += 1;
            st.try_advance(&self.now, wake);
        });
        r
    }

    /// Block `me` on `chan` until a waker marks it runnable. `unlocked`
    /// runs once `me` is on the books as parked and the clock lock is
    /// released (a condition wait drops its mutex there). Returns
    /// `false` if `limit` ran out first; `me` is running either way.
    pub(crate) fn park(
        &self,
        mut st: MutexGuard<'_, VState>,
        me: &Arc<Part>,
        chan: u64,
        limit: Limit,
        unlocked: impl FnOnce(),
    ) -> bool {
        me.woken.store(false, Ordering::Relaxed);
        st.parked.push((chan, Arc::clone(me)));
        let mut wake = Wake::new();
        st.block(me);
        st.try_advance(&self.now, &mut wake);
        let mut seen = st.epoch;
        drop(st);
        unlocked();
        unpark(wake, Some(me));
        if me.woken.load(Ordering::Acquire) {
            return true; // our own blocking fired our own deadline
        }
        let mut quiet_since = Instant::now();
        loop {
            match limit {
                Limit::Forever => std::thread::park(),
                Limit::Until(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        let mut st = self.state.lock();
                        if me.woken.load(Ordering::Acquire) {
                            return true;
                        }
                        st.withdraw(me);
                        st.unblock(me);
                        return false;
                    }
                    std::thread::park_timeout(left);
                }
                Limit::Watchdog => std::thread::park_timeout(STALL_ADVANCE),
            }
            if me.woken.load(Ordering::Acquire) {
                return true;
            }
            if matches!(limit, Limit::Watchdog) && quiet_since.elapsed() >= STALL_ADVANCE {
                let mut wake = Wake::new();
                let mut st = self.state.lock();
                let stall = (st.epoch == seen && !me.woken.load(Ordering::Acquire))
                    .then(|| self.stalled(&mut st, me, &mut wake));
                seen = st.epoch;
                drop(st);
                unpark(wake, Some(me));
                if let Some(report) = stall {
                    if cfg!(debug_assertions) {
                        panic!("{report}");
                    }
                    eprintln!("{report}");
                }
                if me.woken.load(Ordering::Acquire) {
                    return true;
                }
                quiet_since = Instant::now();
            }
        }
    }

    /// The watchdog found the simulation wedged: count it and say who
    /// holds time still. Release builds then step to the earliest
    /// deadline; debug builds take `me` off the books so the caller can
    /// panic with the report.
    fn stalled(&self, st: &mut VState, me: &Arc<Part>, wake: &mut Wake) -> String {
        self.forced.fetch_add(1, Ordering::Relaxed);
        let report = st.stall_report(self.now());
        self.stalls.lock().push(report.clone());
        if cfg!(debug_assertions) {
            st.withdraw(me);
            st.unblock(me);
        } else if let Some((&(t, _), _)) = st.deadlines.first_key_value() {
            st.step_to(t, &self.now, wake);
        }
        report
    }

    /// Block until virtual `now >= deadline`.
    fn sleep_until(&self, deadline: u64) {
        if self.now() >= deadline {
            return;
        }
        self.with_me(|me| {
            let mut st = self.state.lock();
            if self.now() >= deadline {
                return;
            }
            let key = (deadline, st.seq);
            st.seq += 1;
            st.deadlines.insert(key, me.chan);
            self.park(st, me, me.chan, Limit::Watchdog, || ());
        });
    }
}

/// Unpark the participants a transition made runnable (`me`, if among
/// them, is the caller and needs no unpark).
fn unpark(wake: Wake, me: Option<&Arc<Part>>) {
    for p in wake {
        if me.is_some_and(|me| Arc::ptr_eq(me, &p)) {
            continue;
        }
        if let Some(t) = p.thread.get() {
            t.unpark();
        }
    }
}

#[derive(Debug, Clone)]
enum Backend {
    /// Wall time: an `Instant` origin plus `precise_sleep`.
    Real(Instant),
    /// Shared discrete-event time source.
    Virtual(Arc<VirtualCore>),
}

/// A time source handle. Cheap to clone; clones share the timeline.
///
/// See the [module docs](self) for the virtual backend's semantics.
#[derive(Debug, Clone)]
pub struct Clock {
    backend: Backend,
}

/// Whether a `NOWMP_CLOCK` value names the virtual backend: unset or
/// `real` is the wall clock, `virtual` or `sim` the virtual one. Any
/// other value panics, so a misspelt backend never runs on wall time
/// unnoticed.
fn names_virtual(value: Option<&str>) -> bool {
    match value {
        None | Some("real") => false,
        Some("virtual" | "sim") => true,
        Some(v) => panic!("NOWMP_CLOCK={v:?}: expected unset, real, virtual or sim"),
    }
}

impl Clock {
    /// A wall-clock backend (hybrid sleep+spin). The default everywhere.
    pub fn real() -> Clock {
        Clock {
            backend: Backend::Real(Instant::now()),
        }
    }

    /// A fresh virtual (discrete-event) time source starting at
    /// [`Tick::ZERO`].
    pub fn new_virtual() -> Clock {
        Clock {
            backend: Backend::Virtual(VirtualCore::new()),
        }
    }

    /// Pick a backend from the `NOWMP_CLOCK` environment variable:
    /// `virtual` (or `sim`) yields a fresh virtual clock, `real` or no
    /// value the real clock, and anything else panics. Each call makes a
    /// *new* clock — share one simulation's clock by cloning the handle,
    /// not by calling this twice.
    pub fn from_env() -> Clock {
        let v = std::env::var_os("NOWMP_CLOCK");
        if names_virtual(v.as_ref().map(|v| v.to_string_lossy()).as_deref()) {
            Clock::new_virtual()
        } else {
            Clock::real()
        }
    }

    /// Is this the virtual backend?
    pub fn is_virtual(&self) -> bool {
        matches!(self.backend, Backend::Virtual(_))
    }

    /// The virtual backend's books, for the clock-bound wait primitives
    /// of this crate.
    pub(crate) fn virtual_core(&self) -> Option<&Arc<VirtualCore>> {
        match &self.backend {
            Backend::Real(_) => None,
            Backend::Virtual(core) => Some(core),
        }
    }

    /// Current time on this clock's timeline.
    pub fn now(&self) -> Tick {
        match &self.backend {
            Backend::Real(origin) => Tick(origin.elapsed().as_nanos().min(u64::MAX as u128) as u64),
            Backend::Virtual(core) => Tick(core.now()),
        }
    }

    /// Time elapsed since `earlier` (zero if `earlier` is in the future).
    pub fn elapsed_since(&self, earlier: Tick) -> Duration {
        self.now().saturating_since(earlier)
    }

    /// Sleep for `d` on this clock's timeline.
    pub fn sleep(&self, d: Duration) {
        if d.is_zero() {
            return;
        }
        match &self.backend {
            Backend::Real(_) => precise_sleep(d),
            Backend::Virtual(core) => core.sleep_until((self.now() + d).0),
        }
    }

    /// Sleep until `deadline` on this clock's timeline (no-op if past).
    pub fn sleep_until(&self, deadline: Tick) {
        match &self.backend {
            Backend::Real(origin) => {
                let now = origin.elapsed();
                let target = Duration::from_nanos(deadline.0);
                if target > now {
                    precise_sleep(target - now);
                }
            }
            Backend::Virtual(core) => core.sleep_until(deadline.0),
        }
    }

    /// Register the calling thread as a long-lived simulation
    /// participant: while it runs, virtual time holds still. Returns a
    /// guard; drop it to deregister. No-op on the real backend, and
    /// idempotent per (thread, clock) — a thread started by
    /// [`Clock::spawn`] already is one. A thread may hold registrations
    /// on several clocks.
    pub fn participant(&self) -> ParticipantGuard {
        let t = std::thread::current();
        match t.name() {
            Some(n) => self.participant_as(n),
            None => self.participant_as(format!("{:?}", t.id())),
        }
    }

    /// [`Clock::participant`] under `name`, the name its [`Ledger`] and
    /// the watchdog's reports give it, instead of the thread's.
    pub fn participant_as(&self, name: impl Into<String>) -> ParticipantGuard {
        let Backend::Virtual(core) = &self.backend else {
            return ParticipantGuard { reg: None };
        };
        if core.registered_here().is_some() {
            return ParticipantGuard { reg: None };
        }
        let guard = ParticipantGuard::admit(core, name.into(), None);
        guard.bind();
        guard
    }

    /// Start a named thread that is a running participant of this clock
    /// from this call on — virtual time cannot slip past it between
    /// `spawn` and the moment the OS first runs it — until `f` returns.
    /// A plain named thread on the real backend. Only a caller that is
    /// itself a participant holds time *between* two spawns: otherwise
    /// the first child to wait can step time before the next exists.
    /// Register first ([`Clock::participant`]) to start several at one
    /// tick.
    pub fn spawn<R, F>(&self, name: impl Into<String>, f: F) -> JoinHandle<R>
    where
        F: FnOnce() -> R + Send + 'static,
        R: Send + 'static,
    {
        let name = name.into();
        let builder = std::thread::Builder::new().name(name.clone());
        let (inner, exit) = match &self.backend {
            Backend::Real(_) => (builder.spawn(f), None),
            Backend::Virtual(core) => {
                let exit = Arc::new(Exit {
                    chan: core.new_chan(),
                    done: AtomicBool::new(false),
                });
                // Created by the parent, moved into the child.
                let token = ParticipantGuard::admit(core, name, Some(Arc::clone(&exit)));
                let inner = builder.spawn(move || {
                    token.bind();
                    f()
                });
                (inner, Some((Arc::clone(core), exit)))
            }
        };
        JoinHandle {
            inner: inner.expect("spawn simulation thread"),
            exit,
        }
    }

    /// Run `f` — an external wait the clock cannot see into (a foreign
    /// barrier, a plain channel) — with the calling thread marked
    /// blocked, so a quiescent simulation can advance past it. The
    /// thread accounts for itself only once `f` has returned, so a
    /// hand-off through `f` is exact only while the waker holds a
    /// [`Clock::msg_sent`] pin across it. `f` must not wait on this
    /// clock. No-op wrapper on the real backend.
    ///
    /// Kept for waits outside this workspace's primitives (the
    /// `benchmark/` lanes time it); library code parks on a
    /// [`Mailbox`](mod@crate::mailbox), a [`ClockCondvar`] or a
    /// [`JoinHandle`] instead.
    pub fn blocked<R>(&self, f: impl FnOnce() -> R) -> R {
        let Backend::Virtual(core) = &self.backend else {
            return f();
        };
        core.with_me(|me| {
            core.transition(|st, wake| {
                st.block(me);
                st.try_advance(&core.now, wake);
            });
            let r = f();
            core.state.lock().unblock(me);
            r
        })
    }

    /// Pin virtual time: something was handed to a thread inside a
    /// [`Clock::blocked`] wait and that thread has not accounted for
    /// itself yet. Pair with [`Clock::msg_received`]; time holds still
    /// in between, for as long as it takes. No-op on the real backend.
    ///
    /// This is the opaque-wait pin only, with zero callers under
    /// `crates/` (the `benchmark/` lanes time it): a
    /// [`Mailbox`](mod@crate::mailbox) does the accounting itself and needs
    /// no pin.
    pub fn msg_sent(&self) {
        if let Backend::Virtual(core) = &self.backend {
            let mut st = core.state.lock();
            st.pins += 1;
            st.epoch += 1;
        }
    }

    /// Release one [`Clock::msg_sent`] pin (same standing: the
    /// opaque-wait protocol of the `benchmark/` lanes, no callers
    /// under `crates/`).
    pub fn msg_received(&self) {
        if let Backend::Virtual(core) = &self.backend {
            core.transition(|st, wake| {
                st.pins = st.pins.saturating_sub(1);
                st.epoch += 1;
                st.try_advance(&core.now, wake);
            });
        }
    }

    /// How many times the stall watchdog fired on this clock (see the
    /// [module docs](self)): zero on any correctly accounted run, and
    /// always zero on the real backend.
    pub fn forced_advances(&self) -> u64 {
        match &self.backend {
            Backend::Real(_) => 0,
            Backend::Virtual(core) => core.forced.load(Ordering::Relaxed),
        }
    }

    /// The watchdog's reports on this clock, in order: each names the
    /// participants that held time still. Empty on every correctly
    /// accounted run, and always on the real backend.
    pub fn stall_reports(&self) -> Vec<String> {
        match &self.backend {
            Backend::Real(_) => Vec::new(),
            Backend::Virtual(core) => core.stalls.lock().clone(),
        }
    }

    /// Every registered participant's [`Ledger`] as of now: those that
    /// have deregistered, in order of leaving, then the live ones in
    /// order of registration. Empty on the real backend.
    pub fn ledger(&self) -> Vec<Ledger> {
        let Backend::Virtual(core) = &self.backend else {
            return Vec::new();
        };
        let st = core.state.lock();
        let live = st
            .registry
            .iter()
            .map(|p| p.book.lock().read(&p.name, st.now));
        st.retired.iter().cloned().chain(live).collect()
    }

    /// Raise virtual `now` to `target` (never backwards) and wake the
    /// sleepers due by then. This is the bridge an *event-driven* engine
    /// uses: a [`TaskScheduler`] owns the authoritative simulated time
    /// of its hosts, and mirrors it onto the shared clock so that
    /// timestamps taken through [`Clock::now`] (event logs, stopwatch
    /// spans) track engine time. No-op on the real backend.
    pub fn advance_to(&self, target: Tick) {
        if let Backend::Virtual(core) = &self.backend {
            core.transition(|st, wake| {
                if target.0 > core.now() {
                    st.step_to(target.0, &core.now, wake);
                }
            });
        }
    }

    /// Arm a cancellable deadline `after` from now. The alarm's
    /// deadline is pending from this moment, before anyone waits on it.
    pub fn alarm(&self, after: Duration) -> Alarm {
        let deadline = self.now() + after;
        let slot = self.virtual_core().map(|core| {
            let chan = core.new_chan();
            let mut st = core.state.lock();
            let key = (deadline.0, st.seq);
            st.seq += 1;
            st.deadlines.insert(key, chan);
            (key, chan)
        });
        Alarm {
            inner: Arc::new(AlarmInner {
                clock: self.clone(),
                deadline,
                cancelled: AtomicBool::new(false),
                slot,
                real: Mutex::new(()),
                cv: Condvar::new(),
            }),
        }
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::real()
    }
}

/// What a spawned thread leaves behind for its joiner.
#[derive(Debug)]
struct Exit {
    /// Where a joiner parks.
    chan: u64,
    /// Set (under the clock lock) when the thread's registration ends.
    done: AtomicBool,
}

/// A registration on a virtual clock, from [`Clock::participant`];
/// deregisters on drop. [`Clock::spawn`] creates one in the parent and
/// moves it into the child, which is what makes the child visible from
/// `spawn` on.
#[derive(Debug)]
pub struct ParticipantGuard {
    reg: Option<(Arc<VirtualCore>, Arc<Part>, Option<Arc<Exit>>)>,
}

impl ParticipantGuard {
    /// Put a new running participant on `core`'s books.
    fn admit(core: &Arc<VirtualCore>, name: String, exit: Option<Arc<Exit>>) -> Self {
        let mut st = core.state.lock();
        let part = Part::new(name, true, st.now);
        st.running += 1;
        st.epoch += 1;
        st.registry.push(Arc::clone(&part));
        drop(st);
        ParticipantGuard {
            reg: Some((Arc::clone(core), part, exit)),
        }
    }

    /// The calling thread is the participant.
    fn bind(&self) {
        if let Some((core, part, _)) = &self.reg {
            part.bind_current_thread();
            REGISTERED.with(|r| r.borrow_mut().push((core.id, Arc::clone(part))));
        }
    }
}

impl Drop for ParticipantGuard {
    fn drop(&mut self) {
        let Some((core, part, exit)) = self.reg.take() else {
            return;
        };
        part.registered.store(false, Ordering::Relaxed);
        // Not there when dropped on another thread, or during thread
        // teardown; `with_me` forgets stale entries.
        let _ = REGISTERED.try_with(|r| r.borrow_mut().retain(|(_, p)| !Arc::ptr_eq(p, &part)));
        core.transition(|st, wake| {
            st.registry.retain(|p| !Arc::ptr_eq(p, &part));
            let ledger = part.book.lock().read(&part.name, st.now);
            st.retired.push(ledger);
            if !part.blocked.load(Ordering::Relaxed) {
                // Saturating: a drop must not panic, whatever the books say.
                st.running = st.running.saturating_sub(1);
            }
            st.epoch += 1;
            if let Some(exit) = &exit {
                exit.done.store(true, Ordering::Release);
                st.wake_all(exit.chan, wake);
            }
            st.try_advance(&core.now, wake);
        });
    }
}

/// Handle to a thread started by [`Clock::spawn`]. Dropping it detaches
/// the thread.
#[derive(Debug)]
pub struct JoinHandle<R> {
    inner: std::thread::JoinHandle<R>,
    exit: Option<(Arc<VirtualCore>, Arc<Exit>)>,
}

impl<R> JoinHandle<R> {
    /// Wait for the thread to finish — on the virtual backend a
    /// clock-visible wait, ended by the thread's own exit — and return
    /// its result (`Err` carries its panic, as with `std::thread`).
    pub fn join(self) -> std::thread::Result<R> {
        if let Some((core, exit)) = &self.exit {
            core.with_me(|me| loop {
                let st = core.state.lock();
                if exit.done.load(Ordering::Acquire) {
                    break;
                }
                core.park(st, me, exit.chan, Limit::Forever, || ());
            });
        }
        self.inner.join()
    }
}

/// A condition variable whose waits a virtual [`Clock`] can see: the
/// notifier marks the waiters it wakes runnable. A plain
/// `parking_lot::Condvar` on the real backend.
#[derive(Debug)]
pub struct ClockCondvar {
    real: Condvar,
    gate: Option<(Arc<VirtualCore>, u64)>,
}

impl ClockCondvar {
    /// A condition variable for waits on `clock`'s simulation.
    pub fn new(clock: &Clock) -> Self {
        ClockCondvar {
            real: Condvar::new(),
            gate: clock
                .virtual_core()
                .map(|core| (Arc::clone(core), core.new_chan())),
        }
    }

    /// Release `guard` (of `mutex`), block until notified, re-acquire.
    /// As with any condition variable, re-check the condition.
    pub fn wait<'a, T>(
        &self,
        mutex: &'a Mutex<T>,
        mut guard: MutexGuard<'a, T>,
    ) -> MutexGuard<'a, T> {
        let Some((core, chan)) = &self.gate else {
            self.real.wait(&mut guard);
            return guard;
        };
        core.with_me(|me| {
            // On the books as parked before the mutex is released, so a
            // notifier that changes the condition next finds us.
            core.park(core.lock(), me, *chan, Limit::Forever, move || drop(guard));
        });
        mutex.lock()
    }

    /// [`Self::wait`] with a *real-time* deadlock guard (on both
    /// clocks, like [`crate::MailboxReceiver::recv_timeout`]): returns
    /// the re-acquired guard and `false` if `timeout` of wall time ran
    /// out before a notify.
    pub fn wait_timeout<'a, T>(
        &self,
        mutex: &'a Mutex<T>,
        mut guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        let Some((core, chan)) = &self.gate else {
            let timed_out = self.real.wait_for(&mut guard, timeout).timed_out();
            return (guard, !timed_out);
        };
        let limit = match Instant::now().checked_add(timeout) {
            Some(deadline) => Limit::Until(deadline),
            None => Limit::Forever,
        };
        let notified =
            core.with_me(|me| core.park(core.lock(), me, *chan, limit, move || drop(guard)));
        (mutex.lock(), notified)
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        match &self.gate {
            None => {
                self.real.notify_one();
            }
            Some((core, chan)) => core.transition(|st, wake| st.wake_one(*chan, wake)),
        }
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        match &self.gate {
            None => {
                self.real.notify_all();
            }
            Some((core, chan)) => core.transition(|st, wake| st.wake_all(*chan, wake)),
        }
    }
}

struct AlarmInner {
    clock: Clock,
    deadline: Tick,
    cancelled: AtomicBool,
    /// Virtual backend: the pending deadline's key and the channel its
    /// waiters park on.
    slot: Option<((u64, u64), u64)>,
    real: Mutex<()>,
    cv: Condvar,
}

impl Drop for AlarmInner {
    fn drop(&mut self) {
        // An alarm nobody is left to wait on must not be advanced to.
        if let (Some(core), Some((key, _))) = (self.clock.virtual_core(), self.slot) {
            core.state.lock().deadlines.remove(&key);
        }
    }
}

/// A waitable, cancellable deadline from [`Clock::alarm`] — the shape
/// of a grace-period timer. Clone freely; clones share the deadline.
#[derive(Clone)]
pub struct Alarm {
    inner: Arc<AlarmInner>,
}

impl Alarm {
    /// The armed deadline.
    pub fn deadline(&self) -> Tick {
        self.inner.deadline
    }

    /// Has [`Alarm::cancel`] been called?
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// Block until the deadline passes (returns `true`) or the alarm is
    /// cancelled (returns `false`).
    pub fn wait(&self) -> bool {
        let inner = &*self.inner;
        match &inner.clock.backend {
            Backend::Real(origin) => {
                let mut g = inner.real.lock();
                loop {
                    if inner.cancelled.load(Ordering::Acquire) {
                        return false;
                    }
                    let now = origin.elapsed();
                    let target = Duration::from_nanos(inner.deadline.0);
                    if now >= target {
                        return true;
                    }
                    inner.cv.wait_for(&mut g, target - now);
                }
            }
            Backend::Virtual(core) => {
                let (_, chan) = inner.slot.expect("virtual alarms hold a slot");
                core.with_me(|me| loop {
                    let st = core.state.lock();
                    if inner.cancelled.load(Ordering::Acquire) {
                        return false;
                    }
                    if core.now() >= inner.deadline.0 {
                        return true;
                    }
                    core.park(st, me, chan, Limit::Watchdog, || ());
                })
            }
        }
    }

    /// Cancel the alarm: wakes any waiter (which returns `false`) and —
    /// on the virtual backend — withdraws the pending deadline so the
    /// clock no longer advances toward it. Idempotent.
    pub fn cancel(&self) {
        let inner = &*self.inner;
        if inner.cancelled.swap(true, Ordering::AcqRel) {
            return;
        }
        match &inner.clock.backend {
            Backend::Real(_) => {
                let _g = inner.real.lock();
                inner.cv.notify_all();
            }
            Backend::Virtual(core) => {
                let (key, chan) = inner.slot.expect("virtual alarms hold a slot");
                core.transition(|st, wake| {
                    st.deadlines.remove(&key);
                    st.wake_all(chan, wake);
                });
            }
        }
    }
}

impl std::fmt::Debug for Alarm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Alarm")
            .field("deadline", &self.inner.deadline)
            .field("cancelled", &self.is_cancelled())
            .finish()
    }
}

/// Identity of one schedulable task in a [`TaskScheduler`] — typically
/// one simulated host. Dense small integers; the engine owns the
/// mapping to host state.
pub type TaskId = usize;

/// The run-queue companion to the deadline set: a single-owner
/// discrete-event scheduler for *resumable tasks* instead of parked
/// threads.
///
/// The virtual [`Clock`] advances time for **threads** — each sleeper
/// is a stack parked in `wait_deadline`, and quiescence detection must
/// reason about what every OS thread is doing. A `TaskScheduler`
/// inverts that: host state lives in plain data (the engine's resumable
/// state enums), and this structure only decides *which task runs next
/// and what time it is*. No threads, no condvars, no liveness
/// heuristics — the owner calls [`TaskScheduler::next`] in a loop.
///
/// Two pools, one discipline:
///
/// * the **run queue** holds tasks runnable *now* (a delivery landed, a
///   barrier released them) — FIFO, so same-tick wakeups resume in the
///   order they were made ready, which is what keeps event order
///   deterministic;
/// * the **deadline set** holds tasks parked until a future tick
///   (compute charges, grace timers) — ordered by `(tick, arm order)`,
///   so simultaneous deadlines also fire in arm order.
///
/// [`TaskScheduler::next`] drains the run queue before it ever moves
/// time; only when no task is runnable does `now` jump to the earliest
/// deadline. Liveness rule: every parked task is in exactly one pool,
/// so the loop terminates iff every task eventually reaches a state
/// with no pending wakeup — a stuck simulation surfaces as
/// [`TaskScheduler::next`] returning `None` with tasks still parked,
/// which the engine can assert on, rather than as a hung thread.
#[derive(Debug, Default)]
pub struct TaskScheduler {
    /// Simulated now. Only [`TaskScheduler::next`] moves it forward.
    now: Tick,
    /// Tasks runnable at `now`, in wakeup order.
    run: VecDeque<TaskId>,
    /// Tasks parked until a tick: `(deadline, arm-seq) -> task`.
    deadlines: BTreeMap<(u64, u64), TaskId>,
    /// Monotonic arm counter breaking same-tick ties by arm order.
    seq: u64,
}

impl TaskScheduler {
    /// An empty scheduler at [`Tick::ZERO`].
    pub fn new() -> TaskScheduler {
        TaskScheduler::default()
    }

    /// Current simulated time.
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Make `task` runnable now (appended to the run queue).
    pub fn ready(&mut self, task: TaskId) {
        self.run.push_back(task);
    }

    /// Park `task` until `deadline`. A deadline at or before `now` is
    /// *not* promoted to the run queue — it still fires after every
    /// currently-runnable task, keeping "ready now" and "due now"
    /// distinguishable (delivery wakeups beat expiring timers).
    /// Returns a key for [`TaskScheduler::cancel`].
    pub fn park_until(&mut self, task: TaskId, deadline: Tick) -> (u64, u64) {
        let key = (deadline.0, self.seq);
        self.seq += 1;
        self.deadlines.insert(key, task);
        key
    }

    /// Withdraw a parked deadline (a cancelled grace timer). Returns
    /// whether the entry was still pending.
    pub fn cancel(&mut self, key: (u64, u64)) -> bool {
        self.deadlines.remove(&key).is_some()
    }

    /// Next task to resume, advancing `now` if the run queue is empty:
    /// run-queue FIFO first, then the earliest `(tick, arm-seq)`
    /// deadline with `now` raised to its tick. `None` means no task is
    /// runnable or parked — the simulation is finished (or wedged, if
    /// the engine still holds tasks it believes are waiting).
    ///
    /// Deliberately *not* `Iterator::next`: advancing simulated time as
    /// a side effect has no business in `for` loops or adapters.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(Tick, TaskId)> {
        if let Some(t) = self.run.pop_front() {
            return Some((self.now, t));
        }
        let (&key, &task) = self.deadlines.iter().next()?;
        self.deadlines.remove(&key);
        if key.0 > self.now.0 {
            self.now = Tick(key.0);
        }
        Some((self.now, task))
    }

    /// Earliest pending deadline, if any (the run queue not included).
    pub fn earliest_deadline(&self) -> Option<Tick> {
        self.deadlines.keys().next().map(|&(t, _)| Tick(t))
    }

    /// Nothing runnable and nothing parked.
    pub fn is_idle(&self) -> bool {
        self.run.is_empty() && self.deadlines.is_empty()
    }

    /// Runnable + parked task count (with multiplicity).
    pub fn pending(&self) -> usize {
        self.run.len() + self.deadlines.len()
    }

    /// Raise `now` directly (never backwards) — used when the engine
    /// accounts time outside the deadline set, e.g. a barrier
    /// completion computed as a max over arrivals.
    pub fn advance_to(&mut self, target: Tick) {
        if target > self.now {
            self.now = target;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn core(c: &Clock) -> &Arc<VirtualCore> {
        c.virtual_core().expect("a virtual clock")
    }

    #[test]
    fn real_clock_tracks_wall_time() {
        let c = Clock::real();
        let t0 = c.now();
        c.sleep(Duration::from_micros(300));
        let e = c.elapsed_since(t0);
        assert!(e >= Duration::from_micros(300), "{e:?}");
    }

    #[test]
    fn virtual_sleep_is_exact_and_instant() {
        let c = Clock::new_virtual();
        let wall = Instant::now();
        let t0 = c.now();
        c.sleep(Duration::from_secs(3600)); // one simulated hour
        assert_eq!(c.elapsed_since(t0), Duration::from_secs(3600));
        assert!(
            wall.elapsed() < Duration::from_millis(200),
            "virtual hour took {:?} of wall time",
            wall.elapsed()
        );
    }

    /// The single-shot oversleep budget that wall time could never
    /// guarantee (see the note in `crate::timing`'s tests): on the
    /// virtual backend the 2 ms budget holds by construction — a
    /// virtual sleep is *exact*.
    #[test]
    fn virtual_sleep_single_shot_strict() {
        let c = Clock::new_virtual();
        for &us in &[100u64, 500, 1500] {
            let d = Duration::from_micros(us);
            let t = c.now();
            c.sleep(d);
            let e = c.elapsed_since(t);
            assert!(e >= d, "slept {e:?} < requested {d:?}");
            assert!(
                e < d + Duration::from_millis(2),
                "slept {e:?} for request {d:?}"
            );
            assert_eq!(e, d, "virtual sleep is exact");
        }
    }

    /// Same single-shot strictness for [`Clock::alarm`]: a waited
    /// alarm fires at *exactly* its deadline (the 2 ms oversleep
    /// budget holds as equality), a cancelled alarm neither fires nor
    /// drags time forward to its deadline, and a dropped alarm
    /// withdraws its pending deadline.
    #[test]
    fn virtual_alarm_single_shot_strict() {
        let c = Clock::new_virtual();
        for &us in &[100u64, 500, 1500] {
            let d = Duration::from_micros(us);
            let t = c.now();
            let a = c.alarm(d);
            assert!(a.wait(), "uncancelled alarm must fire");
            let e = c.elapsed_since(t);
            assert!(
                e < d + Duration::from_millis(2),
                "alarm overslept: {e:?} for request {d:?}"
            );
            assert_eq!(e, d, "virtual alarm fires exactly at its deadline");
        }
        // Cancellation: the waiter reports it, and the withdrawn
        // deadline no longer pulls the clock forward.
        let t = c.now();
        let a = c.alarm(Duration::from_secs(3600));
        a.cancel();
        assert!(!a.wait(), "cancelled alarm must not fire");
        assert!(a.is_cancelled());
        assert_eq!(c.elapsed_since(t), Duration::ZERO);
        // Drop without wait/cancel: the deadline is withdrawn, so a
        // later sleep past it lands exactly.
        drop(c.alarm(Duration::from_micros(50)));
        let t = c.now();
        c.sleep(Duration::from_micros(200));
        assert_eq!(c.elapsed_since(t), Duration::from_micros(200));
        assert!(core(&c).lock().deadlines.is_empty());
    }

    #[test]
    fn tick_arithmetic() {
        let t = Tick::from_nanos(500);
        let u = t + Duration::from_nanos(250);
        assert_eq!(u.as_nanos(), 750);
        assert_eq!(u.saturating_since(t), Duration::from_nanos(250));
        assert_eq!(t.saturating_since(u), Duration::ZERO);
        assert_eq!(format!("{}", Tick::from_nanos(1_500_000_000)), "1.500000s");
    }

    #[test]
    fn concurrent_virtual_sleepers_wake_in_deadline_order() {
        let c = Clock::new_virtual();
        let order = Arc::new(Mutex::new(Vec::new()));
        // All three are on the books before any of them can advance
        // time: this thread is a running participant until it parks in
        // the first join, so a sleeper that sleeps before its siblings
        // are spawned cannot step past them (see
        // `a_participant_parent_holds_time_across_its_spawns`).
        let _me = c.participant();
        let mut handles = Vec::new();
        for (label, ms) in [(2u32, 20u64), (0, 5), (1, 10)] {
            let c2 = c.clone();
            let order = Arc::clone(&order);
            handles.push(c.spawn(format!("sleeper-{label}"), move || {
                c2.sleep(Duration::from_millis(ms));
                order.lock().push((label, c2.now()));
            }));
        }
        // A debug build's watchdog panics in the sleeper: collect the
        // joins first, so the checks below say whether it fired.
        let joined: Vec<bool> = handles.into_iter().map(|h| h.join().is_ok()).collect();
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        let seen = order.lock().clone();
        let named = c.stall_reports();
        assert_eq!(
            c.forced_advances(),
            0,
            "{profile} build: the 250 ms watchdog stepped time; observed (label, tick) order \
             {seen:?}; the watchdog named {named:?}"
        );
        assert!(
            joined.iter().all(|&ok| ok),
            "a sleeper panicked: {joined:?}"
        );
        let ms = |n| Tick::ZERO + Duration::from_millis(n);
        assert_eq!(
            seen,
            vec![(0, ms(5)), (1, ms(10)), (2, ms(20))],
            "{profile} build: observed (label, tick) order {seen:?}; the watchdog named {named:?}"
        );
    }

    /// A spawn admits the child, but only a parent on the books holds
    /// time between two spawns: had this thread not registered, the
    /// first sleeper's park would leave nobody running and step time to
    /// its 20 ms deadline before the second sleeper existed.
    #[test]
    fn a_participant_parent_holds_time_across_its_spawns() {
        let c = Clock::new_virtual();
        let _me = c.participant();
        let sleeper = |ms| {
            let c2 = c.clone();
            c.spawn(format!("sleeper-{ms}"), move || {
                c2.sleep(Duration::from_millis(ms));
                c2.now()
            })
        };
        let late = sleeper(20);
        let core = c.virtual_core().expect("virtual");
        // Until the sleeper is parked on its deadline, or time has
        // stepped past it.
        while core.lock().deadlines.is_empty() && c.now() == Tick::ZERO {
            std::thread::yield_now();
        }
        assert_eq!(c.now(), Tick::ZERO, "the parent holds time");
        let early = sleeper(5);
        let ms = |n| Tick::ZERO + Duration::from_millis(n);
        assert_eq!(early.join().unwrap(), ms(5));
        assert_eq!(late.join().unwrap(), ms(20));
        assert_eq!(c.forced_advances(), 0);
    }

    /// Every participant's rows close exactly on its virtual lifetime,
    /// each wait booked to the cause its site named, and what the
    /// participant computes between waits to nothing.
    #[test]
    fn ledger_rows_close_on_the_lifetime_by_cause() {
        let c = Clock::new_virtual();
        // On the books before the spawns, so the worker's first sleep
        // cannot run time past the sender's birth.
        let _me = c.participant_as("master");
        let (tx, rx) = crate::mailbox::<u32>(&c);
        let c2 = c.clone();
        let worker = c.spawn("worker", move || {
            {
                let _compute = waiting_for(Cause::Compute);
                c2.sleep(Duration::from_micros(700));
            }
            let _fetch = waiting_for(Cause::Fetch);
            rx.recv().unwrap();
            {
                let _link = waiting_for(Cause::Transmit);
                c2.sleep(Duration::from_micros(30));
            }
            // The fetch scope is back in force.
            c2.sleep(Duration::from_micros(5));
        });
        let c3 = c.clone();
        let sender = c.spawn("sender", move || {
            c3.sleep(Duration::from_micros(1000));
            tx.send(7).unwrap();
        });
        worker.join().unwrap();
        sender.join().unwrap();
        let ledger = c.ledger();
        let worker = ledger.iter().find(|l| l.name == "worker").unwrap();
        assert_eq!(worker.get(Cause::Compute), 700_000);
        assert_eq!(worker.get(Cause::Fetch), 300_000 + 5_000);
        assert_eq!(worker.get(Cause::Transmit), 30_000);
        assert_eq!(worker.lifetime(), 1_035_000);
        let sender = ledger.iter().find(|l| l.name == "sender").unwrap();
        assert_eq!(sender.get(Cause::Other), 1_000_000);
        for l in &ledger {
            assert_eq!(l.rows.iter().sum::<u64>(), l.lifetime(), "{l:?}");
        }
        // A live participant's snapshot closes at now.
        {
            let _barrier = waiting_for(Cause::Barrier);
            c.sleep(Duration::from_micros(40));
        }
        let master = c.ledger().into_iter().find(|l| l.name == "master").unwrap();
        assert_eq!(master.get(Cause::Barrier), 40_000);
        assert_eq!(master.rows.iter().sum::<u64>(), master.lifetime());
        assert_eq!(master.end, c.now().as_nanos());
        assert!(Clock::real().ledger().is_empty());
    }

    /// One thread registered on two virtual clocks is blocked on the
    /// one it sleeps on and running on the other — the `omp::jobs`
    /// executor, master of every tenant's clock at once.
    #[test]
    fn one_thread_on_two_clocks_sleeps_instantly() {
        let a = Clock::new_virtual();
        let b = Clock::new_virtual();
        let _on_a = a.participant();
        let _on_b = b.participant();
        let wall = Instant::now();
        for i in 1..=100u64 {
            a.sleep(Duration::from_secs(1));
            b.sleep(Duration::from_secs(2));
            assert_eq!(a.now(), Tick::ZERO + Duration::from_secs(i));
            assert_eq!(b.now(), Tick::ZERO + Duration::from_secs(2 * i));
        }
        assert!(
            wall.elapsed() < STALL_ADVANCE,
            "200 sleeps took {:?}",
            wall.elapsed()
        );
        assert_eq!(a.forced_advances() + b.forced_advances(), 0);
    }

    /// A spawned thread pins time from `spawn`, not from whenever the
    /// OS first runs it: the parent's longer sleep cannot carry the
    /// clock past the child's earlier deadline.
    #[test]
    fn parent_sleeping_after_spawn_cannot_skip_the_child() {
        for _ in 0..200 {
            let c = Clock::new_virtual();
            let _me = c.participant();
            let c2 = c.clone();
            let child = c.spawn("child", move || {
                c2.sleep(Duration::from_millis(1));
                c2.now()
            });
            c.sleep(Duration::from_millis(10));
            assert_eq!(
                child.join().unwrap(),
                Tick::ZERO + Duration::from_millis(1),
                "the child's sleep started at t = 0"
            );
            assert_eq!(c.now(), Tick::ZERO + Duration::from_millis(10));
            assert_eq!(c.forced_advances(), 0);
        }
    }

    #[test]
    fn join_is_a_clock_visible_wait() {
        let c = Clock::new_virtual();
        let _me = c.participant();
        let c2 = c.clone();
        let child = c.spawn("worker", move || {
            c2.sleep(Duration::from_secs(5));
            7
        });
        let wall = Instant::now();
        // Parked in `join`, the parent lets the child's 5 s pass.
        assert_eq!(child.join().unwrap(), 7);
        assert_eq!(c.now(), Tick::ZERO + Duration::from_secs(5));
        assert!(wall.elapsed() < STALL_ADVANCE);
        assert_eq!(c.forced_advances(), 0);
        // A panic travels through `join` like `std::thread`'s.
        let boom = c.spawn("boom", || panic!("expected in this test"));
        assert!(boom.join().is_err());
    }

    #[test]
    fn condvar_waits_are_clock_visible_and_woken_runnable() {
        let c = Clock::new_virtual();
        let _me = c.participant();
        let gate = Arc::new((Mutex::new(false), ClockCondvar::new(&c)));
        let (g2, c2) = (Arc::clone(&gate), c.clone());
        let waiter = c.spawn("waiter", move || {
            let mut open = g2.0.lock();
            while !*open {
                open = g2.1.wait(&g2.0, open);
            }
            c2.now()
        });
        // The waiter is parked (or still counted running): either way
        // this sleep ends at exactly 1 s, and then it *is* parked.
        c.sleep(Duration::from_secs(1));
        *gate.0.lock() = true;
        gate.1.notify_all();
        // Runnable since the notify: our next sleep cannot pass it.
        c.sleep(Duration::from_secs(1));
        assert_eq!(waiter.join().unwrap(), Tick::ZERO + Duration::from_secs(1));
        assert_eq!(c.forced_advances(), 0);
    }

    #[test]
    fn condvar_wait_timeout_is_a_real_time_guard_on_both_clocks() {
        for c in [Clock::real(), Clock::new_virtual()] {
            let gate = Arc::new((Mutex::new(false), ClockCondvar::new(&c)));
            // Nobody notifies: the guard runs out in wall time, and
            // simulated time has no say in it.
            let (g, notified) =
                gate.1
                    .wait_timeout(&gate.0, gate.0.lock(), Duration::from_millis(20));
            assert!(!notified && !*g);
            drop(g);
            // Notified: woken at the notifier's tick, long before the
            // guard.
            let (g2, c2) = (Arc::clone(&gate), c.clone());
            let opener = c.spawn("opener", move || {
                c2.sleep(Duration::from_millis(3));
                *g2.0.lock() = true;
                g2.1.notify_all();
            });
            let t0 = c.now();
            let mut open = gate.0.lock();
            while !*open {
                let (g, notified) = gate.1.wait_timeout(&gate.0, open, Duration::from_secs(30));
                assert!(notified, "the opener notifies well inside the guard");
                open = g;
            }
            drop(open);
            opener.join().unwrap();
            if c.is_virtual() {
                assert_eq!(c.elapsed_since(t0), Duration::from_millis(3));
            }
            assert_eq!(c.forced_advances(), 0);
        }
    }

    #[test]
    fn blocked_scope_lets_time_advance() {
        let c = Clock::new_virtual();
        let (tx, rx) = std::sync::mpsc::channel::<u64>();
        let c2 = c.clone();
        // A participant parked in an opaque wait.
        let h = c.spawn("opaque-receiver", move || {
            let v = c2.blocked(|| rx.recv().unwrap());
            c2.msg_received();
            v
        });
        // The sleeper advances instantly once the receiver is visibly
        // blocked and nothing is pinned.
        let wall = Instant::now();
        let t0 = c.now();
        c.sleep(Duration::from_secs(5));
        assert_eq!(c.elapsed_since(t0), Duration::from_secs(5));
        assert!(wall.elapsed() < Duration::from_millis(200));
        c.msg_sent();
        tx.send(c.now().as_nanos()).unwrap();
        assert!(h.join().unwrap() >= 5_000_000_000);
        assert_eq!(c.forced_advances(), 0);
    }

    #[test]
    fn opaque_pin_holds_time_until_released() {
        let c = Clock::new_virtual();
        c.msg_sent();
        let c2 = c.clone();
        let sleeper = std::thread::spawn(move || c2.sleep(Duration::from_micros(1)));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(c.now(), Tick::ZERO, "a pin must hold time");
        c.msg_received();
        sleeper.join().unwrap();
        assert_eq!(c.now(), Tick::from_nanos(1_000));
        assert_eq!(c.forced_advances(), 0);
    }

    /// A registered thread in a wait the clock cannot see wedges the
    /// simulation; the watchdog says which thread.
    #[test]
    fn unaccounted_wait_is_reported_by_name() {
        let c = Clock::new_virtual();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let culprit = c.spawn("forgot-to-tell-the-clock", move || {
            while !stop2.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let c2 = c.clone();
        let sleeper = std::thread::spawn(move || c2.sleep(Duration::from_millis(1)));
        let outcome = sleeper.join();
        stop.store(true, Ordering::Relaxed);
        culprit.join().unwrap();
        assert_eq!(c.forced_advances(), 1);
        if cfg!(debug_assertions) {
            let panic = outcome.expect_err("debug builds panic on a stall");
            let report = panic.downcast_ref::<String>().expect("a formatted report");
            assert!(
                report.contains("forgot-to-tell-the-clock"),
                "the report names the culprit: {report}"
            );
        } else {
            outcome.expect("release builds step to the deadline");
            assert_eq!(c.now(), Tick::ZERO + Duration::from_millis(1));
        }
    }

    #[test]
    fn alarm_fires_at_deadline() {
        let c = Clock::new_virtual();
        let a = c.alarm(Duration::from_secs(3));
        let fired = Arc::new(AtomicUsize::new(0));
        let (a2, f2) = (a.clone(), Arc::clone(&fired));
        let h = std::thread::spawn(move || {
            if a2.wait() {
                f2.store(1, Ordering::SeqCst);
            }
        });
        h.join().unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert_eq!(c.now(), Tick::ZERO + Duration::from_secs(3));
    }

    #[test]
    fn alarm_cancel_wakes_waiter_and_releases_deadline() {
        let c = Clock::new_virtual();
        // Register this thread: while it runs, virtual time holds
        // still, so the waiter cannot see the alarm fire before the
        // cancel lands (the master-thread situation in the cluster).
        let _p = c.participant();
        let a = c.alarm(Duration::from_secs(30));
        let a2 = a.clone();
        let h = c.spawn("alarm-waiter", move || a2.wait());
        a.cancel();
        assert!(!h.join().unwrap(), "cancelled alarm must not fire");
        // The 30 s deadline is withdrawn: a 1 s sleep lands at 1 s.
        c.sleep(Duration::from_secs(1));
        assert_eq!(c.now(), Tick::ZERO + Duration::from_secs(1));
    }

    #[test]
    fn dropped_alarm_releases_its_deadline() {
        let c = Clock::new_virtual();
        {
            let _a = c.alarm(Duration::from_millis(1));
            // Dropped without wait() or cancel(): nobody is left to
            // wait on it, so the clock must not stop there.
        }
        c.sleep(Duration::from_secs(2));
        assert_eq!(c.now(), Tick::ZERO + Duration::from_secs(2));
    }

    #[test]
    fn alarm_on_real_clock_cancels() {
        let c = Clock::real();
        let a = c.alarm(Duration::from_secs(60));
        let a2 = a.clone();
        let h = std::thread::spawn(move || a2.wait());
        std::thread::sleep(Duration::from_millis(5));
        a.cancel();
        assert!(!h.join().unwrap());
        // And an already-expired real alarm fires immediately.
        let b = c.alarm(Duration::ZERO);
        assert!(b.wait());
    }

    #[test]
    fn clock_setting_accepts_the_named_backends() {
        assert!(!names_virtual(None));
        assert!(!names_virtual(Some("real")));
        assert!(names_virtual(Some("virtual")));
        assert!(names_virtual(Some("sim")));
    }

    #[test]
    #[should_panic(expected = "expected unset, real, virtual or sim")]
    fn clock_setting_rejects_a_misspelt_backend() {
        names_virtual(Some("virtaul"));
    }

    #[test]
    fn from_env_defaults_to_real() {
        // NOWMP_CLOCK may legitimately be set (the CI virtual job runs
        // the whole suite that way); just assert the call works and the
        // backend matches the environment.
        let want_virtual = names_virtual(std::env::var("NOWMP_CLOCK").ok().as_deref());
        assert_eq!(Clock::from_env().is_virtual(), want_virtual);
    }

    #[test]
    fn advance_to_raises_virtual_now_monotonically() {
        let c = Clock::new_virtual();
        c.advance_to(Tick::from_nanos(5_000));
        assert_eq!(c.now(), Tick::from_nanos(5_000));
        // Never backwards.
        c.advance_to(Tick::from_nanos(1_000));
        assert_eq!(c.now(), Tick::from_nanos(5_000));
        // No-op on the real backend.
        let r = Clock::real();
        r.advance_to(Tick::from_nanos(u64::MAX / 2));
        assert!(r.now() < Tick::from_nanos(u64::MAX / 4));
    }

    #[test]
    fn advance_to_wakes_virtual_sleepers() {
        let c = Clock::new_virtual();
        // This registered thread pins time, so the sleeper cannot
        // advance on its own; only the explicit advance_to releases it.
        let _pin = c.participant();
        let c2 = c.clone();
        let sleeper = c.spawn("sleeper", move || {
            c2.sleep_until(Tick::from_nanos(1_000_000));
            c2.now()
        });
        c.advance_to(Tick::from_nanos(2_000_000));
        assert_eq!(sleeper.join().unwrap(), Tick::from_nanos(2_000_000));
        assert_eq!(c.forced_advances(), 0);
    }

    #[test]
    fn participant_is_idempotent_per_thread() {
        let c = Clock::new_virtual();
        let g1 = c.participant();
        let g2 = c.participant();
        assert_eq!(core(&c).lock().running, 1);
        drop(g2);
        assert_eq!(core(&c).lock().running, 1, "the second guard is inert");
        drop(g1);
        let st = core(&c).lock();
        assert_eq!(st.running, 0);
        assert!(st.registry.is_empty());
    }

    #[test]
    fn task_scheduler_run_queue_is_fifo_and_beats_deadlines() {
        let mut s = TaskScheduler::new();
        s.park_until(9, Tick::ZERO); // due "now", but not *ready* now
        s.ready(1);
        s.ready(2);
        assert_eq!(s.pending(), 3);
        assert_eq!(s.next(), Some((Tick::ZERO, 1)));
        assert_eq!(s.next(), Some((Tick::ZERO, 2)));
        assert_eq!(s.next(), Some((Tick::ZERO, 9)));
        assert!(s.is_idle());
        assert_eq!(s.next(), None);
    }

    #[test]
    fn task_scheduler_deadlines_fire_in_tick_then_arm_order() {
        let mut s = TaskScheduler::new();
        s.park_until(3, Tick::from_nanos(300));
        s.park_until(1, Tick::from_nanos(100));
        s.park_until(2, Tick::from_nanos(100)); // same tick, armed later
        assert_eq!(s.earliest_deadline(), Some(Tick::from_nanos(100)));
        assert_eq!(s.next(), Some((Tick::from_nanos(100), 1)));
        assert_eq!(s.next(), Some((Tick::from_nanos(100), 2)));
        assert_eq!(s.now(), Tick::from_nanos(100));
        assert_eq!(s.next(), Some((Tick::from_nanos(300), 3)));
        assert_eq!(s.now(), Tick::from_nanos(300));
    }

    #[test]
    fn task_scheduler_cancel_withdraws_parked_deadline() {
        let mut s = TaskScheduler::new();
        let k = s.park_until(7, Tick::from_nanos(50));
        s.park_until(8, Tick::from_nanos(80));
        assert!(s.cancel(k));
        assert!(!s.cancel(k), "double cancel reports not-pending");
        assert_eq!(s.next(), Some((Tick::from_nanos(80), 8)));
        assert_eq!(s.next(), None);
        // now does not regress via advance_to either.
        s.advance_to(Tick::from_nanos(40));
        assert_eq!(s.now(), Tick::from_nanos(80));
    }

    #[test]
    fn task_scheduler_interleaves_wakeups_with_time() {
        // A delivery (ready) made while a deadline is pending runs
        // before time moves — the engine's park/resume protocol.
        let mut s = TaskScheduler::new();
        s.park_until(1, Tick::from_nanos(500));
        s.ready(2);
        assert_eq!(s.next(), Some((Tick::ZERO, 2)));
        s.advance_to(Tick::from_nanos(200));
        s.ready(2);
        assert_eq!(s.next(), Some((Tick::from_nanos(200), 2)));
        assert_eq!(s.next(), Some((Tick::from_nanos(500), 1)));
    }
}
