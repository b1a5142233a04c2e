//! Per-process protocol state and transitions (`ProcCore`).
//!
//! One `ProcCore` sits behind a `parking_lot::Mutex` shared by the
//! process's *application thread* (faults, interval management,
//! synchronization) and its *service thread* (serving pages, diffs,
//! records and lock requests at any time — TreadMarks' SIGIO handler).
//! It is the process's one lock: every request a peer makes is served
//! under it, and `ProcCore` itself is plain data with no lock inside
//! (its page table is a [`Pages`]).
//!
//! It owns every DSM-state transition, both halves of the fetch
//! exchange included: requests and replies are [`Msg`] values, and a
//! refused one is a value too ([`Rejected`], [`Dropped`]). Sending
//! them, waiting, and the order of the steps belong to [`crate::ctx`],
//! [`crate::service`] and [`crate::system`].
//!
//! ## Invariants
//!
//! * `vc[my_pid]` is the last *closed* interval; the open interval is
//!   `vc[my_pid] + 1`.
//! * A page's `applied` clock never exceeds the writes actually
//!   reflected in its `data`.
//! * Writes to exclusive (never-served) pages are untwinned and
//!   unrecorded, but every copy ever served includes them — so they are
//!   present in *all* copies, which keeps GC sound.
//! * **F** (fresh pages): on a pipelining data plane, in a team of two
//!   or more, no page allocated since the team was installed is ever
//!   exclusive, so every write to one leaves a notice, and zeros plus
//!   the diffs its notices name is the page ([`ProcCore::plan_access`]).
//! * Stored diffs are immutable once created, and every one is created
//!   when its interval closes.
//! * **W** (writer push): a rank enters a page's reader set only by a
//!   marked `PageReq` or `DiffReq` of our epoch (a fault inside a
//!   region body on the overlap plane), whose reply acknowledges the
//!   subscription with `push_after`, our last closed seq, read in the
//!   same hold of the core lock that enters it; it leaves only at a
//!   commit. Every interval close queues, in the same hold of the core
//!   lock that creates the diff and its record, one `DiffPush` per
//!   reader. So every diff of p we close after acknowledging r's
//!   subscription this epoch is pushed to r, and is queued before its
//!   notice can leave us. The close holds it until the synchronization
//!   message that follows is on the link, or until a `RecordsRep`
//!   hands its notice out, whichever comes first; an aggregator may
//!   let it go sooner, while it waits for its subtree.
//! * **R** (reader expectation): a notice `(p, w, s)` with no stored
//!   diff is *expected* iff w acknowledged a subscription to p this
//!   epoch at a seq lower than s — by W it is on its way.
//! * Every diff a fault applies — pushed, collected or fetched by the
//!   fault itself — sits in one store first and is
//!   applied by exactly one rule, in [`ProcCore::apply_diffs`]: as part
//!   of one causally sorted batch that covers the page's whole
//!   unapplied notice set.

use crate::config::DsmConfig;
use crate::diff::{Diff, DiffKey};
use crate::msg::{Msg, PageApplied, RegEntry, WholePage};
use crate::page::{PageBuf, PageMeta, PageState, Wn};
use crate::push::{Push, PushGate};
use crate::records::{Record, RecordStore};
use crate::shm::Registry;
use crate::stats::DsmStats;
use crate::table::Pages;
use crate::types::{Addr, Epoch, PageId, Pid, Seq, Team, Vc};
use nowmp_net::Gpid;
use nowmp_util::ClockCondvar;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

/// What the fault driver must do to make a page accessible.
#[derive(Debug)]
pub enum AccessPlan {
    /// Usable now (cache this buffer).
    Ready {
        /// The page payload.
        buf: Arc<PageBuf>,
        /// Whether writes may go through the cached entry.
        writable: bool,
    },
    /// No copy: make these requests (its `PageReq` first),
    /// [fold](ProcCore::fold) their replies in, and plan again.
    Missing(Vec<Request>),
    /// A stale copy: make these requests (none when every diff is
    /// stored or expected), fold, wait for [`ProcCore::expected_absent`],
    /// [`ProcCore::apply_diffs`], and plan again.
    Stale(Vec<Request>),
}

/// One request of an exchange: its destination, the message, and what
/// it expects back, which [`ProcCore::fold`] takes with the reply.
pub type Request = (Gpid, Msg, Expect);

/// What a [`Request`] expects back: opaque outside this module, so a
/// reply is folded only as the kind its request asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect(FetchKind);

/// The reply kinds [`ProcCore::fold`] takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FetchKind {
    /// A `PageRep` to a `PageReq` for this page.
    Full(PageId),
    /// A `DiffRep` to a `DiffReq` for diffs this rank created.
    Diffs(Pid),
    /// A `RecordsRep` to an acquire's `RecordsReq`.
    Records,
}

/// Why [`ProcCore::fold`] refused a reply. The core is left unchanged.
#[derive(Debug)]
pub enum Rejected {
    /// A `PageRep` redirecting the request for this page back to us:
    /// aiming the owner hint at ourselves would make the next plan
    /// conjure a zero page over real data.
    RedirectToSelf(PageId),
    /// A reply, from this sender, of another kind than the request
    /// (in words) asks for.
    Unexpected(&'static str, Gpid, Box<Msg>),
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::RedirectToSelf(page) => write!(f, "page {page} redirect loop back to self"),
            Rejected::Unexpected(asked, from, rep) => {
                write!(f, "unexpected reply to {asked} from {from}: {rep:?}")
            }
        }
    }
}

/// Why a message went unserved: by [`ProcCore::serve`], the service
/// thread, or a worker's wait loop.
#[derive(Debug)]
pub enum Dropped {
    /// Undecodable, a request without a reply handle, a reply kind, a
    /// request for a diff we never created, or a control message the
    /// wait loop cannot serve.
    Malformed,
    /// A request of another epoch than ours.
    Stale,
}

impl Dropped {
    /// Count the drop: in `malformed_dropped` or `stale_dropped`.
    pub fn count(self, stats: &DsmStats) {
        DsmStats::bump(match self {
            Dropped::Malformed => &stats.malformed_dropped,
            Dropped::Stale => &stats.stale_dropped,
        });
    }
}

/// A request of `epoch` is served only in that epoch (`ours`).
pub(crate) fn this_epoch(epoch: Epoch, ours: Epoch) -> Result<(), Dropped> {
    (epoch == ours).then_some(()).ok_or(Dropped::Stale)
}

/// The requests that bring a set of pages up to date, derived read-only
/// by [`ProcCore::plan_page`]: full-page fetches plus diff requests
/// batched per creator (one `DiffReq` per creator covers every planned
/// page). A fault plans one page ([`ProcCore::plan_access`]), a page
/// collection many ([`ProcCore::plan_pages`]).
#[derive(Debug, Default)]
struct FetchPlan {
    /// Pages with no local copy: `(page, holder to ask)`.
    fulls: Vec<(PageId, Gpid)>,
    /// Stale pages: per-creator `(page, seq)` wants, in page order.
    diffs: Vec<(Gpid, Vec<(PageId, Seq)>)>,
}

/// Where the diff behind an unapplied write notice will come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffSource {
    /// Already in the early-diff store.
    Stored,
    /// Its writer is pushing this page to us (rule R): wait for it.
    Expected,
    /// Nobody will send it unasked: request it.
    Network,
}

/// A diff that reached us ahead of the fault that needs it.
#[derive(Debug)]
pub struct EarlyDiff {
    /// Creator's rank.
    pub pid: Pid,
    /// Creator's interval.
    pub seq: Seq,
    /// The modifications.
    pub diff: Diff,
    /// Arrived in a `DiffPush` (the push ledger counts it) rather than
    /// in a `DiffRep`.
    pub pushed: bool,
}

/// A queued lock waiter.
pub enum LockWaiter {
    /// Remote requester (reply through the transport).
    Remote(nowmp_net::Replier),
    /// Local application thread (woken through a channel).
    Local(nowmp_util::MailboxSender<Option<Gpid>>),
}

/// Manager-side state of one lock.
#[derive(Default)]
pub struct LockMgr {
    held: bool,
    last: Option<Gpid>,
    queue: VecDeque<(Gpid, LockWaiter)>,
}

/// Outcome of a grant decision that the service loop must act on.
pub enum LockGrant {
    /// Reply `LockRep { prev }` to this remote waiter.
    Remote(nowmp_net::Replier, Option<Gpid>),
    /// Wake this local waiter with `prev`.
    Local(nowmp_util::MailboxSender<Option<Gpid>>, Option<Gpid>),
}

/// The complete DSM state of one process.
pub struct ProcCore {
    /// Static configuration.
    pub cfg: DsmConfig,
    /// This process's immutable instance id.
    pub gpid: Gpid,
    /// Current team (epoch + members).
    pub team: Team,
    /// Our rank in `team`.
    pub my_pid: Pid,
    /// Knowledge vector clock.
    pub vc: Vc,
    /// Per-page metadata and the open interval's write set.
    pub pages: Pages,
    /// Every interval record known this epoch.
    pub records: RecordStore,
    /// Our own records not yet shipped to the master (drained at
    /// join/barrier arrivals).
    pub unsent: Vec<Record>,
    /// Diffs we created, by (page, seq).
    pub diffs: HashMap<DiffKey, Arc<Diff>>,
    /// Bytes of stored diff data (GC trigger).
    pub consistency_bytes: usize,
    /// Manager-side lock state for locks we manage.
    pub locks: HashMap<u32, LockMgr>,
    /// Shared event counters.
    pub stats: Arc<DsmStats>,
    /// Handle registry replica.
    pub registry: Registry,
    /// Default directory owner for untouched pages (the master).
    pub default_owner: Gpid,
    /// Writer side of the push plane: per page, the ranks whose region
    /// fault fetched the page or its diffs from us this epoch (see
    /// [`Self::serve_page`] and [`Self::serve_diffs`]). Only grows
    /// inside an epoch (invariant W).
    pub readers: HashMap<PageId, Vec<Pid>>,
    /// The `DiffPush`es [`Self::close_interval`] queued that the
    /// service thread has yet to send, and which of them are held.
    pub push: PushGate,
    /// Reader side: every diff that reaches us, until
    /// [`Self::apply_diffs`] takes it — pushed by its writer, fetched by
    /// a fault or a page collection.
    pub early: HashMap<PageId, Vec<EarlyDiff>>,
    /// Per `(page, writer)`, the seq after which the writer pushes us
    /// every diff of the page this epoch: the lowest acknowledgement of
    /// our subscriptions to it ([`Self::acknowledged`]), what rule R
    /// reads.
    pub push_after: HashMap<(PageId, Pid), Seq>,
    /// Wakes a fault parked on an expected diff; installed by the
    /// application thread's [`crate::ctx::TmkCtx`], the only waiter.
    pub early_cv: Option<Arc<ClockCondvar>>,
    /// The first page allocated in this epoch: the length of the
    /// directory that installed the team ([`Self::seat`]), the same at
    /// every member. See [`Self::made_here`].
    fresh_from: PageId,
}

/// A `PageRep` with no acknowledgement ([`ProcCore::serve_page`] adds
/// it).
fn page_reply(applied: Vec<(Pid, Seq)>, words: Vec<u64>, redirect: Option<Gpid>) -> Msg {
    Msg::PageRep {
        applied,
        words,
        redirect,
        push_after: None,
    }
}

impl ProcCore {
    /// Fresh state for a process joining (or founding) a system whose
    /// master is `default_owner`.
    pub fn new(cfg: DsmConfig, gpid: Gpid, stats: Arc<DsmStats>, default_owner: Gpid) -> Self {
        cfg.validate();
        ProcCore {
            cfg,
            gpid,
            team: Team::new(0, vec![gpid]),
            my_pid: 0,
            vc: Vc::new(1),
            pages: Pages::default(),
            records: RecordStore::new(),
            unsent: Vec::new(),
            diffs: HashMap::new(),
            consistency_bytes: 0,
            locks: HashMap::new(),
            stats,
            registry: Registry::new(),
            default_owner,
            readers: HashMap::new(),
            push: PushGate::default(),
            early: HashMap::new(),
            push_after: HashMap::new(),
            early_cv: None,
            fresh_from: 0,
        }
    }

    /// Current protocol epoch.
    pub fn epoch(&self) -> Epoch {
        self.team.epoch
    }

    /// The open interval's sequence number.
    fn open_seq(&self) -> Seq {
        self.vc.get(self.my_pid) + 1
    }

    /// Grow the page table to cover `n` pages.
    pub fn ensure_pages(&mut self, n: usize) {
        self.pages.ensure(n, self.default_owner);
    }

    // ------------------------------------------------------------------
    // Fault handling (application thread)
    // ------------------------------------------------------------------

    /// Decide how to obtain access to `page`; performs the local-only
    /// transitions (twin creation, the zero page of an owner or of a
    /// page it makes here, `made_here`) inline, and plans the rest
    /// with [`Self::plan_page`], the planner a page collection uses
    /// too. The requests are `subscribe`-marked when
    /// the fault is a region body's on a pipelining data plane
    /// ([`crate::ctx::TmkCtx`] decides).
    pub fn plan_access(&mut self, page: PageId, want_write: bool, subscribe: bool) -> AccessPlan {
        self.ensure_pages(page as usize + 1);
        let spp = self.cfg.slots_per_page();
        let me = self.gpid;
        let meta = &self.pages[page];
        match meta.state {
            PageState::Write => {
                // A page we are writing can still have pending notices:
                // another process wrote different words of it under a
                // different synchronization domain (page-level false
                // sharing — the multiple-writer case). Merge its diffs
                // into our working copy before further access.
                if !meta.unapplied().is_empty() {
                    return self.fault_requests(page, meta, subscribe);
                }
                let buf = Arc::clone(meta.data.as_ref().expect("Write state implies data"));
                AccessPlan::Ready {
                    buf,
                    writable: true,
                }
            }
            PageState::Read => {
                if !want_write {
                    let buf = Arc::clone(meta.data.as_ref().expect("Read state implies data"));
                    return AccessPlan::Ready {
                        buf,
                        writable: false,
                    };
                }
                // Write fault on a valid page: twin unless exclusive.
                DsmStats::bump(&self.stats.write_faults);
                let meta = &mut self.pages[page];
                let data = Arc::clone(meta.data.as_ref().expect("Read state implies data"));
                if meta.shared {
                    meta.twin = Some(data.snapshot());
                    DsmStats::bump(&self.stats.twins_created);
                }
                meta.state = PageState::Write;
                self.pages.mark_dirty(page);
                // NOTE: `applied[my_pid]` is NOT raised here. Open-interval
                // writes are only attributed once the interval closes and
                // becomes a record; raising early would let an unrecorded
                // (exclusive) write shadow a later recorded interval with
                // the same sequence number.
                AccessPlan::Ready {
                    buf: data,
                    writable: true,
                }
            }
            PageState::Invalid => {
                if meta.data.is_some() && meta.unapplied().is_empty() {
                    // A stale copy with nothing pending after all — promote.
                    self.pages[page].state = PageState::Read;
                    self.plan_access(page, want_write, subscribe)
                } else if meta.data.is_none() && self.made_here(page) {
                    // Allocated this epoch, so every write to it left a
                    // notice: it is zeros plus the diffs its notices
                    // name. Shared, so our own writes twin.
                    let meta = &mut self.pages[page];
                    meta.data = Some(Arc::new(PageBuf::new(spp)));
                    meta.shared = true;
                    if meta.unapplied().is_empty() {
                        return self.plan_access(page, want_write, subscribe);
                    }
                    let plan = self.plan_fault(page, &self.pages[page]);
                    AccessPlan::Stale(self.requests(plan, subscribe, true))
                } else if meta.data.is_none() && meta.owner == me && meta.pending.is_empty() {
                    // We are the directory owner of a page nobody has
                    // materialized yet, and nobody has written it
                    // either (no notices): conjure the zero page (the
                    // backing store of an allocation). With notices
                    // present, the writer's copy is the truth and we
                    // must fetch like anyone else.
                    let meta = &mut self.pages[page];
                    let buf = Arc::new(PageBuf::new(spp));
                    meta.data = Some(Arc::clone(&buf));
                    meta.state = PageState::Read;
                    // Exclusive until first served — but if we already
                    // lent zeros to someone, copies exist out there and
                    // our writes must be twinned and recorded.
                    meta.shared = meta.zero_lent;
                    self.plan_access(page, want_write, subscribe)
                } else {
                    self.fault_requests(page, meta, subscribe)
                }
            }
        }
    }

    /// A fault's requests for `page`: [`Self::plan_fault`]'s plan as
    /// messages, for a page with no copy or a stale one.
    fn fault_requests(&self, page: PageId, meta: &PageMeta, subscribe: bool) -> AccessPlan {
        let requests = self.requests(self.plan_fault(page, meta), subscribe, false);
        match meta.data {
            None => AccessPlan::Missing(requests),
            Some(_) => AccessPlan::Stale(requests),
        }
    }

    /// A fault's one-page plan: [`Self::plan_page`], with the creators
    /// in team rank order starting after our own rank — the same order
    /// every run, and concurrent faults on one page do not all ask the
    /// same creator first. (A multi-page plan keeps the order it first
    /// saw each creator in; docs/DATAPLANE.md, lever 1, has both
    /// measurements.) When the data plane pipelines, a page with no
    /// copy also asks each other writer tied at the newest vcsum for
    /// its diff there, in the same round as the page: the request
    /// subscribes us to that writer, so the next interval's diffs are
    /// pushed instead of asked for (docs/DATAPLANE.md, "Cold pages").
    fn plan_fault(&self, page: PageId, meta: &PageMeta) -> FetchPlan {
        let mut plan = FetchPlan::default();
        self.plan_page(page, meta, &mut plan);
        if let [(_, holder)] = plan.fulls[..] {
            if self.cfg.dataplane.pipeline() {
                for (pid, seq) in self.newest_writers(meta) {
                    let creator = self.team.gpid(pid);
                    if creator != holder && self.diff_source(page, pid, seq) == DiffSource::Network
                    {
                        plan.diffs.push((creator, vec![(page, seq)]));
                    }
                }
            }
        }
        let (n, me) = (self.team.nprocs(), self.my_pid as usize);
        plan.diffs.sort_by_key(|(creator, _)| {
            self.team
                .pid_of(*creator)
                .map(|p| (p as usize + n - me) % n)
        });
        plan
    }

    /// Add to `plan` the requests `page` needs: with no local copy, the
    /// full page from its [`Self::holder`]; with a stale one, the
    /// unapplied notices only a request can satisfy
    /// ([`DiffSource::Network`]), grouped per creator in the order the
    /// plan first sees each.
    fn plan_page(&self, page: PageId, meta: &PageMeta, plan: &mut FetchPlan) {
        if meta.data.is_none() {
            plan.fulls.push((page, self.holder(meta)));
            return;
        }
        for wn in meta.unapplied() {
            if self.diff_source(page, wn.pid, wn.seq) != DiffSource::Network {
                continue;
            }
            let creator = self.team.gpid(wn.pid);
            match plan.diffs.iter_mut().find(|(g, _)| *g == creator) {
                Some((_, wants)) => wants.push((page, wn.seq)),
                None => plan.diffs.push((creator, vec![(page, wn.seq)])),
            }
        }
    }

    /// Whether a fault on `page` with no copy makes it here: the zero
    /// page, then the diffs of the writers its notices name, asked in
    /// one round (`whole_if_smaller` for a chain), and nothing asked
    /// when it holds no notice. Sound for a page allocated this epoch
    /// (at or past `fresh_from`) in a team of two or more on a
    /// pipelining data plane, because there nobody holds it
    /// exclusively — its owner makes it here too, shared — so every
    /// write to it left a notice. A one-process team keeps the
    /// owner's exclusive page, whose writes cost no twin; the commit
    /// that grows the team moves `fresh_from` past it. The 1999 demand
    /// plane fetches every page whole from its [`Self::holder`], as
    /// TreadMarks did.
    fn made_here(&self, page: PageId) -> bool {
        page >= self.fresh_from && self.team.nprocs() >= 2 && self.cfg.dataplane.pipeline()
    }

    /// Who to ask for a page we hold no copy of and do not
    /// [make here](Self::made_here) (one allocated before the last
    /// commit, or any on the 1999 plane, or a page collection's): a
    /// writer at the newest vcsum we know of, else the directory
    /// owner. Writers tied at the
    /// newest vcsum cannot be causally ordered, so no tied writer's
    /// copy covers another's and asking any of them leaves the same
    /// diffs to fetch; when the data plane pipelines, our rank picks
    /// one, so a page's cold readers spread over its newest writers
    /// instead of all asking one ([`Self::plan_fault`] asks the others
    /// for their diffs). The 1999 demand plane asks the last tied
    /// writer in notice order, as TreadMarks did.
    fn holder(&self, meta: &PageMeta) -> Gpid {
        let Some(newest) = meta.pending.iter().max_by_key(|w| w.vcsum) else {
            return meta.owner;
        };
        if !self.cfg.dataplane.pipeline() {
            return self.team.gpid(newest.pid);
        }
        let tied = self.newest_writers(meta);
        self.team.gpid(tied[self.my_pid as usize % tied.len()].0)
    }

    /// The writers of `meta`'s notices tied at the newest vcsum, in pid
    /// order, each with its seq there.
    fn newest_writers(&self, meta: &PageMeta) -> Vec<(Pid, Seq)> {
        let newest = meta.pending.iter().map(|w| w.vcsum).max();
        let mut tied: Vec<(Pid, Seq)> = meta
            .pending
            .iter()
            .filter(|w| Some(w.vcsum) == newest)
            .map(|w| (w.pid, w.seq))
            .collect();
        tied.sort_unstable();
        tied.dedup();
        tied
    }

    /// Install a page a creator served whole, in place of its diff
    /// chain, over our stale copy — if the served clock covers everything the copy has applied, so
    /// nothing the copy holds is lost. Otherwise it is dropped and the
    /// fault that follows fetches the page's chain.
    fn install_whole(&mut self, whole: WholePage, from: Gpid) {
        let mut served = Vc::default();
        whole.applied.iter().for_each(|&(p, s)| served.set(p, s));
        let meta = &self.pages[whole.page];
        let covers = meta.state == PageState::Invalid && served.dominates(&meta.applied);
        if covers {
            DsmStats::bump(&self.stats.gc_whole_pages);
            self.install_page(whole.page, &whole.applied, whole.words, from);
        }
    }

    /// Install a fetched full page.
    fn install_page(&mut self, page: PageId, applied: &[(Pid, Seq)], words: Vec<u64>, from: Gpid) {
        self.ensure_pages(page as usize + 1);
        assert_eq!(
            words.len(),
            self.cfg.slots_per_page(),
            "page payload size mismatch"
        );
        DsmStats::bump(&self.stats.pages_fetched);
        let meta = &mut self.pages[page];
        meta.data = Some(Arc::new(PageBuf::from_words(&words)));
        let mut vc = Vc::default();
        for &(p, s) in applied {
            vc.set(p, s);
        }
        meta.applied = vc;
        meta.owner = from;
        meta.shared = true; // another copy (the server's) exists
        meta.prune_pending();
        meta.state = if meta.unapplied().is_empty() {
            PageState::Read
        } else {
            PageState::Invalid
        };
        // Early diffs the served copy already reflects are dead weight.
        if let Some(stored) = self.early.get_mut(&page) {
            stored.retain(|e| {
                let live = e.seq > meta.applied.get(e.pid);
                if !live {
                    self.consistency_bytes =
                        self.consistency_bytes.saturating_sub(e.diff.wire_bytes());
                    if e.pushed {
                        DsmStats::bump(&self.stats.push_wasted);
                    }
                }
                live
            });
        }
    }

    /// Apply to a stale page every diff the early-diff store holds for
    /// its unapplied notices, in causal (vcsum) order. This is the one
    /// place diffs are applied: the fault deposited what it asked the
    /// network for ([`Self::plan_access`]) and waited for what it
    /// expected ([`Self::expected_absent`]), so the store covers the
    /// page's whole unapplied set and one sort orders all of it.
    pub fn apply_diffs(&mut self, page: PageId) {
        self.ensure_pages(page as usize + 1);
        let meta = &mut self.pages[page];
        let mut batch: Vec<(Pid, Seq, Diff)> = Vec::new();
        if let Some(stored) = self.early.remove(&page) {
            let unapplied = meta.unapplied();
            let mut keep = Vec::new();
            for e in stored {
                if !unapplied.iter().any(|w| w.pid == e.pid && w.seq == e.seq) {
                    keep.push(e); // its notice has not reached us yet
                    continue;
                }
                self.consistency_bytes = self.consistency_bytes.saturating_sub(e.diff.wire_bytes());
                if e.pushed {
                    DsmStats::bump(&self.stats.push_hits);
                }
                batch.push((e.pid, e.seq, e.diff));
            }
            if !keep.is_empty() {
                self.early.insert(page, keep);
            }
        }
        // Attach vcsum sort keys from the pending write notices.
        let keyed: HashMap<(Pid, Seq), u64> = meta
            .pending
            .iter()
            .map(|w| ((w.pid, w.seq), w.vcsum))
            .collect();
        batch.sort_by_key(|(p, s, _)| keyed.get(&(*p, *s)).copied().unwrap_or(u64::MAX));
        let data = Arc::clone(
            meta.data
                .as_ref()
                .expect("apply_diffs requires a stale local copy"),
        );
        let mut words = 0u64;
        for (pid, seq, diff) in &batch {
            diff.apply(&data);
            // Multiple-writer invariant: our eventual close-diff must
            // contain *only our own* modifications, or it would carry
            // stale copies of other writers' words and clobber their
            // concurrent updates at third parties. Folding received
            // diffs into the twin keeps twin == "everyone else's state".
            if let Some(twin) = &mut meta.twin {
                diff.apply_to_words(twin);
            }
            words += diff.words() as u64;
            meta.applied.raise(*pid, *seq);
        }
        DsmStats::add(&self.stats.diffs_fetched, batch.len() as u64);
        DsmStats::add(&self.stats.diff_words, words);
        meta.prune_pending();
        // Promote stale copies to Read; a page we are concurrently
        // writing (multiple-writer merge) stays Write.
        if meta.unapplied().is_empty() && meta.state == PageState::Invalid {
            meta.state = PageState::Read;
        }
    }

    /// Derive, without mutating any page state, what a page collection
    /// over `pages` should request, each page planned by
    /// [`Self::plan_page`] in the order given. Pages already valid, and
    /// pages the fault completes from ourselves — a copy with a diff of
    /// our own to apply, a page whose holder is us (the zero page we
    /// own included) — are skipped, and so are notices the early-diff
    /// store already covers or expects: the plan only covers requests a
    /// demand fault would also have made. Its `DiffReq`s ask
    /// `whole_if_smaller` where they name a chain ([`Self::requests`]).
    pub fn plan_pages(&self, pages: &[PageId], subscribe: bool) -> Vec<Request> {
        let mut plan = FetchPlan::default();
        for &page in pages {
            let Some(meta) = self.pages.get(page) else {
                continue;
            };
            let ours = match meta.data {
                Some(_) => meta
                    .unapplied()
                    .iter()
                    .any(|wn| self.team.gpid(wn.pid) == self.gpid),
                None => self.holder(meta) == self.gpid,
            };
            if meta.state == PageState::Invalid && !ours {
                self.plan_page(page, meta, &mut plan);
            }
        }
        self.requests(plan, subscribe, true)
    }

    /// The requests of `plan`, in order, each with what it expects
    /// back: one `PageReq` per full page, then one `DiffReq` per
    /// creator, all of our epoch. Every one is `subscribe`-marked when
    /// asked; when `whole_if_smaller` is set (a page collection), a
    /// `DiffReq` is `whole_if_smaller`-marked if it asks for two or more
    /// diffs of one page (a one-diff chain is no longer than its page,
    /// give or take run headers). A creator that left the team is
    /// skipped; the demand path re-plans.
    fn requests(&self, plan: FetchPlan, subscribe: bool, whole_if_smaller: bool) -> Vec<Request> {
        let epoch = self.epoch();
        let fulls = plan.fulls.into_iter().map(|(page, holder)| {
            let msg = Msg::PageReq {
                epoch,
                page,
                subscribe,
            };
            (holder, msg, Expect(FetchKind::Full(page)))
        });
        let diffs = plan.diffs.into_iter().filter_map(|(creator, wants)| {
            let pid = self.team.pid_of(creator)?;
            // A page's wants are adjacent (`Self::plan_page`).
            let chain = wants.windows(2).any(|w| w[0].0 == w[1].0);
            let msg = Msg::DiffReq {
                epoch,
                wants,
                subscribe,
                whole_if_smaller: whole_if_smaller && chain,
            };
            Some((creator, msg, Expect(FetchKind::Diffs(pid))))
        });
        fulls.chain(diffs).collect()
    }

    /// The request an acquire makes of the lock's previous holder
    /// `prev`: the records our clock lacks. None when there was no
    /// holder, or it was us.
    pub fn plan_acquire(&self, prev: Option<Gpid>) -> Option<Request> {
        let prev = prev.filter(|&p| p != self.gpid)?;
        let msg = Msg::RecordsReq {
            epoch: self.epoch(),
            vc: self.vc.clone(),
        };
        Some((prev, msg, Expect(FetchKind::Records)))
    }

    /// Fold `reply`, from `from`, to a request that expects `expect` —
    /// the one place a page, diff or records reply lands: install a
    /// missing page, re-aim the owner
    /// hint at a redirect's target (the fault re-plans), deposit diffs
    /// into the early-diff store (the fault applies them from there),
    /// install pages served whole instead of a chain, or apply an
    /// acquire's records (which merges no clock). A reply's `push_after`
    /// acknowledges every page its request named: rule R reads it. A
    /// redirect back to us, or a reply of another kind than `expect` or
    /// carrying a page of another size than ours, is rejected, and the
    /// core is left unchanged.
    pub fn fold(&mut self, expect: Expect, from: Gpid, reply: Msg) -> Result<(), Rejected> {
        let spp = self.cfg.slots_per_page();
        match (expect.0, reply) {
            (
                FetchKind::Full(page),
                Msg::PageRep {
                    redirect: Some(next),
                    ..
                },
            ) => {
                if next == self.gpid {
                    return Err(Rejected::RedirectToSelf(page));
                }
                self.pages[page].owner = next;
            }
            (
                FetchKind::Full(page),
                Msg::PageRep {
                    applied,
                    words,
                    redirect: None,
                    push_after,
                },
            ) if words.len() == spp => {
                let still_wanted = self
                    .pages
                    .get(page)
                    .is_some_and(|m| m.data.is_none() && m.state == PageState::Invalid);
                if still_wanted {
                    self.install_page(page, &applied, words, from);
                }
                if let (Some(after), Some(server)) = (push_after, self.team.pid_of(from)) {
                    self.acknowledged(server, [page], after);
                }
            }
            (
                FetchKind::Diffs(creator),
                Msg::DiffRep {
                    diffs,
                    pages,
                    push_after,
                },
            ) if pages.iter().all(|w| w.words.len() == spp) => {
                if let Some(after) = push_after {
                    let named = diffs.iter().map(|d| d.0);
                    self.acknowledged(creator, named.chain(pages.iter().map(|w| w.page)), after);
                }
                for whole in pages {
                    self.install_whole(whole, from);
                }
                self.deposit(creator, diffs, false);
            }
            (FetchKind::Records, Msg::RecordsRep { records }) => self.apply_records(&records),
            (kind, reply) => {
                let asked = match kind {
                    FetchKind::Records => "RecordsReq",
                    _ => "a page or diff request",
                };
                return Err(Rejected::Unexpected(asked, from, Box::new(reply)));
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Early diffs (reader side of the push plane)
    // ------------------------------------------------------------------

    /// Rule R, and the store lookup in front of it: where the diff
    /// behind the unapplied notice `(page, pid, seq)` will come from.
    fn diff_source(&self, page: PageId, pid: Pid, seq: Seq) -> DiffSource {
        let stored = self
            .early
            .get(&page)
            .is_some_and(|v| v.iter().any(|e| e.pid == pid && e.seq == seq));
        if stored {
            DiffSource::Stored
        } else if self.push_after.get(&(page, pid)).is_some_and(|&a| a < seq) {
            // `pid` acknowledged our subscription to this page before
            // it closed `seq`, so (W) it pushes this diff. "Before"
            // matters: a diff closed before the subscription took
            // effect is never pushed.
            DiffSource::Expected
        } else {
            DiffSource::Network
        }
    }

    /// An unapplied notice of `page` whose pushed diff has not arrived
    /// yet, as `(writer, seq)` — what a fault parks on.
    pub fn expected_absent(&self, page: PageId) -> Option<(Pid, Seq)> {
        let meta = self.pages.get(page)?;
        meta.unapplied()
            .into_iter()
            .find(|wn| self.diff_source(page, wn.pid, wn.seq) == DiffSource::Expected)
            .map(|wn| (wn.pid, wn.seq))
    }

    /// Put diffs created by rank `from` into the early-diff store and
    /// wake a fault parked on one of them. Skipped: what the page's
    /// `applied` clock already covers, what the store already holds (a
    /// push can cross a request for the same diff on the wire: the
    /// first copy wins), and — unless `pushed`, whose notices may still
    /// be on their way — what matches no pending notice (no fault
    /// would take it, so it would sit here for the rest of the epoch).
    fn deposit(
        &mut self,
        from: Pid,
        diffs: impl IntoIterator<Item = (PageId, Seq, Diff)>,
        pushed: bool,
    ) {
        for (page, seq, diff) in diffs {
            self.ensure_pages(page as usize + 1);
            let meta = &self.pages[page];
            let useful = seq > meta.applied.get(from)
                && (pushed || meta.pending.iter().any(|w| w.pid == from && w.seq == seq));
            if !useful || self.diff_source(page, from, seq) == DiffSource::Stored {
                if pushed {
                    DsmStats::bump(&self.stats.push_wasted);
                }
                continue;
            }
            self.consistency_bytes += diff.wire_bytes();
            self.early.entry(page).or_default().push(EarlyDiff {
                pid: from,
                seq,
                diff,
                pushed,
            });
        }
        if let Some(cv) = &self.early_cv {
            cv.notify_all();
        }
    }

    /// Take in a `DiffPush` from `src`. One from another epoch is
    /// dropped whole: its sequence numbers mean nothing here.
    pub fn deposit_push(&mut self, epoch: Epoch, src: Gpid, diffs: Vec<(PageId, Seq, Arc<Diff>)>) {
        let from = self.team.pid_of(src).filter(|_| epoch == self.epoch());
        match from {
            Some(pid) => self.deposit(
                pid,
                diffs
                    .into_iter()
                    .map(|(p, s, d)| (p, s, Arc::unwrap_or_clone(d))),
                true,
            ),
            None => DsmStats::add(&self.stats.push_wasted, diffs.len() as u64),
        }
    }

    /// Take in rank `from`'s acknowledgement of our subscription to
    /// `pages`: it pushes us every diff of them it closes after `after`
    /// this epoch (W). The lowest acknowledgement stands, as a reader
    /// set never shrinks inside an epoch.
    fn acknowledged(&mut self, from: Pid, pages: impl IntoIterator<Item = PageId>, after: Seq) {
        for page in pages {
            let a = self.push_after.entry((page, from)).or_insert(after);
            *a = (*a).min(after);
        }
    }

    // ------------------------------------------------------------------
    // Interval management
    // ------------------------------------------------------------------

    /// Close the open interval: turn twins into diffs, emit the
    /// interval record, advance the clock — and queue the new diffs of
    /// pages with readers for the service thread to push (invariant W),
    /// held until the caller's synchronization message is on the link
    /// ([`PushGate::hold_close`], [`crate::ctx::TmkCtx::wake_pusher`]).
    /// Returns the record if any page was written.
    pub fn close_interval(&mut self) -> Option<Record> {
        let (rec, pushes) = self.close_writes().unzip();
        self.push.hold_close(pushes.unwrap_or_default());
        rec
    }

    /// [`Self::close_interval`]'s record, and the pushes of its diffs.
    fn close_writes(&mut self) -> Option<(Record, Vec<Push>)> {
        let dirty = self.pages.drain_dirty();
        if dirty.is_empty() {
            return None;
        }
        let seq = self.open_seq();
        let me = self.my_pid;
        let mut rec_pages = Vec::with_capacity(dirty.len());
        let mut to_push: Vec<(PageId, Arc<Diff>)> = Vec::new();
        for page in dirty {
            let meta = &mut self.pages[page];
            // Write notices may have arrived *during* the interval (the
            // multiple-writer case keeps the page writable); a closing
            // page with unapplied notices is a stale copy, not a valid
            // one.
            meta.state = if meta.unapplied().is_empty() {
                PageState::Read
            } else {
                PageState::Invalid
            };
            match meta.twin.take() {
                Some(twin) => {
                    let data = meta.data.as_ref().expect("twinned page has data");
                    let diff = Diff::create(&twin, data, 0);
                    if diff.is_empty() {
                        continue; // spurious write fault, nothing changed
                    }
                    self.consistency_bytes += diff.wire_bytes();
                    let diff = Arc::new(diff);
                    if self.readers.contains_key(&page) {
                        to_push.push((page, Arc::clone(&diff)));
                    }
                    self.diffs.insert(DiffKey { page, seq }, diff);
                    // `applied` is raised only for *recorded* writes;
                    // unrecorded ones must never shadow a later record
                    // reusing the same sequence number.
                    meta.applied.raise(me, seq);
                    rec_pages.push(page);
                }
                None => {
                    // Exclusive page: writes propagate with the full copy
                    // on first request; no write notice (and no `applied`
                    // attribution — the interval emits no record for it).
                    debug_assert!(!meta.shared, "twinless dirty page must be exclusive");
                }
            }
        }
        if rec_pages.is_empty() {
            return None;
        }
        // Canonical ascending order: worksharing loops dirty contiguous
        // page blocks, so sorted notices interval-encode to a handful of
        // runs on the wire (see `records::enc_pages`).
        rec_pages.sort_unstable();
        self.vc.set(me, seq);
        let rec = Record {
            pid: me,
            seq,
            vc: self.vc.clone(),
            pages: rec_pages,
        };
        self.records.insert(rec.clone());
        self.unsent.push(rec.clone());
        Some((rec, self.encode_pushes(seq, to_push)))
    }

    /// One `DiffPush` per reader of the pages in `created` (the diffs
    /// of interval `seq`), each carrying all of that reader's pages.
    /// Readers go in `(reader - me) mod n` order, so when every rank
    /// pushes to every other the exchange is a rotation and no rank's
    /// inbound link is everyone's first target. Readers of the same
    /// pages share one encoding.
    fn encode_pushes(&self, seq: Seq, mut created: Vec<(PageId, Arc<Diff>)>) -> Vec<Push> {
        created.sort_unstable_by_key(|&(page, _)| page);
        let mut per_reader: Vec<(Pid, Vec<(PageId, Seq, Arc<Diff>)>)> = Vec::new();
        for (page, diff) in created {
            for &r in &self.readers[&page] {
                let entry = (page, seq, Arc::clone(&diff));
                match per_reader.iter_mut().find(|(p, _)| *p == r) {
                    Some((_, diffs)) => diffs.push(entry),
                    None => per_reader.push((r, vec![entry])),
                }
            }
        }
        let (n, me) = (self.team.nprocs(), self.my_pid as usize);
        per_reader.sort_by_key(|&(r, _)| (r as usize + n - me) % n);
        let epoch = self.epoch();
        let mut encoded: Vec<(Vec<PageId>, bytes::Bytes)> = Vec::new();
        let mut pushes = Vec::with_capacity(per_reader.len());
        for (r, diffs) in per_reader {
            let pages: Vec<PageId> = diffs.iter().map(|d| d.0).collect();
            let payload = match encoded.iter().find(|(p, _)| *p == pages) {
                Some((_, bytes)) => bytes.clone(),
                None => {
                    let bytes = Msg::DiffPush { epoch, diffs }.encode(&self.cfg);
                    encoded.push((pages.clone(), bytes.clone()));
                    bytes
                }
            };
            pushes.push((self.team.gpid(r), payload, pages.len() as u64));
        }
        pushes
    }

    /// Integrate received records: store, merge clocks, post write
    /// notices, invalidate affected pages.
    fn apply_records(&mut self, recs: &[Record]) {
        for rec in recs {
            if !self.records.insert(rec.clone()) {
                continue;
            }
            self.vc.merge(&rec.vc);
            self.vc.raise(rec.pid, rec.seq);
            let vcsum = rec.vcsum();
            for &page in &rec.pages {
                self.ensure_pages(page as usize + 1);
                let meta = &mut self.pages[page];
                let before = meta.pending.len();
                meta.push_wn(Wn {
                    pid: rec.pid,
                    seq: rec.seq,
                    vcsum,
                });
                // Invalidate; the copy (if any) becomes stale. A page we
                // are currently writing stays writable — the
                // multiple-writer protocol merges via diffs.
                if meta.pending.len() > before && meta.state == PageState::Read {
                    meta.state = PageState::Invalid;
                }
            }
        }
    }

    /// Take in the knowledge a `Fork`, a `BarrierRelease` or an
    /// arrival aggregate carries: its records, then its clock.
    pub fn learn(&mut self, vc: &Vc, records: &[Record]) {
        self.apply_records(records);
        self.vc.merge(vc);
    }

    /// Close the open interval at a join or barrier
    /// ([`Self::close_interval`]) and take our records not yet shipped:
    /// an arrival's payload. (The master drops them: its next fork or
    /// release hands out its record store.)
    pub fn close_and_drain(&mut self) -> Vec<Record> {
        self.close_interval();
        std::mem::take(&mut self.unsent)
    }

    // ------------------------------------------------------------------
    // Serving (service thread)
    // ------------------------------------------------------------------

    /// Answer `req`, a peer's `PageReq`, `DiffReq` or `RecordsReq` sent
    /// by `src`: the reply, or why it is dropped. A request of another
    /// epoch than ours is [`Dropped::Stale`]; a `DiffReq` naming a diff
    /// we never created, and every other message, is
    /// [`Dropped::Malformed`]. A marked page or diff request subscribes
    /// its sender ([`Self::subscriber`]); a `RecordsReq` releases the
    /// pushes a close holds, since its reply may hand out their notices
    /// to a reader parked on them.
    pub fn serve(&mut self, src: Gpid, req: &Msg) -> Result<Msg, Dropped> {
        match *req {
            Msg::PageReq {
                epoch,
                page,
                subscribe,
            } => {
                this_epoch(epoch, self.epoch())?;
                let subscriber = self.subscriber(subscribe, epoch, src);
                Ok(self.serve_page(page, subscriber))
            }
            Msg::DiffReq {
                epoch,
                ref wants,
                subscribe,
                whole_if_smaller,
            } => {
                this_epoch(epoch, self.epoch())?;
                let subscriber = self.subscriber(subscribe, epoch, src);
                self.serve_diffs(wants, subscriber, whole_if_smaller)
                    .ok_or(Dropped::Malformed)
            }
            Msg::RecordsReq { epoch, ref vc } => {
                this_epoch(epoch, self.epoch())?;
                self.push.release_pushes();
                let records = self.records.newer_than(vc);
                Ok(Msg::RecordsRep { records })
            }
            _ => Err(Dropped::Malformed),
        }
    }

    /// The rank a request from `src` in `epoch` subscribes: none
    /// unless it is `subscribe`-marked, of our epoch (in another, its
    /// pid would name a member of another team) and from a member.
    fn subscriber(&self, subscribe: bool, epoch: Epoch, src: Gpid) -> Option<Pid> {
        self.team
            .pid_of(src)
            .filter(|_| subscribe && epoch == self.epoch())
    }

    /// Enter `subscriber` into the reader sets of `pages` and return the
    /// acknowledgement its reply carries: our last closed seq, read in
    /// the same hold of the core lock, so every diff of these pages we
    /// close from now on this epoch is pushed to it (invariant W).
    fn subscribe(
        &mut self,
        pages: impl IntoIterator<Item = PageId>,
        subscriber: Option<Pid>,
    ) -> Option<Seq> {
        let r = subscriber?;
        for page in pages {
            let readers = self.readers.entry(page).or_default();
            if !readers.contains(&r) {
                readers.push(r);
            }
        }
        Some(self.vc.get(self.my_pid))
    }

    /// Serve a full-page request. A marked request from a region fault
    /// names its rank as `subscriber` ([`Self::subscriber`]): unless we
    /// redirect it, it enters the page's [reader set](Self::readers)
    /// and the reply carries the acknowledgement.
    fn serve_page(&mut self, page: PageId, subscriber: Option<Pid>) -> Msg {
        let mut rep = self.page_rep(page);
        if let Msg::PageRep {
            redirect: None,
            push_after,
            ..
        } = &mut rep
        {
            *push_after = self.subscribe([page], subscriber);
        }
        rep
    }

    /// The page as [`Self::serve_page`] serves it, before any
    /// subscription.
    fn page_rep(&mut self, page: PageId) -> Msg {
        self.ensure_pages(page as usize + 1);
        let open_seq = self.open_seq();
        let me_pid = self.my_pid;
        let meta = &mut self.pages[page];
        match meta.data.clone() {
            None => {
                if meta.owner == self.gpid {
                    // Directory owner of a never-materialized page: the
                    // backing store is all-zeros. Serve zeros *without*
                    // keeping a copy — holding one would leave us a
                    // permanently stale replica that later drags whole
                    // diff chains (a real mmap-based DSM never maps a
                    // page it does not touch). Safe because an
                    // owner-without-data implies no GC'd content exists;
                    // any this-epoch writes live in the writers' diffs,
                    // which the requester fetches via its write notices.
                    meta.zero_lent = true;
                    page_reply(vec![], vec![0; self.cfg.slots_per_page()], None)
                } else {
                    page_reply(vec![], vec![], Some(meta.owner))
                }
            }
            Some(data) => {
                if !meta.shared {
                    // Exclusive page becoming shared. If it is dirty in
                    // the open interval with no twin, the served snapshot
                    // becomes the twin so post-snapshot writes diff.
                    meta.shared = true;
                    if meta.state == PageState::Write && meta.twin.is_none() {
                        let snap = data.snapshot();
                        meta.twin = Some(snap.clone());
                        DsmStats::bump(&self.stats.twins_created);
                        // `applied` holds closed knowledge only; the open
                        // interval's diff will carry post-snapshot writes.
                        debug_assert!(meta.applied.get(me_pid) < open_seq);
                        let applied = meta.applied.iter_nonzero().collect();
                        self.pages.mark_dirty(page);
                        return page_reply(applied, snap, None);
                    }
                }
                debug_assert!(
                    meta.state != PageState::Write || meta.applied.get(me_pid) < open_seq,
                    "open-interval writes must not be attributed before close"
                );
                page_reply(meta.applied.iter_nonzero().collect(), data.snapshot(), None)
            }
        }
    }

    /// Serve a diff request for diffs we created. A request marked by
    /// a demand fault inside the requester's region body names its rank
    /// as `subscriber`: it enters these pages'
    /// [reader sets](Self::readers) and the reply carries the
    /// acknowledgement. Nothing else
    /// subscribes — the master's sequential phase, a GC fetch or a
    /// checkpoint collection is a one-off. A page collection (a GC
    /// completion) that asks for two or more diffs of one page asks
    /// `whole_if_smaller`: see [`Self::whole_pages`].
    ///
    /// `None` when a want names a diff we never created: nothing is
    /// served, shared or subscribed, and the service thread drops the
    /// request as malformed.
    fn serve_diffs(
        &mut self,
        wants: &[(PageId, Seq)],
        subscriber: Option<Pid>,
        whole_if_smaller: bool,
    ) -> Option<Msg> {
        let found: Vec<Arc<Diff>> = wants
            .iter()
            .map(|&(page, seq)| self.diffs.get(&DiffKey { page, seq }).cloned())
            .collect::<Option<_>>()?;
        let pages = if whole_if_smaller {
            self.whole_pages(wants, &found)
        } else {
            Vec::new()
        };
        let push_after = self.subscribe(wants.iter().map(|&(page, _)| page), subscriber);
        let diffs = wants
            .iter()
            .zip(found)
            .filter(|((page, _), _)| !pages.iter().any(|w| w.page == *page))
            .map(|(&(page, seq), d)| (page, seq, d.as_ref().clone()))
            .collect();
        Some(Msg::DiffRep {
            diffs,
            pages,
            push_after,
        })
    }

    /// The pages of `wants` to serve whole: those whose encoded chain
    /// here outweighs the page, where our copy is valid with no
    /// unapplied notice. Every other page is served as its chain.
    /// `found[i]` is the diff `wants[i]` names.
    fn whole_pages(&mut self, wants: &[(PageId, Seq)], found: &[Arc<Diff>]) -> Vec<WholePage> {
        let mut chains: BTreeMap<PageId, usize> = BTreeMap::new();
        for (&(page, _), d) in wants.iter().zip(found) {
            *chains.entry(page).or_default() += 8 + d.wire_bytes();
        }
        let encoding = self.cfg.collectives.encoding();
        let mut whole = Vec::new();
        for (page, chain) in chains {
            let Some(meta) = self.pages.get_mut(page) else {
                continue;
            };
            let applied: Vec<(Pid, Seq)> = meta.applied.iter_nonzero().collect();
            let valid = meta.state == PageState::Read && meta.unapplied().is_empty();
            let Some(data) = meta.data.as_ref().filter(|_| valid) else {
                continue;
            };
            let words = data.snapshot();
            if chain <= WholePage::wire_bytes(applied.len(), &words, encoding) {
                continue;
            }
            meta.shared = true; // the asker keeps a copy
            whole.push(WholePage {
                page,
                applied,
                words,
            });
        }
        whole
    }

    // ------------------------------------------------------------------
    // Lock management (manager side)
    // ------------------------------------------------------------------

    /// Handle an acquire request at the manager. Returns an immediate
    /// grant action, or queues the waiter.
    pub fn lock_acquire(
        &mut self,
        lock: u32,
        requester: Gpid,
        waiter: LockWaiter,
    ) -> Option<LockGrant> {
        let mgr = self.locks.entry(lock).or_default();
        if mgr.held {
            mgr.queue.push_back((requester, waiter));
            None
        } else {
            mgr.held = true;
            let prev = mgr.last;
            mgr.last = Some(requester);
            Some(match waiter {
                LockWaiter::Remote(r) => LockGrant::Remote(r, prev),
                LockWaiter::Local(s) => LockGrant::Local(s, prev),
            })
        }
    }

    /// Queued waiters on a lock we manage (0 for unknown locks).
    /// Diagnostics and condition waits: "the contending request has
    /// arrived at the manager" is `lock_waiters(l) == 1`.
    pub fn lock_waiters(&self, lock: u32) -> usize {
        self.locks.get(&lock).map_or(0, |m| m.queue.len())
    }

    /// Handle `releaser`'s release at the manager; may grant to the
    /// next waiter. Only the recorded holder releases: a release from
    /// anyone else — stale, duplicated or misdirected — leaves the lock
    /// held and its queue untouched, and is dropped and counted in
    /// [`DsmStats::stale_dropped`].
    pub fn lock_release(&mut self, lock: u32, releaser: Gpid) -> Option<LockGrant> {
        let mgr = self.locks.entry(lock).or_default();
        if !mgr.held || mgr.last != Some(releaser) {
            DsmStats::bump(&self.stats.stale_dropped);
            return None;
        }
        mgr.held = false;
        if let Some((requester, waiter)) = mgr.queue.pop_front() {
            mgr.held = true;
            let prev = mgr.last;
            mgr.last = Some(requester);
            Some(match waiter {
                LockWaiter::Remote(r) => LockGrant::Remote(r, prev),
                LockWaiter::Local(s) => LockGrant::Local(s, prev),
            })
        } else {
            None
        }
    }

    // ------------------------------------------------------------------
    // Garbage collection
    // ------------------------------------------------------------------

    /// Report per-page applied clocks for every page we hold (GC step 1).
    pub fn gc_report(&self) -> Vec<PageApplied> {
        self.pages
            .iter()
            .filter(|(_, m)| m.data.is_some())
            .map(|(page, m)| PageApplied {
                page,
                applied: m.applied.iter_nonzero().collect(),
            })
            .collect()
    }

    /// Install GC fetch instructions: post the missing write notices so
    /// the ordinary fault path can complete the page.
    pub fn gc_prepare_fetch(&mut self, wants: &[(PageId, Vec<Wn>)]) {
        for (page, wns) in wants {
            self.ensure_pages(*page as usize + 1);
            let meta = &mut self.pages[*page];
            for wn in wns {
                meta.push_wn(*wn);
            }
            if !meta.unapplied().is_empty() && meta.state != PageState::Write {
                meta.state = PageState::Invalid;
            }
        }
    }

    /// Commit a GC / adaptation: drop incomplete copies, wipe all
    /// consistency metadata, install the new epoch, team and directory.
    pub fn gc_commit(
        &mut self,
        new_epoch: Epoch,
        team: Team,
        my_pid: Pid,
        dir: &[Gpid],
        drop_pages: &[PageId],
    ) {
        assert_eq!(team.epoch, new_epoch, "team/epoch mismatch in commit");
        self.ensure_pages(dir.len());
        for &p in drop_pages {
            self.pages[p].data = None;
        }
        self.pages.drain_dirty();
        let nprocs = team.members.len();
        for (i, meta) in self.pages.iter_mut() {
            meta.reset(nprocs, dir.get(i as usize).copied());
        }
        self.diffs.clear();
        self.consistency_bytes = 0;
        self.records.clear();
        self.unsent.clear();
        self.locks.clear();
        self.seat(team, my_pid, dir);
        // Everything the push plane keys by pid or seq is per-epoch
        // state the commit just wiped; what the store still holds was
        // pushed for nothing.
        let unapplied_pushes = self.early.values().flatten().filter(|e| e.pushed).count();
        DsmStats::add(&self.stats.push_wasted, unapplied_pushes as u64);
        self.readers.clear();
        self.push = PushGate::default();
        self.early.clear();
        self.push_after.clear();
        DsmStats::bump(&self.stats.gcs);
    }

    /// Seat us at rank `my_pid` of `team` with a fresh clock, under
    /// the page directory `dir` that installs it: what founding a
    /// team, joining one and a commit share. `dir` covers every page
    /// allocated so far, so the pages past it are this epoch's
    /// ([`Self::made_here`]).
    fn seat(&mut self, team: Team, my_pid: Pid, dir: &[Gpid]) {
        self.vc = Vc::new(team.nprocs());
        self.team = team;
        self.my_pid = my_pid;
        self.fresh_from = dir.len() as PageId;
    }

    /// At the master: found `team`, epoch 0, with us at rank 0, under
    /// the page directory `dir` the `JoinInit` hands the workers.
    pub fn found_team(&mut self, team: Team, dir: &[Gpid]) {
        self.seat(team, 0, dir);
    }

    /// At a joiner: take the seat at `my_pid` of the `team` a
    /// `JoinInit` installs, with its page directory `dir` and the
    /// master's full `registry` (`alloc_slots` allocated). Every page
    /// is taken as shared: copies of it may be out there.
    pub fn join_team(
        &mut self,
        team: Team,
        my_pid: Pid,
        dir: &[Gpid],
        registry: &[RegEntry],
        alloc_slots: Addr,
    ) {
        self.registry = Registry::new();
        self.merge_registry(registry, alloc_slots);
        self.ensure_pages(dir.len());
        self.seat(team, my_pid, dir);
        for ((_, meta), owner) in self.pages.iter_mut().zip(dir) {
            meta.owner = *owner;
            meta.shared = true;
        }
    }

    /// Merge a `Fork`'s registry delta, and cover the `alloc_slots` the
    /// master has allocated.
    pub fn merge_registry(&mut self, delta: &[RegEntry], alloc_slots: Addr) {
        self.registry.merge(delta);
        let spp = self.cfg.slots_per_page();
        self.ensure_pages((alloc_slots as usize).div_ceil(spp));
    }

    /// Does any rank's stored diff data exceed the GC threshold?
    /// TreadMarks collects when any processor runs low. Ours is counted
    /// exactly; every other rank's is bounded by the write notices we
    /// hold, which at the master, after a join, are all of this epoch's:
    /// each page a record names is one diff stored at its writer, at
    /// most a page long (a sparse diff counts whole).
    pub fn gc_due(&self) -> bool {
        let budget = self.cfg.gc_diff_threshold;
        let mut notice_bytes = vec![0; self.team.nprocs()];
        for rec in self.records.all().iter().filter(|r| r.pid != self.my_pid) {
            notice_bytes[rec.pid as usize] += rec.pages.len() * self.cfg.page_size;
        }
        self.consistency_bytes > budget || notice_bytes.iter().any(|&b| b > budget)
    }

    // ------------------------------------------------------------------
    // Checkpoint support
    // ------------------------------------------------------------------

    /// Snapshot every locally-valid page (master-side checkpoint after
    /// it collected all pages).
    pub fn export_pages(&self) -> Vec<(PageId, Vec<u64>)> {
        self.pages
            .iter()
            .filter_map(|(page, m)| Some((page, m.data.as_ref()?.snapshot())))
            .collect()
    }

    /// Restore a checkpoint image into a fresh master (recovery): its
    /// `registry`, its `alloc_slots` and its `pages`, every one ours.
    pub fn import_image(
        &mut self,
        registry: &[RegEntry],
        alloc_slots: Addr,
        pages: &[(PageId, Vec<u64>)],
    ) {
        self.registry = Registry::new();
        self.merge_registry(registry, alloc_slots);
        for (p, words) in pages {
            self.ensure_pages(*p as usize + 1);
            let meta = &mut self.pages[*p];
            meta.data = Some(Arc::new(PageBuf::from_words(words)));
            meta.state = PageState::Read;
            meta.applied = Vc::new(self.team.members.len());
            meta.owner = self.gpid;
            meta.shared = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Msg;
    use nowmp_util::wire::Wire;

    fn core() -> ProcCore {
        let cfg = DsmConfig {
            page_size: 64,
            ..DsmConfig::test_small()
        }; // 8 slots/page
        ProcCore::new(cfg, Gpid(1), DsmStats::new_shared(), Gpid(1))
    }

    /// What `requests` ask of whom, read back off the messages.
    fn asked(requests: &[Request]) -> FetchPlan {
        let mut plan = FetchPlan::default();
        for (dst, msg, _) in requests {
            match msg {
                Msg::PageReq { page, .. } => plan.fulls.push((*page, *dst)),
                Msg::DiffReq { wants, .. } => plan.diffs.push((*dst, wants.clone())),
                other => panic!("not a fetch request: {other:?}"),
            }
        }
        plan
    }

    /// A fault's requests read back ([`asked`]), or the plan itself when
    /// it needs none.
    fn fetch_plan(plan: AccessPlan) -> Result<FetchPlan, AccessPlan> {
        match plan {
            AccessPlan::Missing(requests) | AccessPlan::Stale(requests) => Ok(asked(&requests)),
            ready => Err(ready),
        }
    }

    fn two_proc_team(c: &mut ProcCore, my_pid: Pid) {
        c.team = Team::new(0, vec![Gpid(1), Gpid(2)]);
        c.my_pid = my_pid;
        c.vc = Vc::new(2);
    }

    #[test]
    fn owner_materializes_zero_page() {
        let mut c = core();
        match c.plan_access(0, false, false) {
            AccessPlan::Ready { buf, writable } => {
                assert!(!writable);
                assert_eq!(buf.load(0), 0);
            }
            other => panic!("expected Ready, got {other:?}"),
        }
        assert_eq!(c.pages[0].state, PageState::Read);
        assert!(!c.pages[0].shared, "untouched page stays exclusive");
    }

    #[test]
    fn exclusive_write_skips_twin() {
        let mut c = core();
        let AccessPlan::Ready { buf, writable } = c.plan_access(0, true, false) else {
            panic!("expected Ready");
        };
        assert!(writable);
        buf.store(0, 7);
        assert!(c.pages[0].twin.is_none(), "exclusive pages never twin");
        assert!(c.pages[0].dirty);
        // Closing the interval emits no record for exclusive pages.
        assert!(c.close_interval().is_none());
    }

    #[test]
    fn shared_write_twins_and_diffs() {
        let mut c = core();
        two_proc_team(&mut c, 0);
        // Materialize, then pretend proc 2 fetched it.
        let _ = c.plan_access(0, false, false);
        let rep = c.serve_page(0, None);
        assert!(matches!(rep, Msg::PageRep { redirect: None, .. }));
        assert!(c.pages[0].shared);
        // Now a write must twin.
        let AccessPlan::Ready { buf, .. } = c.plan_access(0, true, false) else {
            panic!()
        };
        buf.store(3, 99);
        assert!(c.pages[0].twin.is_some());
        let rec = c
            .close_interval()
            .expect("dirty shared page yields a record");
        assert_eq!(rec.pid, 0);
        assert_eq!(rec.seq, 1);
        assert_eq!(rec.pages, vec![0]);
        assert_eq!(c.vc.get(0), 1);
        // The diff exists and carries the one changed word.
        let d = c.diffs.get(&DiffKey { page: 0, seq: 1 }).unwrap();
        assert_eq!(d.words(), 1);
    }

    #[test]
    fn serve_exclusive_dirty_page_installs_twin() {
        let mut c = core();
        let AccessPlan::Ready { buf, .. } = c.plan_access(0, true, false) else {
            panic!()
        };
        buf.store(1, 5);
        // Service thread serves the page mid-interval.
        let rep = c.serve_page(0, None);
        let Msg::PageRep {
            words,
            applied,
            redirect,
            push_after,
            ..
        } = rep
        else {
            panic!()
        };
        assert!(redirect.is_none());
        assert_eq!(push_after, None, "unmarked: no acknowledgement");
        assert_eq!(words[1], 5);
        assert!(applied.is_empty(), "no closed intervals yet");
        assert!(c.pages[0].twin.is_some(), "snapshot became the twin");
        assert!(c.pages[0].shared);
        // Post-snapshot writes land in the eventual diff.
        buf.store(2, 6);
        let rec = c.close_interval().unwrap();
        assert_eq!(rec.pages, vec![0]);
        let d = c.diffs.get(&DiffKey { page: 0, seq: 1 }).unwrap();
        assert_eq!(d.words(), 1, "only the post-snapshot write diffs");
    }

    #[test]
    fn empty_diff_suppressed() {
        let mut c = core();
        two_proc_team(&mut c, 0);
        let _ = c.plan_access(0, false, false);
        let _ = c.serve_page(0, None); // shared now
        let AccessPlan::Ready { .. } = c.plan_access(0, true, false) else {
            panic!()
        };
        // No write actually performed.
        assert!(
            c.close_interval().is_none(),
            "no record for an unchanged page"
        );
        assert!(c.diffs.is_empty());
    }

    #[test]
    fn apply_records_invalidates() {
        let mut c = core();
        two_proc_team(&mut c, 0);
        let _ = c.plan_access(0, false, false);
        c.pages[0].shared = true;
        let mut vc = Vc::new(2);
        vc.set(1, 1);
        let rec = Record {
            pid: 1,
            seq: 1,
            vc,
            pages: vec![0],
        };
        c.apply_records(&[rec]);
        assert_eq!(c.pages[0].state, PageState::Invalid);
        assert!(c.pages[0].data.is_some(), "stale copy kept for diffing");
        assert_eq!(c.vc.get(1), 1);
        // Planning access now asks for diffs from gpid 2.
        match fetch_plan(c.plan_access(0, false, false)) {
            Ok(plan) => {
                assert!(plan.fulls.is_empty());
                assert_eq!(plan.diffs, vec![(Gpid(2), vec![(0, 1)])]);
            }
            other => panic!("expected a diff fetch, got {other:?}"),
        }
    }

    #[test]
    fn diff_creators_are_asked_in_rank_order_after_the_asker() {
        // Three concurrent writers of page 0 (ranks 0, 1, 3) and us at
        // rank 2: asked in rank order from rank 3 on, wrapping — not in
        // gpid order, and not in a hash map's (fresh per core, so
        // repeat). The collection's planner asks the same creators for
        // the same wants, in the order it first saw them.
        for _ in 0..8 {
            let mut c = core();
            c.team = Team::new(0, vec![Gpid(7), Gpid(5), Gpid(1), Gpid(3)]);
            c.my_pid = 2;
            c.vc = Vc::new(4);
            let _ = c.plan_access(0, false, false);
            c.pages[0].shared = true;
            for pid in [0, 1, 3] {
                let mut vc = Vc::new(4);
                vc.set(pid, 1);
                c.apply_records(&[Record {
                    pid,
                    seq: 1,
                    vc,
                    pages: vec![0],
                }]);
            }
            let Ok(plan) = fetch_plan(c.plan_access(0, false, false)) else {
                panic!("expected a diff fetch");
            };
            let expect: Vec<_> = [3, 7, 5].map(|g| (Gpid(g), vec![(0, 1)])).into();
            assert_eq!(plan.diffs, expect);
            let mut collection = asked(&c.plan_pages(&[0], false)).diffs;
            assert_eq!(collection, [7, 5, 3].map(|g| (Gpid(g), vec![(0, 1)])));
            collection.sort_unstable();
            let mut fault = plan.diffs;
            fault.sort_unstable();
            assert_eq!(collection, fault, "one planner");
        }
    }

    #[test]
    fn apply_diffs_repairs_stale_copy() {
        let mut c = core();
        two_proc_team(&mut c, 0);
        let _ = c.plan_access(0, false, false);
        c.pages[0].shared = true;
        let mut vc = Vc::new(2);
        vc.set(1, 1);
        c.apply_records(&[Record {
            pid: 1,
            seq: 1,
            vc,
            pages: vec![0],
        }]);
        let diff = Diff::create_from_words(&[0; 8], &[0, 42, 0, 0, 0, 0, 0, 0], 0);
        c.deposit(1, vec![(0, 1, diff)], false);
        c.apply_diffs(0);
        assert_eq!(c.pages[0].state, PageState::Read);
        assert_eq!(c.pages[0].data.as_ref().unwrap().load(1), 42);
        assert_eq!(c.pages[0].applied.get(1), 1);
        assert!(c.pages[0].pending.is_empty());
    }

    #[test]
    fn install_page_with_remaining_diffs_stays_invalid() {
        let mut c = core();
        two_proc_team(&mut c, 0);
        // Learn of two writes by proc 1 before having any copy.
        let mut vc1 = Vc::new(2);
        vc1.set(1, 1);
        let mut vc2 = Vc::new(2);
        vc2.set(1, 2);
        c.apply_records(&[
            Record {
                pid: 1,
                seq: 1,
                vc: vc1,
                pages: vec![3],
            },
            Record {
                pid: 1,
                seq: 2,
                vc: vc2,
                pages: vec![3],
            },
        ]);
        // Fetch a copy that only includes seq 1.
        c.install_page(3, &[(1, 1)], vec![0; 8], Gpid(2));
        assert_eq!(c.pages[3].state, PageState::Invalid, "seq 2 still missing");
        match fetch_plan(c.plan_access(3, false, false)) {
            Ok(plan) => {
                assert_eq!(plan.diffs[0].1, vec![(3, 2)]);
            }
            other => panic!("expected a diff fetch, got {other:?}"),
        }
    }

    #[test]
    fn full_fetch_targets_last_writer() {
        let mut c = core();
        two_proc_team(&mut c, 1); // we are pid 1; gpid(pid 0) == Gpid(1)
        c.my_pid = 1;
        c.gpid = Gpid(2);
        c.fresh_from = 6; // page 5 was allocated before the last commit
        let mut vc = Vc::new(2);
        vc.set(0, 3);
        c.apply_records(&[Record {
            pid: 0,
            seq: 3,
            vc,
            pages: vec![5],
        }]);
        match fetch_plan(c.plan_access(5, false, false)) {
            Ok(plan) => {
                assert_eq!(plan.fulls, vec![(5, Gpid(1))]);
                assert!(plan.diffs.is_empty());
            }
            other => panic!("expected a full fetch, got {other:?}"),
        }
        // One planner: a collection asks the same holder.
        assert_eq!(asked(&c.plan_pages(&[5], false)).fulls, vec![(5, Gpid(1))]);
    }

    #[test]
    fn serve_page_without_copy_redirects() {
        let mut c = core();
        c.gpid = Gpid(2);
        c.default_owner = Gpid(1);
        c.ensure_pages(1);
        let Msg::PageRep {
            redirect, words, ..
        } = c.serve_page(0, None)
        else {
            panic!()
        };
        assert_eq!(redirect, Some(Gpid(1)));
        assert!(words.is_empty());
    }

    #[test]
    fn lock_manager_grant_queue_release() {
        let mut c = core();
        let (tx1, rx1) = nowmp_util::mailbox(&nowmp_util::Clock::real());
        let g = c.lock_acquire(7, Gpid(10), LockWaiter::Local(tx1));
        assert!(
            matches!(g, Some(LockGrant::Local(_, None))),
            "first grant, no prev"
        );
        if let Some(LockGrant::Local(s, prev)) = g {
            s.send(prev).unwrap();
        }
        assert_eq!(rx1.recv().unwrap(), None);
        // Second acquire queues.
        let (tx2, rx2) = nowmp_util::mailbox(&nowmp_util::Clock::real());
        assert!(c
            .lock_acquire(7, Gpid(11), LockWaiter::Local(tx2))
            .is_none());
        // Release grants to the waiter with prev = first holder.
        match c.lock_release(7, Gpid(10)) {
            Some(LockGrant::Local(s, prev)) => {
                assert_eq!(prev, Some(Gpid(10)));
                s.send(prev).unwrap();
            }
            other => panic!("expected local grant, got {:?}", other.is_some()),
        }
        assert_eq!(rx2.recv().unwrap(), Some(Gpid(10)));
        assert!(c.lock_release(7, Gpid(11)).is_none(), "empty queue");
        assert_eq!(c.stats.snapshot().stale_dropped, 0);
    }

    #[test]
    fn a_release_from_a_non_holder_leaves_the_lock_held() {
        let mut c = core();
        let (tx1, _rx1) = nowmp_util::mailbox(&nowmp_util::Clock::real());
        assert!(c
            .lock_acquire(7, Gpid(10), LockWaiter::Local(tx1))
            .is_some());
        let (tx2, rx2) = nowmp_util::mailbox(&nowmp_util::Clock::real());
        assert!(c
            .lock_acquire(7, Gpid(11), LockWaiter::Local(tx2))
            .is_none());
        // The waiter itself, a stranger, and a lock nobody took.
        assert!(c.lock_release(7, Gpid(11)).is_none());
        assert!(c.lock_release(7, Gpid(12)).is_none());
        assert!(c.lock_release(8, Gpid(10)).is_none());
        assert_eq!(c.stats.snapshot().stale_dropped, 3);
        assert_eq!(c.lock_waiters(7), 1, "the queue is untouched");
        // The holder's release still hands the lock on.
        match c.lock_release(7, Gpid(10)) {
            Some(LockGrant::Local(s, prev)) => s.send(prev).unwrap(),
            other => panic!("expected local grant, got {:?}", other.is_some()),
        }
        assert_eq!(rx2.recv().unwrap(), Some(Gpid(10)));
        assert_eq!(c.lock_waiters(7), 0);
    }

    #[test]
    fn gc_commit_resets_everything() {
        let mut c = core();
        two_proc_team(&mut c, 0);
        let _ = c.plan_access(0, false, false);
        let _ = c.serve_page(0, None);
        let AccessPlan::Ready { buf, .. } = c.plan_access(0, true, false) else {
            panic!()
        };
        buf.store(0, 1);
        c.close_interval().unwrap();
        assert!(!c.records.is_empty());
        assert!(!c.diffs.is_empty());

        let new_team = Team::new(1, vec![Gpid(1), Gpid(2), Gpid(3)]);
        let dir = vec![Gpid(1)];
        c.gc_commit(1, new_team.clone(), 0, &dir, &[]);
        assert_eq!(c.epoch(), 1);
        assert_eq!(c.team, new_team);
        assert!(c.records.is_empty());
        assert!(c.diffs.is_empty());
        assert_eq!(c.vc.len(), 3);
        assert_eq!(c.pages[0].state, PageState::Read);
        assert!(c.pages[0].twin.is_none());
        assert_eq!(c.pages[0].applied.sum(), 0);
    }

    #[test]
    fn gc_commit_drops_incomplete() {
        let mut c = core();
        two_proc_team(&mut c, 0);
        let _ = c.plan_access(0, false, false);
        let new_team = Team::new(1, vec![Gpid(1), Gpid(2)]);
        c.gc_commit(1, new_team, 0, &[Gpid(2)], &[0]);
        assert!(c.pages[0].data.is_none());
        assert_eq!(c.pages[0].state, PageState::Invalid);
        assert_eq!(c.pages[0].owner, Gpid(2));
    }

    #[test]
    fn gc_report_lists_held_pages() {
        let mut c = core();
        two_proc_team(&mut c, 0);
        let _ = c.plan_access(2, false, false);
        let report = c.gc_report();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].page, 2);
    }

    #[test]
    fn export_import_roundtrip() {
        let mut c = core();
        let AccessPlan::Ready { buf, .. } = c.plan_access(1, true, false) else {
            panic!()
        };
        buf.store(0, 77);
        let pages = c.export_pages();
        let mut c2 = core();
        c2.import_image(&[], 0, &pages);
        let AccessPlan::Ready { buf, .. } = c2.plan_access(1, false, false) else {
            panic!()
        };
        assert_eq!(buf.load(0), 77);
    }

    // --- the push plane -------------------------------------------------

    /// Rank `me` of an `n`-process team (gpids `1..=n`) that owns every
    /// page it touches.
    fn team_core(n: usize, me: Pid) -> ProcCore {
        let mut c = core();
        c.team = Team::new(0, (1..=n as u32).map(Gpid).collect());
        c.gpid = Gpid(me as u32 + 1);
        c.default_owner = c.gpid;
        c.my_pid = me;
        c.vc = Vc::new(n);
        c
    }

    /// Store `v` into slot 0 of `page` (made shared first, so the write
    /// twins) in the open interval.
    fn write_shared(c: &mut ProcCore, page: PageId, v: u64) {
        let _ = c.plan_access(page, false, false);
        let _ = c.serve_page(page, None);
        let AccessPlan::Ready { buf, .. } = c.plan_access(page, true, false) else {
            panic!("owned page must be writable")
        };
        buf.store(0, v);
    }

    /// Post the notice "rank `pid` wrote `page` in its interval `seq`".
    fn notice(c: &mut ProcCore, pid: Pid, seq: Seq, page: PageId) {
        let mut vc = Vc::new(c.team.nprocs());
        vc.set(pid, seq);
        c.apply_records(&[Record {
            pid,
            seq,
            vc,
            pages: vec![page],
        }]);
    }

    fn word(slot: u32, v: u64) -> Diff {
        Diff::of_run(slot, &[v])
    }

    fn stored(c: &ProcCore, page: PageId) -> Vec<(Pid, Seq)> {
        let mut v: Vec<(Pid, Seq)> = c
            .early
            .get(&page)
            .map(|v| v.iter().map(|e| (e.pid, e.seq)).collect())
            .unwrap_or_default();
        v.sort_unstable();
        v
    }

    #[test]
    fn only_a_marked_diff_req_subscribes() {
        let mut c = team_core(3, 0);
        write_shared(&mut c, 0, 7);
        c.close_interval().unwrap();
        // A sequential-phase fault, a GC fetch, a checkpoint
        // collection: no mark.
        let _ = c.serve_diffs(&[(0, 1)], None, false);
        assert!(c.readers.is_empty(), "an unmarked request is a one-off");
        let _ = c.serve_diffs(&[(0, 1)], Some(2), false);
        let _ = c.serve_diffs(&[(0, 1)], Some(2), false);
        assert_eq!(c.readers[&0], vec![2], "marked: subscribed, once");
    }

    /// The acknowledgement a reply carries.
    fn ack(rep: &Msg) -> Option<Seq> {
        match rep {
            Msg::PageRep { push_after, .. } | Msg::DiffRep { push_after, .. } => *push_after,
            other => panic!("not a page or diff reply: {other:?}"),
        }
    }

    #[test]
    fn every_subscription_is_acknowledged_with_the_last_closed_seq() {
        let mut c = team_core(3, 0);
        write_shared(&mut c, 0, 7);
        c.close_interval().unwrap();
        write_shared(&mut c, 1, 8);
        assert_eq!(ack(&c.serve_page(0, None)), None);
        assert_eq!(ack(&c.serve_diffs(&[(0, 1)], None, false).unwrap()), None);
        // Interval 2 is open: the last closed seq is 1, so every diff
        // of the page from interval 2 on is pushed.
        assert_eq!(ack(&c.serve_page(1, Some(1))), Some(1));
        assert_eq!(
            ack(&c.serve_diffs(&[(0, 1)], Some(2), false).unwrap()),
            Some(1)
        );
        assert_eq!((&c.readers[&0], &c.readers[&1]), (&vec![2], &vec![1]));
        c.close_interval().unwrap();
        assert_eq!(ack(&c.serve_page(1, Some(2))), Some(2));
        assert_eq!(c.readers[&1], vec![1, 2]);
        // A redirect serves no page and subscribes nobody.
        c.ensure_pages(3);
        c.pages[2].owner = Gpid(3);
        let rep = c.serve_page(2, Some(1));
        assert!(matches!(
            rep,
            Msg::PageRep {
                redirect: Some(_),
                push_after: None,
                ..
            }
        ));
        assert!(!c.readers.contains_key(&2));
    }

    #[test]
    fn a_request_from_another_epoch_subscribes_nobody() {
        let mut c = team_core(3, 0);
        write_shared(&mut c, 0, 7);
        c.close_interval().unwrap();
        assert_eq!(c.subscriber(true, 0, Gpid(2)), Some(1));
        assert_eq!(c.subscriber(false, 0, Gpid(2)), None, "unmarked");
        assert_eq!(c.subscriber(true, 0, Gpid(9)), None, "not a member");
        // Rank 1 of epoch 1 may be another process than our rank 1.
        let stale = c.subscriber(true, 1, Gpid(2));
        assert_eq!(stale, None);
        assert_eq!(ack(&c.serve_page(0, stale)), None);
        assert_eq!(ack(&c.serve_diffs(&[(0, 1)], stale, false).unwrap()), None);
        assert!(c.readers.is_empty());
    }

    /// Store `v` into every word of `page` (shared, so the write
    /// twins) and close the interval: one full-page diff.
    fn write_whole_page(c: &mut ProcCore, page: PageId, v: u64) {
        write_shared(c, page, v);
        let AccessPlan::Ready { buf, .. } = c.plan_access(page, true, false) else {
            panic!("owned page must be writable")
        };
        (0..c.cfg.slots_per_page()).for_each(|i| buf.store(i, v));
        c.close_interval().unwrap();
    }

    fn served(rep: Option<Msg>) -> (Vec<(PageId, Seq)>, Vec<WholePage>) {
        let Some(Msg::DiffRep { diffs, pages, .. }) = rep else {
            panic!("serve_diffs answers a DiffRep")
        };
        (diffs.iter().map(|d| (d.0, d.1)).collect(), pages)
    }

    #[test]
    fn a_chain_larger_than_its_page_is_served_whole_when_asked() {
        let mut c = team_core(2, 0);
        for v in 1..=3 {
            write_whole_page(&mut c, 0, v);
        }
        let chain = [(0, 1), (0, 2), (0, 3)];
        let (diffs, pages) = served(c.serve_diffs(&chain, None, true));
        assert!(diffs.is_empty(), "the page replaces its chain");
        assert_eq!(pages.len(), 1);
        assert_eq!(pages[0].page, 0);
        assert_eq!(pages[0].applied, vec![(0, 3)]);
        assert!(pages[0].words.iter().all(|&w| w == 3));
        // Unmarked, the same request moves the chain.
        let (diffs, pages) = served(c.serve_diffs(&chain, None, false));
        assert_eq!(diffs, chain.to_vec());
        assert!(pages.is_empty());
    }

    #[test]
    fn a_chain_smaller_than_its_page_is_served_as_the_chain() {
        // A dense page, then two one-word diffs of it.
        let mut c = team_core(2, 0);
        write_whole_page(&mut c, 0, 1);
        for v in 2..=3 {
            write_shared(&mut c, 0, v);
            c.close_interval().unwrap();
        }
        let (diffs, pages) = served(c.serve_diffs(&[(0, 2), (0, 3)], None, true));
        assert_eq!(diffs, vec![(0, 2), (0, 3)], "two one-word diffs");
        assert!(pages.is_empty());
    }

    #[test]
    fn a_page_weighs_its_zero_runs() {
        // One word of the page was ever written: in its zero-run form
        // it weighs less than a chain of two diffs.
        let mut c = team_core(2, 0);
        for v in 1..=2 {
            write_shared(&mut c, 0, v);
            c.close_interval().unwrap();
        }
        let (diffs, pages) = served(c.serve_diffs(&[(0, 1), (0, 2)], None, true));
        assert!(diffs.is_empty(), "the page replaces its chain");
        assert_eq!(pages.len(), 1);
        assert_eq!(pages[0].words[0], 2);
    }

    #[test]
    fn a_copy_with_an_unapplied_notice_is_never_served_whole() {
        let mut c = team_core(2, 0);
        for v in 1..=3 {
            write_whole_page(&mut c, 0, v);
        }
        notice(&mut c, 1, 1, 0);
        let (diffs, pages) = served(c.serve_diffs(&[(0, 1), (0, 2), (0, 3)], None, true));
        assert_eq!(diffs.len(), 3, "falls back to the chain");
        assert!(pages.is_empty());
    }

    #[test]
    fn a_whole_page_installs_only_over_a_copy_it_covers() {
        let whole = |applied: Vec<(Pid, Seq)>| WholePage {
            page: 0,
            applied,
            words: vec![9; core().cfg.slots_per_page()],
        };
        // Our stale copy applied rank 1's seq 1 and misses its 2..3.
        let mut c = team_core(2, 0);
        let _ = c.plan_access(0, false, false);
        c.pages[0].applied.set(1, 1);
        for seq in 2..=3 {
            notice(&mut c, 1, seq, 0);
        }
        c.install_whole(whole(vec![(1, 3)]), Gpid(2));
        assert_eq!(c.pages[0].state, PageState::Read);
        assert_eq!(c.stats.snapshot().gc_whole_pages, 1);
        // A served copy that lacks what ours applied is dropped: the
        // fault then fetches the chain.
        let mut c = team_core(2, 0);
        let _ = c.plan_access(0, false, false);
        c.pages[0].applied.set(1, 2);
        notice(&mut c, 1, 3, 0);
        c.install_whole(whole(vec![(0, 4)]), Gpid(2));
        assert_eq!(c.pages[0].state, PageState::Invalid);
        assert_eq!(c.stats.snapshot().gc_whole_pages, 0);
    }

    #[test]
    fn close_queues_one_rotated_message_per_reader() {
        // Rank 1 of 4. Page 0 is read by everyone else, page 1 by rank
        // 3 only, page 2 by nobody.
        let mut c = team_core(4, 1);
        c.readers.insert(0, vec![0, 3, 2]);
        c.readers.insert(1, vec![3]);
        for page in 0..3 {
            write_shared(&mut c, page, 10 + page as u64);
        }
        let rec = c.close_interval().unwrap();
        assert_eq!(rec.pages, vec![0, 1, 2]);
        // (reader - me) mod n: ranks 2, 3, 0 — gpids 3, 4, 1.
        let outbox = c.push.queued();
        let dsts: Vec<Gpid> = outbox.iter().map(|m| m.0).collect();
        assert_eq!(dsts, vec![Gpid(3), Gpid(4), Gpid(1)]);
        let carried: Vec<u64> = outbox.iter().map(|m| m.2).collect();
        assert_eq!(
            carried,
            vec![1, 2, 1],
            "all of a reader's pages in one message"
        );
        assert_eq!(outbox[0].1, outbox[2].1, "same pages, same bytes");
        let Msg::DiffPush { epoch, diffs } = Msg::from_wire(&outbox[1].1).unwrap() else {
            panic!("outbox holds DiffPush messages")
        };
        assert_eq!(epoch, 0);
        let keys: Vec<(PageId, Seq)> = diffs.iter().map(|d| (d.0, d.1)).collect();
        assert_eq!(keys, vec![(0, 1), (1, 1)], "page 2 has no reader");
        assert_eq!(*diffs[1].2, word(0, 11));

        // Invariant W: the next close pushes the same pages to the same
        // readers without anyone asking again.
        c.push = PushGate::default();
        let AccessPlan::Ready { buf, .. } = c.plan_access(0, true, false) else {
            panic!()
        };
        buf.store(1, 99);
        c.close_interval().unwrap();
        assert_eq!(c.push.queued().len(), 3);

        // A close that writes only unread pages queues nothing.
        c.push = PushGate::default();
        let AccessPlan::Ready { buf, .. } = c.plan_access(2, true, false) else {
            panic!()
        };
        buf.store(1, 5);
        c.close_interval().unwrap();
        assert!(c.push.queued().is_empty());
    }

    #[test]
    fn a_close_holds_only_the_pushes_it_queues() {
        let mut c = team_core(2, 0);
        c.readers.insert(0, vec![1]);
        let close = |c: &mut ProcCore, v| {
            let AccessPlan::Ready { buf, .. } = c.plan_access(0, true, false) else {
                panic!()
            };
            buf.store(0, v);
            c.close_interval().unwrap();
        };
        write_shared(&mut c, 0, 1);
        c.close_interval().unwrap();
        assert!(c.push.next_push().is_none(), "held until released");
        assert!(c.push.release_pushes());
        // A second close before the first push left: that push's notice
        // may be out, so only the new one is held.
        close(&mut c, 2);
        let seq_of = |(_, payload, _): (Gpid, bytes::Bytes, u64)| match Msg::from_wire(&payload) {
            Ok(Msg::DiffPush { diffs, .. }) => diffs[0].1,
            other => panic!("expected DiffPush, got {other:?}"),
        };
        assert_eq!(c.push.next_push().map(seq_of), Some(1));
        assert!(c.push.next_push().is_none());
        assert!(c.push.release_pushes());
        assert_eq!(c.push.next_push().map(seq_of), Some(2));
        // A close that queues nothing holds nothing.
        c.readers.clear();
        close(&mut c, 3);
        assert_eq!(c.push.held(), 0);
    }

    #[test]
    fn an_aggregator_pushes_while_its_subtree_is_out() {
        let closed = |readers: Vec<Pid>| {
            let mut c = team_core(4, 1);
            c.readers.insert(0, readers);
            write_shared(&mut c, 0, 1);
            c.close_interval().unwrap();
            c
        };
        let mut c = closed(vec![2, 3]);
        assert_eq!(c.push.held(), 2, "the close holds its pushes");
        assert!(c.push.await_subtree(2), "two children out: the pushes go");
        c.push.subtree_arrived(0, 0).unwrap();
        assert!(c.push.next_push().is_some());
        assert_eq!(c.push.subtree_arrived(1, 0), Err(1), "another epoch's");
        assert_eq!(c.push.held(), 0);
        // The aggregate that completes the subtree holds what is left
        // until ours is on the link.
        c.push.subtree_arrived(0, 0).unwrap();
        assert!(c.push.next_push().is_none());
        c.push.subtree_collected(2);
        assert!(c.push.release_pushes());
        assert!(c.push.next_push().is_some());
        assert_eq!(c.push.subtree_in(), 0);

        // A leaf keeps them held until its arrival is out.
        let mut c = closed(vec![2]);
        assert!(!c.push.await_subtree(0));
        assert!(c.push.next_push().is_none());
        // A subtree complete before we collect: nothing will arrive to
        // hold them, and they go first.
        let mut c = closed(vec![2]);
        c.push.subtree_arrived(0, 0).unwrap();
        assert!(c.push.await_subtree(1));
        assert!(c.push.next_push().is_some());
    }

    #[test]
    fn deposit_skips_what_is_covered_or_unasked() {
        let mut c = team_core(2, 0);
        let _ = c.plan_access(0, false, false);
        c.pages[0].applied.set(1, 3);
        let push = |seqs: &[Seq]| -> Vec<(PageId, Seq, Arc<Diff>)> {
            seqs.iter()
                .map(|&s| (0, s, Arc::new(word(0, s as u64))))
                .collect()
        };
        // Seqs the copy already reflects are dropped.
        c.deposit_push(0, Gpid(2), push(&[2, 3]));
        assert!(stored(&c, 0).is_empty());
        assert_eq!(c.stats.snapshot().push_wasted, 2);
        // A new one is kept and counted against the GC budget; the
        // same one again is not.
        c.deposit_push(0, Gpid(2), push(&[4]));
        assert_eq!(stored(&c, 0), vec![(1, 4)]);
        let bytes = c.consistency_bytes;
        assert_eq!(bytes, word(0, 4).wire_bytes());
        c.deposit_push(0, Gpid(2), push(&[4]));
        assert_eq!(stored(&c, 0), vec![(1, 4)]);
        assert_eq!(c.consistency_bytes, bytes);
        assert_eq!(c.stats.snapshot().push_wasted, 3);
        // A fetched diff is kept only for a notice
        // we hold. Neither it nor a push says what will be pushed:
        // only an acknowledgement does.
        c.deposit(1, vec![(1, 9, word(0, 9))], false);
        assert!(stored(&c, 1).is_empty());
        notice(&mut c, 1, 9, 1);
        c.deposit(1, vec![(1, 9, word(0, 9))], false);
        assert_eq!(stored(&c, 1), vec![(1, 9)]);
        assert!(c.push_after.is_empty());
        assert_eq!(
            c.stats.snapshot().push_wasted,
            3,
            "not a push: not in its ledger"
        );
    }

    #[test]
    fn rule_r_expects_only_seqs_above_the_first_pushed_one() {
        let mut c = team_core(2, 0);
        let _ = c.plan_access(0, false, false);
        c.pages[0].shared = true;
        // The writer acknowledged our subscription when its last
        // closed interval was 2, so its first push to us carries its
        // interval 3.
        c.acknowledged(1, [0], 2);
        assert_eq!(
            c.diff_source(0, 1, 2),
            DiffSource::Network,
            "at or below: closed before we subscribed"
        );
        assert_eq!(
            c.diff_source(0, 1, 3),
            DiffSource::Expected,
            "the first push is expected"
        );
        c.deposit_push(0, Gpid(2), vec![(0, 3, Arc::new(word(3, 3)))]);
        assert_eq!(
            c.diff_source(0, 1, 3),
            DiffSource::Stored,
            "arrived: in the store"
        );
        assert_eq!(
            c.diff_source(0, 1, 4),
            DiffSource::Expected,
            "above: on its way (W)"
        );
        assert_eq!(
            c.diff_source(1, 1, 4),
            DiffSource::Network,
            "another page: no acknowledgement"
        );
        assert_eq!(
            c.diff_source(0, 0, 4),
            DiffSource::Network,
            "another writer: no acknowledgement"
        );
        // A later acknowledgement of the same subscription moves
        // nothing: the reader set never shrank.
        c.acknowledged(1, [0], 5);
        assert_eq!(c.push_after[&(0, 1)], 2);

        // The fault path asks the network for exactly the first kind
        // and parks on the third.
        for seq in 2..=4 {
            notice(&mut c, 1, seq, 0);
        }
        match fetch_plan(c.plan_access(0, false, false)) {
            Ok(plan) => {
                assert_eq!(plan.diffs, vec![(Gpid(2), vec![(0, 2)])]);
            }
            other => panic!("expected a diff fetch, got {other:?}"),
        }
        assert_eq!(
            asked(&c.plan_pages(&[0], false)).diffs,
            vec![(Gpid(2), vec![(0, 2)])]
        );
        assert_eq!(c.expected_absent(0), Some((1, 4)));
        c.deposit_push(0, Gpid(2), vec![(0, 4, Arc::new(word(4, 4)))]);
        assert_eq!(c.diff_source(0, 1, 4), DiffSource::Stored);
        assert_eq!(c.expected_absent(0), None);

        // One batch: the fetched diff and the two stored ones.
        c.deposit(1, vec![(0, 2, word(2, 2))], false);
        c.apply_diffs(0);
        let g = &c.pages[0];
        assert_eq!(g.state, PageState::Read);
        let data = g.data.as_ref().unwrap();
        assert_eq!((data.load(2), data.load(3), data.load(4)), (2, 3, 4));
        assert!(c.early.is_empty() && c.consistency_bytes == 0);
        let s = c.stats.snapshot();
        assert_eq!((s.push_hits, s.push_wasted, s.diffs_fetched), (2, 0, 3));

        // With every notice stored or expected nothing is left to ask
        // for.
        notice(&mut c, 1, 5, 0);
        match fetch_plan(c.plan_access(0, false, false)) {
            Ok(plan) => assert!(plan.fulls.is_empty() && plan.diffs.is_empty()),
            other => panic!("expected an empty fetch, got {other:?}"),
        }
        let plan = asked(&c.plan_pages(&[0], false));
        assert!(plan.fulls.is_empty() && plan.diffs.is_empty());
    }

    #[test]
    fn an_acknowledged_subscription_expects_the_first_push() {
        // The writer, rank 1, has closed interval 1 of page 0.
        let mut w = team_core(2, 1);
        write_shared(&mut w, 0, 5);
        w.close_interval().unwrap();
        // The reader, rank 0, has no copy: its region fault fetches the
        // page whole with a marked `PageReq`.
        let mut r = team_core(2, 0);
        r.default_owner = w.gpid;
        r.fresh_from = 1; // page 0 was allocated before the last commit
        let Ok(plan) = fetch_plan(r.plan_access(0, false, false)) else {
            panic!("no copy yet")
        };
        assert_eq!(plan.fulls, vec![(0, w.gpid)]);
        let sub = w.subscriber(true, r.epoch(), r.gpid);
        let Msg::PageRep {
            applied,
            words,
            push_after: Some(after),
            ..
        } = w.serve_page(0, sub)
        else {
            panic!("a marked fetch is acknowledged")
        };
        assert_eq!(after, 1);
        r.install_page(0, &applied, words, w.gpid);
        r.acknowledged(1, [0], after);
        // No push has reached the reader yet, and still the writer's
        // next diff of the page is expected: nothing is left to ask.
        write_shared(&mut w, 0, 6);
        let rec = w.close_interval().unwrap();
        r.apply_records(&[rec]);
        assert_eq!(r.diff_source(0, 1, 2), DiffSource::Expected);
        match fetch_plan(r.plan_access(0, false, false)) {
            Ok(plan) => assert!(plan.fulls.is_empty() && plan.diffs.is_empty()),
            other => panic!("expected an empty fetch, got {other:?}"),
        }
        assert_eq!(r.expected_absent(0), Some((1, 2)));
        // W: the close queued it for the reader.
        assert!(w.push.release_pushes());
        let (dst, payload, _) = w.push.next_push().expect("the close queued a push");
        assert_eq!(dst, r.gpid);
        let Msg::DiffPush { epoch, diffs } = Msg::from_wire(&payload).unwrap() else {
            panic!("outbox holds DiffPush messages")
        };
        r.deposit_push(epoch, w.gpid, diffs);
        assert_eq!(r.expected_absent(0), None);
        r.apply_diffs(0);
        assert_eq!(r.pages[0].data.as_ref().unwrap().load(0), 6);
        assert_eq!(r.stats.snapshot().push_hits, 1);
    }

    #[test]
    fn apply_diffs_orders_stored_and_fetched_causally() {
        // Ranks 1 and 2 wrote the same word, 2 after 1. Rank 2's diff
        // arrived early; rank 1's is fetched by the fault. Arrival
        // order must not decide the word.
        let mut c = team_core(3, 0);
        let _ = c.plan_access(0, false, false);
        c.pages[0].shared = true;
        let mut vc1 = Vc::new(3);
        vc1.set(1, 1);
        let mut vc2 = vc1.clone();
        vc2.set(2, 1);
        let rec = |pid, vc: &Vc| Record {
            pid,
            seq: 1,
            vc: vc.clone(),
            pages: vec![0],
        };
        c.apply_records(&[rec(1, &vc1), rec(2, &vc2)]);
        c.deposit_push(0, Gpid(3), vec![(0, 1, Arc::new(word(0, 22)))]);
        // Rank 1's diff was pushed too, and the fault's request crossed
        // the push: the first copy wins, so the pushed one is applied
        // and the fetched duplicate is dropped at the deposit.
        c.deposit_push(0, Gpid(2), vec![(0, 1, Arc::new(word(0, 11)))]);
        c.deposit(1, vec![(0, 1, word(0, 11))], false);
        assert_eq!(stored(&c, 0), vec![(1, 1), (2, 1)]);
        c.apply_diffs(0);
        assert_eq!(c.pages[0].data.as_ref().unwrap().load(0), 22);
        let s = c.stats.snapshot();
        assert_eq!((s.push_hits, s.push_wasted, s.diffs_fetched), (2, 0, 2));
    }

    #[test]
    fn gc_commit_empties_the_push_plane() {
        let mut c = team_core(2, 0);
        c.readers.insert(0, vec![1]);
        write_shared(&mut c, 0, 1);
        c.close_interval().unwrap();
        c.acknowledged(1, [3], 0);
        c.deposit_push(0, Gpid(2), vec![(3, 1, Arc::new(word(0, 1)))]);
        assert!(!c.push.queued().is_empty() && !c.early.is_empty() && !c.push_after.is_empty());
        c.gc_commit(1, Team::new(1, vec![Gpid(1), Gpid(2)]), 0, &[Gpid(1)], &[]);
        assert!(c.readers.is_empty(), "subscriptions die with the epoch");
        assert!(c.push.queued().is_empty() && c.push.held() == 0);
        assert!(c.early.is_empty() && c.push_after.is_empty());
        assert_eq!(c.consistency_bytes, 0);
        assert_eq!(c.stats.snapshot().push_wasted, 1, "stored, never applied");
    }

    #[test]
    fn diff_push_from_another_epoch_is_dropped() {
        let mut c = team_core(2, 0);
        c.deposit_push(7, Gpid(2), vec![(0, 1, Arc::new(word(0, 1)))]);
        assert!(c.early.is_empty());
        assert_eq!(c.stats.snapshot().push_wasted, 1);
        // So is one from a process that is not in the team.
        c.deposit_push(0, Gpid(9), vec![(0, 1, Arc::new(word(0, 1)))]);
        assert!(c.early.is_empty());
    }

    #[test]
    fn consistency_bytes_trigger_gc() {
        let mut c = core();
        c.cfg.gc_diff_threshold = 10;
        assert!(!c.gc_due());
        c.consistency_bytes = 11;
        assert!(c.gc_due());
    }

    #[test]
    fn a_workers_notices_trigger_the_masters_gc() {
        // A master that stores no diff of its own learns that rank 1
        // wrote one page more than the budget holds, over two
        // intervals: each named page is a diff stored at rank 1.
        let mut c = team_core(2, 0);
        let page = c.cfg.page_size;
        c.cfg.gc_diff_threshold = 4 * page;
        let rec = |seq: Seq, pages: Vec<PageId>| {
            let mut vc = Vc::new(2);
            vc.set(1, seq);
            Record {
                pid: 1,
                seq,
                vc,
                pages,
            }
        };
        c.learn(&Vc::new(2), &[rec(1, vec![0, 1, 2])]);
        assert!(!c.gc_due(), "3 pages of notices fit a 4-page budget");
        // A record learned twice counts once.
        c.learn(&Vc::new(2), &[rec(1, vec![0, 1, 2])]);
        assert!(!c.gc_due());
        c.learn(&Vc::new(2), &[rec(2, vec![3, 4])]);
        assert_eq!(c.consistency_bytes, 0, "the master made no diff");
        assert!(c.gc_due(), "5 pages of rank 1's diffs pass the budget");
        let dir = vec![Gpid(1); 5];
        c.gc_commit(1, Team::new(1, vec![Gpid(1), Gpid(2)]), 0, &dir, &[]);
        assert!(!c.gc_due(), "the commit frees every diff it counted");
    }

    // --- the asker's requests ---------------------------------------------

    #[test]
    fn a_page_collection_marks_only_chains_of_two_or_more_diffs() {
        let c = core();
        let marked = |wants: Vec<(PageId, Seq)>, whole| {
            let plan = FetchPlan {
                fulls: vec![],
                diffs: vec![(c.gpid, wants)],
            };
            match &c.requests(plan, false, whole)[..] {
                [(
                    _,
                    Msg::DiffReq {
                        whole_if_smaller, ..
                    },
                    _,
                )] => *whole_if_smaller,
                other => panic!("expected one DiffReq, got {} requests", other.len()),
            }
        };
        // One diff per page: unmarked, as a fault asks it.
        assert!(!marked(vec![(3, 1), (4, 1)], true));
        // Page 4's chain of two: marked, in a page collection only.
        assert!(marked(vec![(3, 1), (4, 1), (4, 2)], true));
        assert!(!marked(vec![(3, 1), (4, 1), (4, 2)], false));
    }

    #[test]
    fn a_region_marks_its_page_and_diff_requests_alike() {
        let c = core();
        let marks = |subscribe| -> Vec<bool> {
            let plan = FetchPlan {
                fulls: vec![(2, c.gpid)],
                diffs: vec![(c.gpid, vec![(3, 1)])],
            };
            c.requests(plan, subscribe, false)
                .into_iter()
                .map(|(_, msg, _)| match msg {
                    Msg::PageReq { subscribe, .. } | Msg::DiffReq { subscribe, .. } => subscribe,
                    other => panic!("not a page or diff request: {other:?}"),
                })
                .collect()
        };
        assert_eq!(marks(false), vec![false, false], "outside a region");
        assert_eq!(marks(true), vec![true, true], "inside one");
    }

    // --- a rejected reply leaves the core unchanged ------------------------

    /// What a rejected fold must not touch: every page's owner hint and
    /// copy, the early-diff store, and the acknowledgements.
    fn exchange_state(
        c: &ProcCore,
    ) -> (
        Vec<(Gpid, bool)>,
        Vec<(PageId, Pid, Seq)>,
        Vec<(PageId, Pid, Seq)>,
    ) {
        let hints = c
            .pages
            .iter()
            .map(|(_, m)| (m.owner, m.data.is_some()))
            .collect();
        let mut early: Vec<_> = c
            .early
            .iter()
            .flat_map(|(&p, v)| v.iter().map(move |e| (p, e.pid, e.seq)))
            .collect();
        early.sort_unstable();
        let mut acks: Vec<_> = c.push_after.iter().map(|(&(p, w), &s)| (p, w, s)).collect();
        acks.sort_unstable();
        (hints, early, acks)
    }

    #[test]
    fn a_rejected_reply_leaves_the_core_unchanged() {
        // Rank 2 of 3, whose pages, all allocated before the last
        // commit, rank 0 owns.
        let mut c = team_core(3, 2);
        c.default_owner = Gpid(1);
        c.fresh_from = 8;
        let page_rep = |push_after| Msg::PageRep {
            applied: vec![],
            words: vec![0; 8],
            redirect: None,
            push_after,
        };
        // Page 1 came from rank 0 with an acknowledgement; rank 1 then
        // wrote it, so it is stale.
        let AccessPlan::Missing(requests) = c.plan_access(1, false, true) else {
            panic!("no copy yet")
        };
        let (from, _, expect) = requests[0].clone();
        c.fold(expect, from, page_rep(Some(0))).unwrap();
        notice(&mut c, 1, 1, 1);
        let AccessPlan::Stale(requests) = c.plan_access(1, false, false) else {
            panic!("a stale copy")
        };
        let [(Gpid(2), Msg::DiffReq { .. }, diffs)] = requests[..] else {
            panic!("one DiffReq to rank 1, got {requests:?}")
        };
        let AccessPlan::Missing(requests) = c.plan_access(0, false, false) else {
            panic!("no copy yet")
        };
        let [(Gpid(1), Msg::PageReq { .. }, full)] = requests[..] else {
            panic!("one PageReq to rank 0, got {requests:?}")
        };
        c.deposit_push(0, Gpid(2), vec![(4, 1, Arc::new(word(0, 1)))]);
        let before = exchange_state(&c);
        assert!(before.0[1].1 && !before.1.is_empty() && !before.2.is_empty());

        let ourselves = Msg::PageRep {
            applied: vec![],
            words: vec![],
            redirect: Some(c.gpid),
            push_after: None,
        };
        let rejected = c.fold(full, Gpid(1), ourselves).unwrap_err();
        assert!(matches!(rejected, Rejected::RedirectToSelf(0)));
        assert_eq!(rejected.to_string(), "page 0 redirect loop back to self");
        assert_eq!(exchange_state(&c), before);

        let rejected = c.fold(full, Gpid(1), Msg::Ack).unwrap_err();
        assert!(matches!(rejected, Rejected::Unexpected(..)), "{rejected}");
        assert_eq!(exchange_state(&c), before);

        let rejected = c.fold(diffs, Gpid(2), page_rep(Some(0))).unwrap_err();
        assert!(matches!(rejected, Rejected::Unexpected(..)), "{rejected}");
        assert_eq!(exchange_state(&c), before);
        assert_eq!(c.pages[1].state, PageState::Invalid);

        // A page of another size than ours, alone or served whole in
        // place of a chain, is refused before anything lands.
        let short = Msg::PageRep {
            applied: vec![],
            words: vec![0; 7],
            redirect: None,
            push_after: Some(0),
        };
        assert!(c.fold(full, Gpid(1), short).is_err());
        let short = Msg::DiffRep {
            diffs: vec![(1, 1, word(0, 1))],
            pages: vec![WholePage {
                page: 1,
                applied: vec![(1, 1)],
                words: vec![0; 7],
            }],
            push_after: Some(0),
        };
        assert!(c.fold(diffs, Gpid(2), short).is_err());
        assert_eq!(exchange_state(&c), before);
        assert!(c.pages[0].data.is_none() && c.pages[1].state == PageState::Invalid);

        // An acquire asks the previous holder alone, and takes records.
        assert!(c.plan_acquire(None).is_none() && c.plan_acquire(Some(c.gpid)).is_none());
        let (to, _, records) = c.plan_acquire(Some(Gpid(2))).unwrap();
        assert_eq!(to, Gpid(2));
        let rejected = c.fold(records, Gpid(2), page_rep(None)).unwrap_err();
        assert!(rejected
            .to_string()
            .starts_with("unexpected reply to RecordsReq"));
        assert_eq!(exchange_state(&c), before);
    }

    // --- a threadless exchange: three cores, every message on the wire -----

    /// Three cores of one team (gpids 1–3, ranks 0–2), driven by the
    /// test alone: no thread, clock or network. Every request and reply
    /// is encoded and decoded as the wire carries it, and served by its
    /// destination's [`ProcCore::serve`].
    struct Trio {
        cores: Vec<ProcCore>,
        /// Every request made, as `(asker, server)`.
        log: Vec<(Gpid, Gpid)>,
    }

    impl Trio {
        /// The team founded at rank 0 and joined at ranks 1 and 2 under
        /// a directory of `pages` pages, so those were allocated before
        /// it and the ones after it since. `hint` is rank 2's directory
        /// entry for every page (rank 1's and rank 0's name rank 0).
        fn new(cfg: &DsmConfig, pages: usize, hint: impl Fn(PageId) -> Gpid) -> Self {
            let team = Team::new(0, vec![Gpid(1), Gpid(2), Gpid(3)]);
            let mut cores: Vec<ProcCore> = (1..=3)
                .map(|g| ProcCore::new(cfg.clone(), Gpid(g), DsmStats::new_shared(), Gpid(1)))
                .collect();
            let dir = vec![Gpid(1); pages];
            cores[0].found_team(team.clone(), &dir);
            cores[1].join_team(team.clone(), 1, &dir, &[], 0);
            let dir: Vec<Gpid> = (0..pages as PageId).map(hint).collect();
            cores[2].join_team(team, 2, &dir, &[], 0);
            Trio {
                cores,
                log: Vec::new(),
            }
        }

        fn on_the_wire(&self, msg: &Msg) -> Msg {
            let cfg = &self.cores[0].cfg;
            Msg::decode(&msg.encode(cfg), cfg).expect("a message decodes as sent")
        }

        /// Make `requests` of rank `me`, in order: each served at its
        /// destination and its reply folded in.
        fn exchange(&mut self, me: usize, requests: Vec<Request>) {
            for (to, msg, expect) in requests {
                let asker = self.cores[me].gpid;
                self.log.push((asker, to));
                let req = self.on_the_wire(&msg);
                let server = to.0 as usize - 1;
                let rep = self.cores[server].serve(asker, &req).expect("served");
                let rep = self.on_the_wire(&rep);
                self.cores[me].fold(expect, to, rep).expect("folded");
            }
        }

        /// Rank `me`'s access to `page`, driven to completion as the
        /// fault driver's loop drives it.
        fn access(&mut self, me: usize, page: PageId, write: bool) -> Arc<PageBuf> {
            for _ in 0..4 {
                match self.cores[me].plan_access(page, write, false) {
                    AccessPlan::Ready { buf, .. } => return buf,
                    AccessPlan::Missing(requests) => self.exchange(me, requests),
                    AccessPlan::Stale(requests) => {
                        self.exchange(me, requests);
                        assert_eq!(
                            self.cores[me].expected_absent(page),
                            None,
                            "nothing is pushed"
                        );
                        self.cores[me].apply_diffs(page);
                    }
                }
            }
            panic!("rank {me}: page {page} is not accessible after four rounds")
        }

        /// Rank `me` closes its interval and its knowledge reaches the
        /// others, as a barrier hands it out.
        fn release(&mut self, me: usize) {
            let records = self.cores[me].close_and_drain();
            let vc = self.cores[me].vc.clone();
            for (i, c) in self.cores.iter_mut().enumerate() {
                if i != me {
                    c.learn(&vc, &records);
                }
            }
        }

        fn words(&self, rank: usize, page: PageId) -> Vec<u64> {
            let data = self.cores[rank].pages[page].data.as_ref();
            data.expect("a copy").snapshot()
        }
    }

    #[test]
    fn three_cores_exchange_pages_and_diffs_without_a_thread() {
        use crate::config::DataPlaneConfig;
        // Page A: rank 1 writes it. R: rank 0 writes it unrecorded, and
        // rank 2's hint names rank 1, which has no copy. S: ranks 0 and
        // 1 write different words of it. C: rank 1 writes it whole,
        // twice.
        let (a, r, s, c) = (0, 1, 2, 3);
        for base in [DsmConfig::default(), DsmConfig::default().generation_1999()] {
            for plane in [DataPlaneConfig::Overlap, DataPlaneConfig::Demand] {
                let cfg = base.clone().with_dataplane(plane);
                let spp = cfg.slots_per_page();
                let mut t = Trio::new(&cfg, 4, |p| if p == r { Gpid(2) } else { Gpid(1) });
                t.access(0, r, true).store(3, 33);
                t.release(0);
                // Ranks 1 and 2 take copies of S and C, rank 0 of S.
                for (rank, page) in [(2, s), (2, c), (1, s), (1, c), (0, s)] {
                    t.access(rank, page, false);
                }
                let a_buf = t.access(1, a, true);
                (0..4).for_each(|i| a_buf.store(i, 100 + i as u64));
                t.access(1, s, true).store(1, 8);
                t.access(0, s, true).store(0, 7);
                let c_buf = t.access(1, c, true);
                (0..spp).for_each(|i| c_buf.store(i, 10));
                (0..3).for_each(|rank| t.release(rank));
                let c_buf = t.access(1, c, true);
                (0..spp).for_each(|i| c_buf.store(i, 20 + i as u64));
                t.release(1);

                // Cold, from the newest writer.
                t.log.clear();
                t.access(2, a, false);
                assert_eq!(t.log, [(Gpid(3), Gpid(2))], "{cfg:?}");
                assert_eq!(t.words(2, a), t.words(1, a));
                // Cold, through a redirect from a non-holder.
                t.log.clear();
                t.access(2, r, false);
                assert_eq!(t.log, [(Gpid(3), Gpid(2)), (Gpid(3), Gpid(1))]);
                assert_eq!(t.words(2, r), t.words(0, r));
                // Stale, with a diff from each of two writers.
                t.log.clear();
                t.access(2, s, false);
                assert_eq!(t.log, [(Gpid(3), Gpid(1)), (Gpid(3), Gpid(2))]);
                let mut want = vec![0; spp];
                (want[0], want[1]) = (7, 8);
                assert_eq!(t.words(2, s), want);
                // A collection asks for C's chain of two, which comes whole.
                t.log.clear();
                let requests = t.cores[2].plan_pages(&[c], false);
                t.exchange(2, requests);
                assert_eq!(t.log, [(Gpid(3), Gpid(2))]);
                assert_eq!(t.cores[2].stats.snapshot().gc_whole_pages, 1);
                let ready = t.cores[2].plan_access(c, false, false);
                assert!(matches!(ready, AccessPlan::Ready { .. }), "{ready:?}");
                assert_eq!(t.words(2, c), t.words(1, c));
                assert_eq!(t.words(2, c)[5], 25);
            }
        }
    }

    #[test]
    fn a_page_allocated_this_epoch_is_zeros_plus_its_writers_diffs() {
        use crate::config::DataPlaneConfig;
        // Founding, joining and a commit under one directory of three
        // pages: every member takes page 3 on as this epoch's.
        let team = |epoch| Team::new(epoch, vec![Gpid(1), Gpid(2), Gpid(3)]);
        let dir = vec![Gpid(1); 3];
        let new = |cfg: DsmConfig, g| ProcCore::new(cfg, Gpid(g), DsmStats::new_shared(), Gpid(1));
        let mut cores: Vec<ProcCore> = (1..=3).map(|g| new(DsmConfig::default(), g)).collect();
        cores[0].found_team(team(0), &dir);
        cores[1].join_team(team(0), 1, &dir, &[], 0);
        cores[2].gc_commit(1, team(1), 2, &dir, &[]);
        for c in &cores {
            assert_eq!(c.fresh_from, 3);
            assert!(!c.made_here(2) && c.made_here(3));
        }
        // Only in a team of two or more, and not on the 1999 pin.
        let mut alone = new(DsmConfig::default(), 1);
        alone.found_team(Team::new(0, vec![Gpid(1)]), &[]);
        cores[2].cfg = DsmConfig::default().generation_1999();
        assert!(!alone.made_here(0) && !cores[2].made_here(3));

        // In a team of two, the owner's write to a fresh page records a
        // notice; on the 1999 pin it stays exclusive and records none.
        for (cfg, recorded) in [
            (DsmConfig::default(), Some(vec![0])),
            (DsmConfig::default().generation_1999(), None),
        ] {
            let mut c = new(cfg, 1);
            c.found_team(Team::new(0, vec![Gpid(1), Gpid(2)]), &[]);
            let AccessPlan::Ready { buf, .. } = c.plan_access(0, true, false) else {
                panic!("the owner makes its page with no request")
            };
            buf.store(0, 5);
            assert_eq!(c.close_interval().map(|r| r.pages), recorded);
        }

        // Page 1 was allocated before the team, 2–5 since. Ranks 0 and
        // 1 write different words of page 2, rank 1 writes page 3
        // whole twice and page 1 once; page 4 is never written.
        for plane in [DataPlaneConfig::Overlap, DataPlaneConfig::Demand] {
            let cfg = DsmConfig::default().with_dataplane(plane);
            let spp = cfg.slots_per_page();
            let (old, shared, chain, untouched) = (1, 2, 3, 4);
            let mut t = Trio::new(&cfg, 2, |_| Gpid(1));
            t.access(0, shared, true).store(0, 7);
            t.access(1, shared, true).store(1, 8);
            // Both first touches were made where they ran.
            let pipelines = plane.pipeline();
            assert_eq!(t.log.is_empty(), pipelines, "{plane:?}: {:?}", t.log);
            t.access(1, old, true).store(2, 9);
            for v in [10, 20] {
                let c_buf = t.access(1, chain, true);
                (0..spp).for_each(|i| c_buf.store(i, v + i as u64));
                (0..3).for_each(|rank| t.release(rank));
            }

            let reader = &mut t.cores[2];
            let AccessPlan::Stale(requests) = reader.plan_access(shared, false, true) else {
                assert!(!pipelines, "a fresh page is made here");
                continue;
            };
            // The writers its notices name, each for its diff, marked.
            let asked: Vec<_> = requests
                .iter()
                .map(|(to, msg, _)| match msg {
                    Msg::DiffReq {
                        wants, subscribe, ..
                    } => (*to, wants.clone(), *subscribe),
                    other => panic!("a fresh page asks for diffs only, got {other:?}"),
                })
                .collect();
            assert_eq!(
                asked,
                [
                    (Gpid(1), vec![(shared, 1)], true),
                    (Gpid(2), vec![(shared, 1)], true)
                ]
            );
            t.exchange(2, requests);
            t.cores[2].apply_diffs(shared);
            let mut want = vec![0; spp];
            (want[0], want[1]) = (7, 8);
            assert_eq!(t.words(2, shared), want);

            // A chain is asked `whole_if_smaller`, and comes whole.
            let AccessPlan::Stale(requests) = t.cores[2].plan_access(chain, false, false) else {
                panic!("rank 1's chain is asked for")
            };
            let [(
                Gpid(2),
                Msg::DiffReq {
                    whole_if_smaller: true,
                    ..
                },
                _,
            )] = requests[..]
            else {
                panic!("one marked DiffReq to rank 1, got {requests:?}")
            };
            t.exchange(2, requests);
            assert_eq!(t.cores[2].stats.snapshot().gc_whole_pages, 1);
            t.access(2, chain, false);
            assert_eq!(t.words(2, chain), t.words(1, chain));

            // No notice, no request.
            t.log.clear();
            assert!(t
                .access(2, untouched, false)
                .snapshot()
                .iter()
                .all(|&w| w == 0));
            assert!(t.log.is_empty());
            // A page allocated before the team is fetched whole from its
            // writer.
            let Ok(plan) = fetch_plan(t.cores[2].plan_access(old, false, false)) else {
                panic!("no copy yet")
            };
            assert_eq!((plan.fulls, plan.diffs), (vec![(old, Gpid(2))], vec![]));
            t.access(2, old, false);
            assert_eq!(t.words(2, old)[2], 9);
            assert_eq!(t.cores[2].stats.snapshot().pages_fetched, 2);
        }
    }
}
