//! Per-process protocol state and transitions (`ProcCore`).
//!
//! One `ProcCore` sits behind a `parking_lot::Mutex` shared by the
//! process's *application thread* (faults, interval management,
//! synchronization) and its *service thread* (serving pages, diffs,
//! records and lock requests at any time — TreadMarks' SIGIO handler).
//! It is the process's one lock: every request a peer makes is served
//! under it, and `ProcCore` itself is plain data with no lock inside
//! (its page table is a [`Pages`]). All methods here are short, non-blocking state transitions; network
//! I/O happens outside the lock, in the fault driver ([`crate::ctx`])
//! and the orchestration layer ([`crate::system`]).
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
use crate::msg::{PageApplied, WholePage};
use crate::page::{PageBuf, PageMeta, PageState, Wn};
use crate::push::{Push, PushGate};
use crate::records::{Record, RecordStore};
use crate::shm::Registry;
use crate::stats::DsmStats;
use crate::table::Pages;
use crate::types::{Epoch, PageId, Pid, Seq, Team, Vc};
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
    /// Make these requests, fold their replies in, and plan again: a
    /// one-page [`FetchPlan`]. A page with no copy plans its full page;
    /// a stale copy plans the diffs only the network can supply (none
    /// when the early-diff store has, or expects, every one of them),
    /// then applies the page's stored diffs with [`ProcCore::apply_diffs`].
    Fetch(FetchPlan),
}

/// The requests that bring a set of pages up to date, derived read-only
/// by [`ProcCore::plan_page`]: full-page fetches plus diff requests
/// batched per creator (one `DiffReq` per creator covers every planned
/// page). A fault plans one page ([`ProcCore::plan_access`]), a page
/// collection many ([`ProcCore::plan_pages`]).
#[derive(Debug, Default)]
pub struct FetchPlan {
    /// Pages with no local copy: `(page, holder to ask)`.
    pub fulls: Vec<(PageId, Gpid)>,
    /// Stale pages: per-creator `(page, seq)` wants, in page order.
    pub diffs: Vec<(Gpid, Vec<(PageId, Seq)>)>,
}

/// The most pages a directory owner lends as zeros with one it serves
/// ([`ProcCore::lend_fresh`]).
pub const LEASE_PAGES: usize = 64;

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
        }
    }

    /// Current protocol epoch.
    pub fn epoch(&self) -> Epoch {
        self.team.epoch
    }

    /// The open interval's sequence number.
    pub fn open_seq(&self) -> Seq {
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
    /// transitions (twin creation, exclusive materialization) inline,
    /// and plans the rest with [`Self::plan_page`], the planner a page
    /// collection uses too.
    pub fn plan_access(&mut self, page: PageId, want_write: bool) -> AccessPlan {
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
                    return AccessPlan::Fetch(self.plan_fault(page, meta));
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
                    self.plan_access(page, want_write)
                } else if meta.data.is_none()
                    && (meta.owner == me || meta.lease)
                    && meta.pending.is_empty()
                {
                    // We are the directory owner of a page nobody has
                    // materialized yet, or its owner lent it to us as
                    // such — and nobody has written it either (no
                    // notices): conjure the zero page (the backing
                    // store of a fresh allocation). With notices
                    // present, the writer's copy is the truth and we
                    // must fetch like anyone else.
                    let meta = &mut self.pages[page];
                    let buf = Arc::new(PageBuf::new(spp));
                    meta.data = Some(Arc::clone(&buf));
                    meta.state = PageState::Read;
                    // Exclusive until first served — but if we already
                    // lent zeros to someone, or hold a lent page,
                    // copies exist out there and our writes must be
                    // twinned and recorded.
                    meta.shared = meta.zero_lent || meta.lease;
                    self.plan_access(page, want_write)
                } else {
                    AccessPlan::Fetch(self.plan_fault(page, meta))
                }
            }
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

    /// Who to ask for a page we hold no copy of: a writer at the newest
    /// vcsum we know of, else the directory owner. Writers tied at the
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
    pub fn install_whole(&mut self, whole: WholePage, from: Gpid) {
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
    pub fn install_page(
        &mut self,
        page: PageId,
        applied: &[(Pid, Seq)],
        words: Vec<u64>,
        from: Gpid,
    ) {
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
    /// demand fault would also have made.
    pub fn plan_pages(&self, pages: &[PageId]) -> FetchPlan {
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
        plan
    }

    // ------------------------------------------------------------------
    // Early diffs (reader side of the push plane)
    // ------------------------------------------------------------------

    /// Rule R, and the store lookup in front of it: where the diff
    /// behind the unapplied notice `(page, pid, seq)` will come from.
    pub fn diff_source(&self, page: PageId, pid: Pid, seq: Seq) -> DiffSource {
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
    pub fn deposit(
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
    pub fn acknowledged(&mut self, from: Pid, pages: impl IntoIterator<Item = PageId>, after: Seq) {
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
                    let bytes = crate::msg::Msg::DiffPush { epoch, diffs }.encode(&self.cfg);
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
    pub fn apply_records(&mut self, recs: &[Record]) {
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
                if meta.pending.len() > before && meta.state != PageState::Write {
                    // Invalidate; the copy (if any) becomes stale. A page
                    // we are currently writing stays writable — the
                    // multiple-writer protocol merges via diffs.
                    if meta.state == PageState::Read {
                        meta.state = PageState::Invalid;
                    }
                }
            }
        }
    }

    /// Drain our unsent records (join/barrier arrival payload).
    pub fn drain_unsent(&mut self) -> Vec<Record> {
        std::mem::take(&mut self.unsent)
    }

    // ------------------------------------------------------------------
    // Serving (service thread)
    // ------------------------------------------------------------------

    /// The rank a request from `src` in `epoch` subscribes: none
    /// unless it is `subscribe`-marked, of our epoch (in another, its
    /// pid would name a member of another team) and from a member.
    pub fn subscriber(&self, subscribe: bool, epoch: Epoch, src: Gpid) -> Option<Pid> {
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
    pub fn serve_page(&mut self, page: PageId, subscriber: Option<Pid>) -> crate::msg::Msg {
        let mut rep = self.page_rep(page);
        let lent = self
            .pages
            .get(page)
            .is_some_and(|m| m.data.is_none() && m.owner == self.gpid);
        if let crate::msg::Msg::PageRep {
            redirect: None,
            push_after,
            fresh,
            ..
        } = &mut rep
        {
            *push_after = self.subscribe([page], subscriber);
            if lent && push_after.is_some() && self.cfg.dataplane.pipeline() {
                *fresh = self.lend_fresh(page);
            }
        }
        rep
    }

    /// Lend, with the never-materialized `page`, the run of pages after
    /// it that we own and that nobody has materialized or, as far as we
    /// know, written: at most [`LEASE_PAGES`]. The requester makes them
    /// locally instead of asking for each (a region's first touch of a
    /// fresh allocation is one request per run, not per page); each is
    /// marked lent, so a copy we make later records its writes.
    fn lend_fresh(&mut self, page: PageId) -> u32 {
        let mut fresh = 0;
        while (fresh as usize) < LEASE_PAGES {
            let Some(meta) = self.pages.get_mut(page + 1 + fresh) else {
                break;
            };
            if meta.owner != self.gpid || meta.data.is_some() || !meta.pending.is_empty() {
                break;
            }
            meta.zero_lent = true;
            fresh += 1;
        }
        fresh
    }

    /// Take the `fresh` pages after `page` that `owner` lent as zeros
    /// with it ([`Self::lend_fresh`]): a later fault on one with no
    /// notice makes it here.
    pub fn take_lease(&mut self, page: PageId, fresh: u32, owner: Gpid) {
        self.ensure_pages((page + fresh) as usize + 1);
        for q in page + 1..=page + fresh {
            let meta = &mut self.pages[q];
            if meta.data.is_none() && meta.owner == owner {
                meta.lease = true;
            }
        }
    }

    /// The page as [`Self::serve_page`] serves it, before any
    /// subscription.
    fn page_rep(&mut self, page: PageId) -> crate::msg::Msg {
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
                    crate::msg::Msg::PageRep {
                        applied: vec![],
                        words: vec![0; self.cfg.slots_per_page()],
                        redirect: None,
                        push_after: None,
                        fresh: 0,
                    }
                } else {
                    crate::msg::Msg::PageRep {
                        applied: vec![],
                        words: vec![],
                        redirect: Some(meta.owner),
                        push_after: None,
                        fresh: 0,
                    }
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
                        return crate::msg::Msg::PageRep {
                            applied,
                            words: snap,
                            redirect: None,
                            push_after: None,
                            fresh: 0,
                        };
                    }
                }
                debug_assert!(
                    meta.state != PageState::Write || meta.applied.get(me_pid) < open_seq,
                    "open-interval writes must not be attributed before close"
                );
                crate::msg::Msg::PageRep {
                    applied: meta.applied.iter_nonzero().collect(),
                    words: data.snapshot(),
                    redirect: None,
                    push_after: None,
                    fresh: 0,
                }
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
    pub fn serve_diffs(
        &mut self,
        wants: &[(PageId, Seq)],
        subscriber: Option<Pid>,
        whole_if_smaller: bool,
    ) -> Option<crate::msg::Msg> {
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
        Some(crate::msg::Msg::DiffRep {
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

    /// Serve a records request (lock-transfer consistency data).
    pub fn serve_records(&self, vc: &Vc) -> crate::msg::Msg {
        crate::msg::Msg::RecordsRep {
            records: self.records.newer_than(vc),
        }
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
        self.vc = Vc::new(team.members.len());
        self.team = team;
        self.my_pid = my_pid;
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

    /// Does stored consistency data exceed the GC threshold?
    pub fn gc_due(&self) -> bool {
        self.consistency_bytes > self.cfg.gc_diff_threshold
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

    /// Import pages wholesale (recovery: the master owns everything).
    pub fn import_pages(&mut self, pages: &[(PageId, Vec<u64>)]) {
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

    fn two_proc_team(c: &mut ProcCore, my_pid: Pid) {
        c.team = Team::new(0, vec![Gpid(1), Gpid(2)]);
        c.my_pid = my_pid;
        c.vc = Vc::new(2);
    }

    #[test]
    fn owner_materializes_zero_page() {
        let mut c = core();
        match c.plan_access(0, false) {
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
        let AccessPlan::Ready { buf, writable } = c.plan_access(0, true) else {
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
        let _ = c.plan_access(0, false);
        let rep = c.serve_page(0, None);
        assert!(matches!(rep, Msg::PageRep { redirect: None, .. }));
        assert!(c.pages[0].shared);
        // Now a write must twin.
        let AccessPlan::Ready { buf, .. } = c.plan_access(0, true) else {
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
        let AccessPlan::Ready { buf, .. } = c.plan_access(0, true) else {
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
        let _ = c.plan_access(0, false);
        let _ = c.serve_page(0, None); // shared now
        let AccessPlan::Ready { .. } = c.plan_access(0, true) else {
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
        let _ = c.plan_access(0, false);
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
        match c.plan_access(0, false) {
            AccessPlan::Fetch(plan) => {
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
            let _ = c.plan_access(0, false);
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
            let AccessPlan::Fetch(plan) = c.plan_access(0, false) else {
                panic!("expected a diff fetch");
            };
            let expect: Vec<_> = [3, 7, 5].map(|g| (Gpid(g), vec![(0, 1)])).into();
            assert_eq!(plan.diffs, expect);
            let mut collection = c.plan_pages(&[0]).diffs;
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
        let _ = c.plan_access(0, false);
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
        match c.plan_access(3, false) {
            AccessPlan::Fetch(plan) => {
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
        let mut vc = Vc::new(2);
        vc.set(0, 3);
        c.apply_records(&[Record {
            pid: 0,
            seq: 3,
            vc,
            pages: vec![5],
        }]);
        match c.plan_access(5, false) {
            AccessPlan::Fetch(plan) => {
                assert_eq!(plan.fulls, vec![(5, Gpid(1))]);
                assert!(plan.diffs.is_empty());
            }
            other => panic!("expected a full fetch, got {other:?}"),
        }
        // One planner: a collection asks the same holder.
        assert_eq!(c.plan_pages(&[5]).fulls, vec![(5, Gpid(1))]);
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
        let _ = c.plan_access(0, false);
        let _ = c.serve_page(0, None);
        let AccessPlan::Ready { buf, .. } = c.plan_access(0, true) else {
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
        let _ = c.plan_access(0, false);
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
        let _ = c.plan_access(2, false);
        let report = c.gc_report();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].page, 2);
    }

    #[test]
    fn export_import_roundtrip() {
        let mut c = core();
        let AccessPlan::Ready { buf, .. } = c.plan_access(1, true) else {
            panic!()
        };
        buf.store(0, 77);
        let pages = c.export_pages();
        let mut c2 = core();
        c2.import_pages(&pages);
        let AccessPlan::Ready { buf, .. } = c2.plan_access(1, false) else {
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
        let _ = c.plan_access(page, false);
        let _ = c.serve_page(page, None);
        let AccessPlan::Ready { buf, .. } = c.plan_access(page, true) else {
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
        let AccessPlan::Ready { buf, .. } = c.plan_access(page, true) else {
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
    fn an_owner_lends_the_fresh_run_after_a_page_it_serves() {
        let mut c = team_core(2, 0);
        c.ensure_pages(8);
        // We materialize page 5: the run lent with page 1 stops there.
        let _ = c.plan_access(5, true);
        let Msg::PageRep {
            push_after, fresh, ..
        } = c.serve_page(1, Some(1))
        else {
            panic!("a page reply")
        };
        assert!(push_after.is_some());
        assert_eq!(fresh, 3, "pages 2, 3 and 4");
        assert!((1..=4).all(|p| c.pages[p].zero_lent));
        assert!(!c.pages[6].zero_lent);
        // An unsubscribed request (the master's sequential phase, a
        // collection) takes no lease.
        let Msg::PageRep { fresh, .. } = c.serve_page(6, None) else {
            panic!("a page reply")
        };
        assert_eq!(fresh, 0);
        // Nor does the 1999 demand plane.
        let mut c = team_core(2, 0);
        c.cfg = c.cfg.clone().generation_1999();
        c.ensure_pages(4);
        let Msg::PageRep { fresh, .. } = c.serve_page(1, Some(1)) else {
            panic!("a page reply")
        };
        assert_eq!(fresh, 0);
    }

    #[test]
    fn a_lent_page_is_made_locally_and_records_its_writes() {
        let mut c = team_core(2, 1);
        let owner = c.team.gpid(0);
        c.default_owner = owner;
        c.take_lease(0, 2, owner);
        // Page 1 has no notice: made here with no request, and shared,
        // so its writes twin and reach the others as a diff.
        let AccessPlan::Ready { writable, .. } = c.plan_access(1, true) else {
            panic!("a lent page needs no request")
        };
        assert!(writable);
        assert!(c.pages[1].twin.is_some());
        // Page 2 has a notice, and page 3 was not lent: both are asked.
        notice(&mut c, 0, 1, 2);
        assert!(matches!(c.plan_access(2, false), AccessPlan::Fetch(_)));
        assert!(matches!(c.plan_access(3, false), AccessPlan::Fetch(_)));
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
        let _ = c.plan_access(0, false);
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
        let _ = c.plan_access(0, false);
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
        let AccessPlan::Ready { buf, .. } = c.plan_access(0, true) else {
            panic!()
        };
        buf.store(1, 99);
        c.close_interval().unwrap();
        assert_eq!(c.push.queued().len(), 3);

        // A close that writes only unread pages queues nothing.
        c.push = PushGate::default();
        let AccessPlan::Ready { buf, .. } = c.plan_access(2, true) else {
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
            let AccessPlan::Ready { buf, .. } = c.plan_access(0, true) else {
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
        let _ = c.plan_access(0, false);
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
        let _ = c.plan_access(0, false);
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
        match c.plan_access(0, false) {
            AccessPlan::Fetch(plan) => {
                assert_eq!(plan.diffs, vec![(Gpid(2), vec![(0, 2)])]);
            }
            other => panic!("expected a diff fetch, got {other:?}"),
        }
        assert_eq!(c.plan_pages(&[0]).diffs, vec![(Gpid(2), vec![(0, 2)])]);
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
        match c.plan_access(0, false) {
            AccessPlan::Fetch(plan) => assert!(plan.fulls.is_empty() && plan.diffs.is_empty()),
            other => panic!("expected an empty fetch, got {other:?}"),
        }
        let plan = c.plan_pages(&[0]);
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
        let AccessPlan::Fetch(plan) = r.plan_access(0, false) else {
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
        match r.plan_access(0, false) {
            AccessPlan::Fetch(plan) => assert!(plan.fulls.is_empty() && plan.diffs.is_empty()),
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
        let _ = c.plan_access(0, false);
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
}
