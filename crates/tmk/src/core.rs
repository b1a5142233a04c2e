//! Per-process protocol state and transitions (`ProcCore`).
//!
//! One `ProcCore` sits behind a `parking_lot::Mutex` shared by the
//! process's *application thread* (faults, interval management,
//! synchronization) and its *service thread* (serving pages, diffs,
//! records and lock requests at any time — TreadMarks' SIGIO handler).
//! All methods here are short, non-blocking state transitions; network
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
//! * Stored diffs are immutable once created; lazy mode materializes
//!   them on first demand (next write fault or first `DiffReq`).

use crate::config::DsmConfig;
use crate::diff::{Diff, DiffKey};
use crate::msg::PageApplied;
use crate::page::{PageBuf, PageState, Wn};
use crate::records::{Record, RecordStore};
use crate::shm::Registry;
use crate::stats::DsmStats;
use crate::table::PageTable;
use crate::types::{Epoch, PageId, Pid, Seq, Team, Vc};
use nowmp_net::Gpid;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Page id traced when the `NOWMP_TRACE_PAGE` env var is set (debugging aid).
fn trace_page() -> Option<u32> {
    static P: std::sync::OnceLock<Option<u32>> = std::sync::OnceLock::new();
    *P.get_or_init(|| {
        std::env::var("NOWMP_TRACE_PAGE")
            .ok()
            .and_then(|v| v.parse().ok())
    })
}

macro_rules! ptrace {
    ($page:expr, $($arg:tt)*) => {
        if trace_page() == Some(u32::MAX) || trace_page() == Some($page) {
            eprintln!($($arg)*);
        }
    };
}

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
    /// No local copy: fetch the full page from `target`.
    NeedFull {
        /// Process to ask first (last writer or directory owner).
        target: Gpid,
    },
    /// Stale local copy: fetch these diffs, grouped by creator.
    NeedDiffs {
        /// `(creator, wanted (page, seq) pairs)` — all for this page.
        groups: Vec<(Gpid, Vec<(PageId, Seq)>)>,
    },
}

/// What a release-phase prefetch should request, derived read-only
/// from last window's fault set by [`ProcCore::plan_prefetch`]:
/// full-page fetches plus diff requests batched per creator (one
/// `DiffReq` per creator covers every planned page).
#[derive(Debug, Default)]
pub struct PrefetchPlan {
    /// Pages with no local copy: `(page, holder to ask)`.
    pub fulls: Vec<(PageId, Gpid)>,
    /// Stale pages: per-creator `(page, seq)` wants, in page order.
    pub diffs: Vec<(Gpid, Vec<(PageId, Seq)>)>,
    /// Pages covered by this plan (budget accounting).
    pub pages: usize,
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
    /// Per-page metadata behind interleaved spin-lock shards. `Arc`ed
    /// so the service thread can reach it (for the shared-page serve
    /// fast path) without taking the core mutex. Lock order is core
    /// mutex → shard; see [`crate::table`] for the full discipline.
    pub pages: Arc<PageTable>,
    /// Every interval record known this epoch.
    pub records: RecordStore,
    /// Our own records not yet shipped to the master (drained at
    /// join/barrier arrivals).
    pub unsent: Vec<Record>,
    /// Diffs we created, by (page, seq).
    pub diffs: HashMap<DiffKey, Arc<Diff>>,
    /// Lazy mode: twins awaiting diff materialization (page → (seq, twin)).
    pub pending_twins: HashMap<PageId, (Seq, Vec<u64>)>,
    /// Bytes of stored diff/twin data (GC trigger).
    pub consistency_bytes: usize,
    /// Manager-side lock state for locks we manage.
    pub locks: HashMap<u32, LockMgr>,
    /// Shared event counters.
    pub stats: Arc<DsmStats>,
    /// Handle registry replica.
    pub registry: Registry,
    /// Default directory owner for untouched pages (the master).
    pub default_owner: Gpid,
    /// Pages faulted on since the last release point (insertion order,
    /// deduplicated). Only tracked when `cfg.dataplane.prefetch > 0`.
    pub fault_window: Vec<PageId>,
    /// The last few rotated fault windows, newest first. The prefetch
    /// candidate set is their union: a page's *invalidating* write
    /// notices can trail the fault by more than one release point
    /// (e.g. two alternating worksharing regions put a full epoch
    /// between a region's faults and the records that invalidate its
    /// pages again), so candidates must outlive one rotation.
    /// [`Self::plan_prefetch`] skips still-valid pages, so a stale
    /// candidate costs nothing.
    pub window_history: std::collections::VecDeque<Vec<PageId>>,
    /// How often each page's diffs have been served to peers — the
    /// "heat" ranking behind piggyback selection.
    pub diff_heat: HashMap<PageId, u32>,
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
            pages: Arc::new(PageTable::new()),
            records: RecordStore::new(),
            unsent: Vec::new(),
            diffs: HashMap::new(),
            pending_twins: HashMap::new(),
            consistency_bytes: 0,
            locks: HashMap::new(),
            stats,
            registry: Registry::new(),
            default_owner,
            fault_window: Vec::new(),
            window_history: std::collections::VecDeque::new(),
            diff_heat: HashMap::new(),
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

    fn slots_per_page(&self) -> usize {
        self.cfg.slots_per_page()
    }

    // ------------------------------------------------------------------
    // Fault handling (application thread)
    // ------------------------------------------------------------------

    /// Decide how to obtain access to `page`; performs the local-only
    /// transitions (twin creation, exclusive materialization) inline.
    /// Faults that need the network are noted in the per-release fault
    /// window when release-phase prefetch is configured.
    pub fn plan_access(&mut self, page: PageId, want_write: bool) -> AccessPlan {
        let plan = self.plan_access_inner(page, want_write);
        if self.cfg.dataplane.prefetch > 0
            && !matches!(plan, AccessPlan::Ready { .. })
            && !self.fault_window.contains(&page)
        {
            self.fault_window.push(page);
        }
        plan
    }

    fn plan_access_inner(&mut self, page: PageId, want_write: bool) -> AccessPlan {
        self.ensure_pages(page as usize + 1);
        let spp = self.slots_per_page();
        let me = self.gpid;
        let my_pid = self.my_pid;
        let open_seq = self.open_seq();
        let lazy = self.cfg.lazy_diffs;
        let page_size = self.cfg.page_size;

        // Lazy mode: a pending twin must be flushed before this page can
        // be re-twinned. Do it before borrowing meta mutably for the
        // main transition.
        if want_write && lazy {
            self.flush_pending_twin(page);
        }

        let mut meta = self.pages.guard(page);
        match meta.state {
            PageState::Write => {
                // A page we are writing can still have pending notices:
                // another process wrote different words of it under a
                // different synchronization domain (page-level false
                // sharing — the multiple-writer case). Merge its diffs
                // into our working copy before further access.
                let unapplied = meta.unapplied();
                if !unapplied.is_empty() {
                    let team = &self.team;
                    let mut groups: HashMap<Gpid, Vec<(PageId, Seq)>> = HashMap::new();
                    for wn in unapplied {
                        let g = team.gpid(wn.pid);
                        groups.entry(g).or_default().push((page, wn.seq));
                    }
                    return AccessPlan::NeedDiffs {
                        groups: groups.into_iter().collect(),
                    };
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
                let data = Arc::clone(meta.data.as_ref().expect("Read state implies data"));
                if meta.shared {
                    meta.twin = Some(data.snapshot());
                    DsmStats::bump(&self.stats.twins_created);
                    if lazy {
                        self.consistency_bytes += page_size;
                    }
                }
                meta.state = PageState::Write;
                // Interval bookkeeping rides the shard lock the fault
                // already holds — no core-level dirty list.
                meta.mark_dirty();
                // NOTE: `applied[my_pid]` is NOT raised here. Open-interval
                // writes are only attributed once the interval closes and
                // becomes a record; raising early would let an unrecorded
                // (exclusive) write shadow a later recorded interval with
                // the same sequence number.
                let _ = (my_pid, open_seq);
                AccessPlan::Ready {
                    buf: data,
                    writable: true,
                }
            }
            PageState::Invalid => {
                if meta.data.is_some() {
                    // Stale copy: need diffs.
                    let unapplied = meta.unapplied();
                    if unapplied.is_empty() {
                        // Nothing pending after all — promote.
                        meta.state = PageState::Read;
                        drop(meta);
                        return self.plan_access(page, want_write);
                    }
                    let team = &self.team;
                    let mut groups: HashMap<Gpid, Vec<(PageId, Seq)>> = HashMap::new();
                    for wn in unapplied {
                        let g = team.gpid(wn.pid);
                        groups.entry(g).or_default().push((page, wn.seq));
                    }
                    AccessPlan::NeedDiffs {
                        groups: groups.into_iter().collect(),
                    }
                } else if meta.owner == me && meta.pending.is_empty() {
                    // We are the directory owner of a page nobody has
                    // materialized yet — and nobody has written it
                    // either (no notices): conjure the zero page (the
                    // backing store of a fresh allocation). With
                    // notices present, the writer's copy is the truth
                    // and we must fetch like anyone else.
                    let buf = Arc::new(PageBuf::new(spp));
                    meta.data = Some(Arc::clone(&buf));
                    meta.state = PageState::Read;
                    // Exclusive until first served — but if we already
                    // lent zeros to someone, copies exist out there and
                    // our writes must be twinned and recorded.
                    meta.shared = meta.zero_lent;
                    drop(meta);
                    self.plan_access(page, want_write)
                } else {
                    // No copy: full fetch from the best-known holder.
                    let target = meta
                        .pending
                        .iter()
                        .max_by_key(|w| w.vcsum)
                        .map(|w| self.team.gpid(w.pid))
                        .unwrap_or(meta.owner);
                    AccessPlan::NeedFull { target }
                }
            }
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
        ptrace!(
            page,
            "[{:?}] install_page {} from {:?} applied={:?}",
            self.gpid,
            page,
            from,
            applied
        );
        let mut meta = self.pages.guard(page);
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
    }

    /// Apply fetched diffs (already collected from all creators) to a
    /// stale page, in causal (vcsum) order.
    pub fn apply_diffs(&mut self, page: PageId, mut batch: Vec<(Pid, Seq, Diff)>) {
        self.ensure_pages(page as usize + 1);
        // Attach vcsum sort keys from the pending write notices.
        let mut meta = self.pages.guard(page);
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
            ptrace!(
                page,
                "[{:?}] apply_diff {} from pid {} seq {} ({} words)",
                self.gpid,
                page,
                pid,
                seq,
                diff.words()
            );
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

    /// How many rotated fault windows stay live as prefetch candidates.
    /// A page's invalidating notices arrive a full *iteration* after
    /// the fault that recorded it (the writer region runs in between),
    /// and one iteration can rotate the window several times — e.g.
    /// NBF's fork → reduce-barrier ×2 → fork cadence is 4 rotations, so
    /// a candidate must survive at least that many to still be in the
    /// union when its page finally turns `Invalid`. Stale candidates
    /// cost nothing ([`Self::plan_prefetch`] skips valid pages), so err
    /// on the deep side; a page that truly stopped faulting ages out.
    const WINDOW_HISTORY: usize = 6;

    /// Record a fault for the prefetch window directly — the path for
    /// faults satisfied by a prefetch, which never reach
    /// [`Self::plan_access`] but are demand the next window must still
    /// predict.
    pub fn note_fault(&mut self, page: PageId) {
        if self.cfg.dataplane.prefetch > 0 && !self.fault_window.contains(&page) {
            self.fault_window.push(page);
        }
    }

    /// Rotate the per-release fault window and return the prefetch
    /// candidate set: the union of the last few windows, newest first,
    /// deduplicated. See `window_history` for why candidates must
    /// survive more than one rotation.
    pub fn rotate_fault_window(&mut self) -> Vec<PageId> {
        let window = std::mem::take(&mut self.fault_window);
        self.window_history.push_front(window);
        self.window_history.truncate(Self::WINDOW_HISTORY);
        let mut union: Vec<PageId> = Vec::new();
        for w in &self.window_history {
            for &p in w {
                if !union.contains(&p) {
                    union.push(p);
                }
            }
        }
        union
    }

    /// Derive, without mutating any page state, what a release-phase
    /// prefetch over `candidates` should request: at most `budget`
    /// pages, preferring the order they faulted last window. Pages
    /// already valid, pages we would serve ourselves, and pages whose
    /// fetch would chase a redirect from ourselves are skipped — the
    /// plan only covers requests a demand fault would also have made.
    pub fn plan_prefetch(&self, candidates: &[PageId], budget: usize) -> PrefetchPlan {
        let mut plan = PrefetchPlan::default();
        for &page in candidates {
            if plan.pages >= budget {
                break;
            }
            let Some(meta) = self.pages.get(page) else {
                continue;
            };
            if meta.state != PageState::Invalid {
                continue;
            }
            if meta.data.is_some() {
                let unapplied = meta.unapplied();
                if unapplied.is_empty()
                    || unapplied
                        .iter()
                        .any(|wn| self.team.gpid(wn.pid) == self.gpid)
                {
                    continue;
                }
                for wn in unapplied {
                    let creator = self.team.gpid(wn.pid);
                    match plan.diffs.iter_mut().find(|(g, _)| *g == creator) {
                        Some((_, wants)) => wants.push((page, wn.seq)),
                        None => plan.diffs.push((creator, vec![(page, wn.seq)])),
                    }
                }
                plan.pages += 1;
            } else if !(meta.owner == self.gpid && meta.pending.is_empty()) {
                let target = meta
                    .pending
                    .iter()
                    .max_by_key(|w| w.vcsum)
                    .map(|w| self.team.gpid(w.pid))
                    .unwrap_or(meta.owner);
                if target != self.gpid {
                    plan.fulls.push((page, target));
                    plan.pages += 1;
                }
            }
        }
        plan
    }

    /// Select up to `budget` wire bytes of our own hottest diffs to
    /// piggyback on an outgoing `Fork`/`BarrierRelease`. Per page only
    /// the newest diff rides (receivers lacking more than one of our
    /// intervals fall back to demand fetch — see
    /// [`Self::apply_piggyback`]); pages rank by diff-serve heat, ties
    /// by page id, so the selection is deterministic.
    pub fn piggyback_diffs(&self, budget: usize) -> Vec<(PageId, Seq, Diff)> {
        if budget == 0 || self.diffs.is_empty() {
            return Vec::new();
        }
        let mut newest: HashMap<PageId, Seq> = HashMap::new();
        for k in self.diffs.keys() {
            let e = newest.entry(k.page).or_insert(k.seq);
            if k.seq > *e {
                *e = k.seq;
            }
        }
        let mut ranked: Vec<(PageId, Seq)> = newest.into_iter().collect();
        ranked.sort_by_key(|(page, _)| {
            (
                std::cmp::Reverse(self.diff_heat.get(page).copied().unwrap_or(0)),
                *page,
            )
        });
        let mut out = Vec::new();
        let mut bytes = 0usize;
        for (page, seq) in ranked {
            let d = &self.diffs[&DiffKey { page, seq }];
            let wb = d.wire_bytes();
            if bytes + wb > budget {
                continue; // a smaller diff may still fit
            }
            bytes += wb;
            out.push((page, seq, d.as_ref().clone()));
        }
        out
    }

    /// Apply diffs piggybacked on a received `Fork`/`BarrierRelease`
    /// (created by team rank `from` — the collective's root). Guarded:
    /// a page's entries apply only when we hold a stale copy whose
    /// *entire* unapplied-notice set is covered by the offer — partial
    /// application would replay the sender's intervals out of causal
    /// order once the demand path fetched the rest. Unusable entries
    /// are dropped (the demand path still works). Apply the message's
    /// records *before* calling this. Returns the pages applied.
    pub fn apply_piggyback(&mut self, from: Pid, entries: &[(PageId, Seq, Diff)]) -> usize {
        if entries.is_empty() {
            return 0;
        }
        let mut by_page: Vec<(PageId, Vec<(Seq, &Diff)>)> = Vec::new();
        for (page, seq, d) in entries {
            match by_page.iter_mut().find(|(p, _)| p == page) {
                Some((_, offers)) => offers.push((*seq, d)),
                None => by_page.push((*page, vec![(*seq, d)])),
            }
        }
        let mut applied_pages = 0;
        for (page, offers) in by_page {
            let batch: Vec<(Pid, Seq, Diff)> = {
                let Some(meta) = self.pages.get(page) else {
                    continue;
                };
                if meta.data.is_none() {
                    continue;
                }
                let unapplied = meta.unapplied();
                if unapplied.is_empty()
                    || !unapplied
                        .iter()
                        .all(|wn| wn.pid == from && offers.iter().any(|(s, _)| *s == wn.seq))
                {
                    continue;
                }
                unapplied
                    .iter()
                    .map(|wn| {
                        let d = offers
                            .iter()
                            .find(|(s, _)| *s == wn.seq)
                            .expect("coverage checked above");
                        (from, wn.seq, d.1.clone())
                    })
                    .collect()
            };
            self.apply_diffs(page, batch);
            applied_pages += 1;
        }
        applied_pages
    }

    // ------------------------------------------------------------------
    // Interval management
    // ------------------------------------------------------------------

    /// Lazy mode: turn the pending twin of `page` (if any) into a diff.
    /// Correct because the page has been read-only since its interval
    /// closed, so `data` still equals the close-time contents.
    pub fn flush_pending_twin(&mut self, page: PageId) {
        if !self.cfg.lazy_diffs {
            return;
        }
        if let Some((seq, twin)) = self.pending_twins.remove(&page) {
            let diff = {
                let meta = self.pages.guard(page);
                let data = meta.data.as_ref().expect("pending twin implies data");
                Diff::create(&twin, data, 0)
            };
            self.consistency_bytes = self.consistency_bytes.saturating_sub(self.cfg.page_size);
            self.consistency_bytes += diff.wire_bytes();
            self.diffs.insert(DiffKey { page, seq }, Arc::new(diff));
        }
    }

    /// Close the open interval: turn twins into diffs (or pending
    /// twins in lazy mode), emit the interval record, advance the
    /// clock. Returns the record if any page was written.
    pub fn close_interval(&mut self) -> Option<Record> {
        if self.pages.dirty_count() == 0 {
            return None;
        }
        let seq = self.open_seq();
        let me = self.my_pid;
        let lazy = self.cfg.lazy_diffs;
        // The write set lives in the page-table shards (enrolled under
        // the shard lock at fault time); take it back in one sweep.
        let dirty = self.pages.drain_dirty();
        let mut rec_pages = Vec::with_capacity(dirty.len());
        for page in dirty {
            let mut meta = self.pages.guard(page);
            meta.dirty = false;
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
                    if lazy {
                        self.pending_twins.insert(page, (seq, twin));
                        // `applied` is raised only for *recorded* writes;
                        // unrecorded ones must never shadow a later record
                        // reusing the same sequence number.
                        meta.applied.raise(me, seq);
                        rec_pages.push(page);
                    } else {
                        let data = meta.data.as_ref().expect("twinned page has data");
                        let diff = Diff::create(&twin, data, 0);
                        ptrace!(
                            page,
                            "[{:?}] close_interval page {} seq {} diff_words={}",
                            self.gpid,
                            page,
                            seq,
                            diff.words()
                        );
                        if diff.is_empty() {
                            continue; // spurious write fault, nothing changed
                        }
                        self.consistency_bytes += diff.wire_bytes();
                        self.diffs.insert(DiffKey { page, seq }, Arc::new(diff));
                        meta.applied.raise(me, seq);
                        rec_pages.push(page);
                    }
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
        Some(rec)
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
                let mut meta = self.pages.guard(page);
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

    /// Serve a full-page request.
    pub fn serve_page(&mut self, page: PageId) -> crate::msg::Msg {
        self.ensure_pages(page as usize + 1);
        let open_seq = self.open_seq();
        let me_pid = self.my_pid;
        let mut meta = self.pages.guard(page);
        ptrace!(
            page,
            "[{:?}] serve_page {} state={:?} applied={:?}",
            self.gpid,
            page,
            meta.state,
            meta.applied
        );
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
                    }
                } else {
                    crate::msg::Msg::PageRep {
                        applied: vec![],
                        words: vec![],
                        redirect: Some(meta.owner),
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
                        meta.mark_dirty();
                        // `applied` holds closed knowledge only; the open
                        // interval's diff will carry post-snapshot writes.
                        debug_assert!(meta.applied.get(me_pid) < open_seq);
                        return crate::msg::Msg::PageRep {
                            applied: meta.applied.iter_nonzero().collect(),
                            words: snap,
                            redirect: None,
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
                }
            }
        }
    }

    /// Serve a diff request for diffs we created.
    pub fn serve_diffs(&mut self, wants: &[(PageId, Seq)]) -> crate::msg::Msg {
        let mut out = Vec::with_capacity(wants.len());
        for &(page, seq) in wants {
            *self.diff_heat.entry(page).or_insert(0) += 1;
            let key = DiffKey { page, seq };
            if !self.diffs.contains_key(&key) {
                // Lazy mode: materialize on demand.
                if self
                    .pending_twins
                    .get(&page)
                    .map(|(s, _)| *s == seq)
                    .unwrap_or(false)
                {
                    self.flush_pending_twin(page);
                }
            }
            match self.diffs.get(&key) {
                Some(d) => out.push((page, seq, d.as_ref().clone())),
                None => panic!(
                    "{:?} asked for diff (page {page}, seq {seq}) we don't have",
                    self.gpid
                ),
            }
        }
        crate::msg::Msg::DiffRep { diffs: out }
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

    /// Handle a release at the manager; may grant to the next waiter.
    pub fn lock_release(&mut self, lock: u32) -> Option<LockGrant> {
        let mgr = self.locks.entry(lock).or_default();
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
        let mut out = Vec::new();
        self.pages.for_each(|page, m| {
            if m.data.is_some() {
                out.push(PageApplied {
                    page,
                    applied: m.applied.iter_nonzero().collect(),
                });
            }
        });
        out
    }

    /// Install GC fetch instructions: post the missing write notices so
    /// the ordinary fault path can complete the page.
    pub fn gc_prepare_fetch(&mut self, wants: &[(PageId, Vec<Wn>)]) {
        for (page, wns) in wants {
            self.ensure_pages(*page as usize + 1);
            let mut meta = self.pages.guard(*page);
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
        // The rewrite below passes through inconsistent intermediate
        // states; hold the service fast path down until it completes
        // (the guard borrows a local clone so `&mut self` stays free).
        let table = Arc::clone(&self.pages);
        let _frozen = table.freeze();
        self.ensure_pages(dir.len());
        for &p in drop_pages {
            self.pages.guard(p).data = None;
        }
        let nprocs = team.members.len();
        self.pages.for_each(|i, meta| {
            crate::table::reset_meta(meta, nprocs, dir.get(i as usize).copied());
        });
        self.pages.set_epoch(new_epoch);
        self.diffs.clear();
        self.pending_twins.clear();
        self.consistency_bytes = 0;
        self.records.clear();
        self.unsent.clear();
        // Shard dirty lists too — `reset_meta` above already dropped
        // the per-page flags.
        let _ = self.pages.drain_dirty();
        self.locks.clear();
        self.vc = Vc::new(team.members.len());
        self.team = team;
        self.my_pid = my_pid;
        // Fault-window candidates reference per-epoch protocol state
        // (pending notices, creators by pid) that the commit just
        // wiped; the heat ranking only orders pages, so it survives.
        self.fault_window.clear();
        self.window_history.clear();
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
        let mut out = Vec::new();
        self.pages.for_each(|page, m| {
            if let Some(d) = &m.data {
                out.push((page, d.snapshot()));
            }
        });
        out
    }

    /// Import pages wholesale (recovery: the master owns everything).
    pub fn import_pages(&mut self, pages: &[(PageId, Vec<u64>)]) {
        for (p, words) in pages {
            self.ensure_pages(*p as usize + 1);
            let mut meta = self.pages.guard(*p);
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
        assert_eq!(c.pages.guard(0).state, PageState::Read);
        assert!(!c.pages.guard(0).shared, "untouched page stays exclusive");
    }

    #[test]
    fn exclusive_write_skips_twin() {
        let mut c = core();
        let AccessPlan::Ready { buf, writable } = c.plan_access(0, true) else {
            panic!("expected Ready");
        };
        assert!(writable);
        buf.store(0, 7);
        assert!(
            c.pages.guard(0).twin.is_none(),
            "exclusive pages never twin"
        );
        assert!(c.pages.guard(0).dirty);
        // Closing the interval emits no record for exclusive pages.
        assert!(c.close_interval().is_none());
    }

    #[test]
    fn shared_write_twins_and_diffs() {
        let mut c = core();
        two_proc_team(&mut c, 0);
        // Materialize, then pretend proc 2 fetched it.
        let _ = c.plan_access(0, false);
        let rep = c.serve_page(0);
        assert!(matches!(rep, Msg::PageRep { redirect: None, .. }));
        assert!(c.pages.guard(0).shared);
        // Now a write must twin.
        let AccessPlan::Ready { buf, .. } = c.plan_access(0, true) else {
            panic!()
        };
        buf.store(3, 99);
        assert!(c.pages.guard(0).twin.is_some());
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
        let rep = c.serve_page(0);
        let Msg::PageRep {
            words,
            applied,
            redirect,
        } = rep
        else {
            panic!()
        };
        assert!(redirect.is_none());
        assert_eq!(words[1], 5);
        assert!(applied.is_empty(), "no closed intervals yet");
        assert!(c.pages.guard(0).twin.is_some(), "snapshot became the twin");
        assert!(c.pages.guard(0).shared);
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
        let _ = c.serve_page(0); // shared now
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
        c.pages.guard(0).shared = true;
        let mut vc = Vc::new(2);
        vc.set(1, 1);
        let rec = Record {
            pid: 1,
            seq: 1,
            vc,
            pages: vec![0],
        };
        c.apply_records(&[rec]);
        assert_eq!(c.pages.guard(0).state, PageState::Invalid);
        assert!(
            c.pages.guard(0).data.is_some(),
            "stale copy kept for diffing"
        );
        assert_eq!(c.vc.get(1), 1);
        // Planning access now asks for diffs from gpid 2.
        match c.plan_access(0, false) {
            AccessPlan::NeedDiffs { groups } => {
                assert_eq!(groups.len(), 1);
                assert_eq!(groups[0].0, Gpid(2));
                assert_eq!(groups[0].1, vec![(0, 1)]);
            }
            other => panic!("expected NeedDiffs, got {other:?}"),
        }
    }

    #[test]
    fn apply_diffs_repairs_stale_copy() {
        let mut c = core();
        two_proc_team(&mut c, 0);
        let _ = c.plan_access(0, false);
        c.pages.guard(0).shared = true;
        let mut vc = Vc::new(2);
        vc.set(1, 1);
        c.apply_records(&[Record {
            pid: 1,
            seq: 1,
            vc,
            pages: vec![0],
        }]);
        let diff = Diff::create_from_words(&[0; 8], &[0, 42, 0, 0, 0, 0, 0, 0], 0);
        c.apply_diffs(0, vec![(1, 1, diff)]);
        assert_eq!(c.pages.guard(0).state, PageState::Read);
        assert_eq!(c.pages.guard(0).data.as_ref().unwrap().load(1), 42);
        assert_eq!(c.pages.guard(0).applied.get(1), 1);
        assert!(c.pages.guard(0).pending.is_empty());
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
        assert_eq!(
            c.pages.guard(3).state,
            PageState::Invalid,
            "seq 2 still missing"
        );
        match c.plan_access(3, false) {
            AccessPlan::NeedDiffs { groups } => {
                assert_eq!(groups[0].1, vec![(3, 2)]);
            }
            other => panic!("expected NeedDiffs, got {other:?}"),
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
            AccessPlan::NeedFull { target } => assert_eq!(target, Gpid(1)),
            other => panic!("expected NeedFull, got {other:?}"),
        }
    }

    #[test]
    fn lazy_mode_materializes_diff_on_demand() {
        let mut cfg = DsmConfig {
            page_size: 64,
            ..DsmConfig::test_small()
        };
        cfg.lazy_diffs = true;
        let mut c = ProcCore::new(cfg, Gpid(1), DsmStats::new_shared(), Gpid(1));
        two_proc_team(&mut c, 0);
        let _ = c.plan_access(0, false);
        let _ = c.serve_page(0); // make shared
        let AccessPlan::Ready { buf, .. } = c.plan_access(0, true) else {
            panic!()
        };
        buf.store(4, 11);
        let rec = c.close_interval().unwrap();
        assert_eq!(rec.pages, vec![0]);
        assert!(c.diffs.is_empty(), "lazy: no diff yet");
        assert!(c.pending_twins.contains_key(&0));
        // A diff request forces materialization.
        let Msg::DiffRep { diffs } = c.serve_diffs(&[(0, 1)]) else {
            panic!()
        };
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].2.words(), 1);
        assert!(c.pending_twins.is_empty());
    }

    #[test]
    fn lazy_mode_flushes_before_rewrite() {
        let mut cfg = DsmConfig {
            page_size: 64,
            ..DsmConfig::test_small()
        };
        cfg.lazy_diffs = true;
        let mut c = ProcCore::new(cfg, Gpid(1), DsmStats::new_shared(), Gpid(1));
        two_proc_team(&mut c, 0);
        let _ = c.plan_access(0, false);
        let _ = c.serve_page(0);
        let AccessPlan::Ready { buf, .. } = c.plan_access(0, true) else {
            panic!()
        };
        buf.store(4, 11);
        c.close_interval().unwrap();
        // Second interval writes the page again: pending twin must flush first.
        let AccessPlan::Ready { buf, .. } = c.plan_access(0, true) else {
            panic!()
        };
        buf.store(5, 12);
        assert!(c.diffs.contains_key(&DiffKey { page: 0, seq: 1 }));
        c.close_interval().unwrap();
        let Msg::DiffRep { diffs } = c.serve_diffs(&[(0, 1), (0, 2)]) else {
            panic!()
        };
        assert_eq!(diffs.len(), 2);
    }

    #[test]
    fn serve_page_without_copy_redirects() {
        let mut c = core();
        c.gpid = Gpid(2);
        c.default_owner = Gpid(1);
        c.ensure_pages(1);
        let Msg::PageRep {
            redirect, words, ..
        } = c.serve_page(0)
        else {
            panic!()
        };
        assert_eq!(redirect, Some(Gpid(1)));
        assert!(words.is_empty());
    }

    #[test]
    fn lock_manager_grant_queue_release() {
        let mut c = core();
        let (tx1, rx1) = nowmp_util::oneshot(&nowmp_util::Clock::real());
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
        let (tx2, rx2) = nowmp_util::oneshot(&nowmp_util::Clock::real());
        assert!(c
            .lock_acquire(7, Gpid(11), LockWaiter::Local(tx2))
            .is_none());
        // Release grants to the waiter with prev = first holder.
        match c.lock_release(7) {
            Some(LockGrant::Local(s, prev)) => {
                assert_eq!(prev, Some(Gpid(10)));
                s.send(prev).unwrap();
            }
            other => panic!("expected local grant, got {:?}", other.is_some()),
        }
        assert_eq!(rx2.recv().unwrap(), Some(Gpid(10)));
        assert!(c.lock_release(7).is_none(), "empty queue");
    }

    #[test]
    fn gc_commit_resets_everything() {
        let mut c = core();
        two_proc_team(&mut c, 0);
        let _ = c.plan_access(0, false);
        let _ = c.serve_page(0);
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
        assert_eq!(c.pages.guard(0).state, PageState::Read);
        assert!(c.pages.guard(0).twin.is_none());
        assert_eq!(c.pages.guard(0).applied.sum(), 0);
    }

    #[test]
    fn gc_commit_drops_incomplete() {
        let mut c = core();
        two_proc_team(&mut c, 0);
        let _ = c.plan_access(0, false);
        let new_team = Team::new(1, vec![Gpid(1), Gpid(2)]);
        c.gc_commit(1, new_team, 0, &[Gpid(2)], &[0]);
        assert!(c.pages.guard(0).data.is_none());
        assert_eq!(c.pages.guard(0).state, PageState::Invalid);
        assert_eq!(c.pages.guard(0).owner, Gpid(2));
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

    #[test]
    fn consistency_bytes_trigger_gc() {
        let mut c = core();
        c.cfg.gc_diff_threshold = 10;
        assert!(!c.gc_due());
        c.consistency_bytes = 11;
        assert!(c.gc_due());
    }
}
