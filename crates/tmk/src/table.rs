//! The sharded page table — fine-grained locking for per-page state.
//!
//! `ProcCore` keeps its page metadata in a [`PageTable`]: a fixed set
//! of [`Mutex`] shards, each owning an interleaved family of 8-page
//! ranges, reachable through RAII [`PageGuard`]s. Inside a process
//! every shard is taken under the core mutex, which serializes the
//! application thread's faults and the service thread's requests; the
//! shards stay because the table is also a structure of its own, driven
//! from several threads at once by the `tmk.pagetable_*` harness lanes
//! and `hotpath`'s contention and interval lanes, where touching
//! distinct pages in distinct shards never contends.
//!
//! ## Layout
//!
//! Pages map to shards in interleaved ranges of [`RANGE`] pages:
//! shard(p) = (p / RANGE) % [`SHARDS`]. Neighbouring pages — which
//! worksharing loops touch together — share a shard (one lock
//! acquisition covers a block scan), while blocks [`RANGE`] apart land
//! on different locks, so threads working disjoint regions of the
//! address space take disjoint locks.
//!
//! ## Lock discipline
//!
//! * Lock order is **core mutex → shard**; never acquire the core
//!   mutex (or block on anything) while holding a [`PageGuard`].
//! * Never hold two [`PageGuard`]s at once — the protocol only ever
//!   needs one page's state per transition, and a shard `Mutex` is
//!   not reentrant.

use crate::page::PageMeta;
use crate::types::{PageId, Vc};
use nowmp_net::Gpid;
use parking_lot::{Mutex, MutexGuard};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Pages per contiguous range; ranges are dealt round-robin to shards.
pub const RANGE: usize = 8;
/// Number of independent shard locks.
pub const SHARDS: usize = 16;

/// One shard: a dense slice of page metadata plus the shard-local
/// slice of the open interval's dirty list. Keeping the dirty list
/// *in* the shard means enrolling a freshly-written page is covered
/// by the shard lock the write fault already holds — the interval
/// bookkeeping needs no core-mutex-protected side list.
struct Shard {
    /// Metadata for pages `(p / RANGE) % SHARDS == s`, in range order.
    pages: Vec<PageMeta>,
    /// This shard's pages written in the open interval (insertion
    /// order; deduplicated via [`PageMeta::dirty`]).
    dirty: Vec<PageId>,
}

/// Per-page metadata behind interleaved-range `Mutex` shards.
pub struct PageTable {
    /// Shard `s` owns pages `p` with `(p / RANGE) % SHARDS == s`,
    /// stored densely in range order.
    shards: Vec<Mutex<Shard>>,
    /// Total pages enrolled in shard dirty lists — lets
    /// `close_interval` skip the 16-shard drain sweep when the
    /// interval wrote nothing (the common case for sync-only epochs).
    ndirty: AtomicUsize,
    /// Number of pages the table covers (monotone; grows under `grow`).
    len: AtomicUsize,
    /// Serializes [`Self::ensure`] so concurrent growers cannot
    /// interleave their appends. Lock order: `grow` → shard.
    grow: Mutex<()>,
}

impl PageTable {
    /// An empty table.
    pub fn new() -> Self {
        PageTable {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        pages: Vec::new(),
                        dirty: Vec::new(),
                    })
                })
                .collect(),
            ndirty: AtomicUsize::new(0),
            len: AtomicUsize::new(0),
            grow: Mutex::new(()),
        }
    }

    /// Shard index and dense in-shard index of `page`.
    #[inline]
    fn locate(page: usize) -> (usize, usize) {
        let range = page / RANGE;
        (range % SHARDS, (range / SHARDS) * RANGE + page % RANGE)
    }

    /// Number of pages covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// True when the table covers no pages.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Grow to cover `n` pages, filling new slots with
    /// `PageMeta::new(owner)`. Cheap when already large enough.
    pub fn ensure(&self, n: usize, owner: Gpid) {
        if self.len() >= n {
            return;
        }
        let _g = self.grow.lock();
        let cur = self.len.load(Ordering::Acquire);
        for p in cur..n {
            let (s, idx) = Self::locate(p);
            let mut shard = self.shards[s].lock();
            debug_assert_eq!(shard.pages.len(), idx, "dense shard fill out of order");
            shard.pages.push(PageMeta::new(owner));
        }
        self.len.store(n.max(cur), Ordering::Release);
    }

    /// Lock the shard owning `page` and return exclusive access to its
    /// metadata. Panics when `page` is beyond [`Self::len`].
    #[inline]
    pub fn guard(&self, page: PageId) -> PageGuard<'_> {
        let p = page as usize;
        assert!(p < self.len(), "page {page} beyond table ({})", self.len());
        let (s, idx) = Self::locate(p);
        PageGuard {
            shard: self.shards[s].lock(),
            idx,
            page,
            ndirty: &self.ndirty,
        }
    }

    /// Like [`Self::guard`], but `None` for pages beyond the table.
    #[inline]
    pub fn get(&self, page: PageId) -> Option<PageGuard<'_>> {
        if (page as usize) < self.len() {
            Some(self.guard(page))
        } else {
            None
        }
    }

    /// Visit every page in ascending order, one shard acquisition per
    /// contiguous range. `f` must not touch the table (the shard lock
    /// is held across the call).
    pub fn for_each(&self, mut f: impl FnMut(PageId, &mut PageMeta)) {
        let n = self.len();
        let mut p = 0usize;
        while p < n {
            let end = (p + RANGE - p % RANGE).min(n);
            let (s, idx) = Self::locate(p);
            let mut shard = self.shards[s].lock();
            for q in p..end {
                f(q as PageId, &mut shard.pages[idx + (q - p)]);
            }
            p = end;
        }
    }

    /// Pages currently enrolled in shard dirty lists (the open
    /// interval's write set). Lock-free read.
    #[inline]
    pub fn dirty_count(&self) -> usize {
        self.ndirty.load(Ordering::Acquire)
    }

    /// Take the open interval's dirty list: every shard's slice,
    /// concatenated in shard order. Does *not* clear the per-page
    /// [`PageMeta::dirty`] flags — the caller resets each while doing
    /// its per-page close work (twin → diff), exactly one guard per
    /// page. Callers must hold the core mutex (all dirty-list writers
    /// do), so the count and the lists cannot race the drain.
    pub fn drain_dirty(&self) -> Vec<PageId> {
        if self.dirty_count() == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        for s in &self.shards {
            out.append(&mut s.lock().dirty);
        }
        self.ndirty.store(0, Ordering::Release);
        out
    }

    /// Count pages satisfying `pred` (diagnostics, GC sizing).
    pub fn count(&self, pred: impl Fn(&PageMeta) -> bool) -> usize {
        let mut n = 0;
        self.for_each(|_, m| {
            if pred(m) {
                n += 1;
            }
        });
        n
    }
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

/// Exclusive access to one page's metadata; releases its shard on drop.
pub struct PageGuard<'a> {
    shard: MutexGuard<'a, Shard>,
    idx: usize,
    page: PageId,
    ndirty: &'a AtomicUsize,
}

impl PageGuard<'_> {
    /// Enroll this page in the open interval's write set: flip
    /// [`PageMeta::dirty`] and append to the owning shard's dirty
    /// list. Idempotent; covered entirely by the shard lock this
    /// guard already holds, so write faults pay no extra
    /// synchronization for the interval bookkeeping.
    pub fn mark_dirty(&mut self) {
        if !self.shard.pages[self.idx].dirty {
            self.shard.pages[self.idx].dirty = true;
            let page = self.page;
            self.shard.dirty.push(page);
            self.ndirty.fetch_add(1, Ordering::AcqRel);
        }
    }
}

impl Deref for PageGuard<'_> {
    type Target = PageMeta;
    #[inline]
    fn deref(&self) -> &PageMeta {
        &self.shard.pages[self.idx]
    }
}

impl DerefMut for PageGuard<'_> {
    #[inline]
    fn deref_mut(&mut self) -> &mut PageMeta {
        &mut self.shard.pages[self.idx]
    }
}

/// Reset helper for GC / adaptation commits: wipe one page's
/// consistency metadata for a new epoch of `nprocs` processes,
/// optionally installing a new directory owner. Data (if any) is kept
/// and the state re-derived from its presence.
pub fn reset_meta(m: &mut PageMeta, nprocs: usize, owner: Option<Gpid>) {
    m.twin = None;
    m.pending.clear();
    m.dirty = false;
    m.applied = Vc::new(nprocs);
    m.shared = true;
    m.zero_lent = false;
    m.lease = false;
    if let Some(o) = owner {
        m.owner = o;
    }
    m.state = if m.data.is_some() {
        crate::page::PageState::Read
    } else {
        crate::page::PageState::Invalid
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn interleaved_mapping_is_dense_per_shard() {
        // Pages 0..RANGE*SHARDS*3 must fill every shard densely.
        let t = PageTable::new();
        t.ensure(RANGE * SHARDS * 3, Gpid(1));
        assert_eq!(t.len(), RANGE * SHARDS * 3);
        let mut seen = 0usize;
        t.for_each(|p, m| {
            assert_eq!(p as usize, seen, "ascending visit order");
            assert_eq!(m.owner, Gpid(1));
            seen += 1;
        });
        assert_eq!(seen, t.len());
    }

    #[test]
    fn neighbours_share_a_shard_distant_blocks_do_not() {
        let (s0, _) = PageTable::locate(0);
        let (s7, _) = PageTable::locate(RANGE - 1);
        let (s8, _) = PageTable::locate(RANGE);
        assert_eq!(s0, s7, "a block shares one lock");
        assert_ne!(s0, s8, "the next block uses another");
    }

    #[test]
    fn guard_mutations_stick() {
        let t = PageTable::new();
        t.ensure(4, Gpid(1));
        {
            let mut g = t.guard(3);
            g.shared = true;
            g.owner = Gpid(9);
        }
        let g = t.guard(3);
        assert!(g.shared);
        assert_eq!(g.owner, Gpid(9));
        assert!(t.get(4).is_none());
    }

    #[test]
    fn ensure_races_produce_exactly_n_pages() {
        let t = Arc::new(PageTable::new());
        let handles: Vec<_> = (0..4)
            .map(|k| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for n in 1..=200usize {
                        t.ensure(n * (k + 1), Gpid(k as u32));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 800);
        let mut count = 0;
        t.for_each(|_, _| count += 1);
        assert_eq!(count, 800, "every slot reachable exactly once");
    }

    #[test]
    fn dirty_enrollment_is_shard_local_and_drains_once() {
        let t = PageTable::new();
        t.ensure(RANGE * SHARDS, Gpid(1));
        // Mark pages across three different shards; double-marking one
        // must not enroll it twice.
        for &p in &[0u32, RANGE as u32, (2 * RANGE) as u32, 0] {
            t.guard(p).mark_dirty();
        }
        assert_eq!(t.dirty_count(), 3);
        assert!(t.guard(0).dirty, "per-page flag set");
        let mut drained = t.drain_dirty();
        drained.sort_unstable();
        assert_eq!(drained, vec![0, RANGE as u32, (2 * RANGE) as u32]);
        assert_eq!(t.dirty_count(), 0);
        assert!(t.drain_dirty().is_empty(), "second drain is empty");
        // The flag survives the drain — the interval-close caller
        // resets it per page while creating diffs.
        assert!(t.guard(0).dirty);
    }

    #[test]
    fn concurrent_enrollment_in_one_shard_counts_each_page_once() {
        // Four threads enroll overlapping windows of one shard's pages,
        // each window many times over, for several intervals: every
        // enrollment races others on the same shard lock, and the
        // count and the drained list must still see each page once.
        let t = PageTable::new();
        t.ensure(RANGE * SHARDS * 3, Gpid(1));
        let pages: Vec<PageId> = (0..t.len() as PageId)
            .filter(|&p| PageTable::locate(p as usize).0 == 0)
            .collect();
        assert_eq!(pages.len(), 3 * RANGE);
        for _interval in 0..20 {
            std::thread::scope(|s| {
                for k in 0..4 {
                    let (t, window) = (&t, &pages[k * RANGE / 2..k * RANGE / 2 + 12]);
                    s.spawn(move || {
                        for _ in 0..100 {
                            for &p in window {
                                t.guard(p).mark_dirty();
                            }
                        }
                    });
                }
            });
            assert_eq!(t.dirty_count(), pages.len());
            let mut drained = t.drain_dirty();
            drained.sort_unstable();
            assert_eq!(drained, pages, "each page drained exactly once");
            t.for_each(|_, m| m.dirty = false);
        }
    }

    #[test]
    fn disjoint_shards_do_not_contend() {
        // Hold page 0's shard; page RANGE (next block, other shard)
        // must stay immediately lockable.
        let t = PageTable::new();
        t.ensure(RANGE * 2, Gpid(1));
        let _held = t.guard(0);
        let g = t.guard(RANGE as PageId);
        assert_eq!(g.owner, Gpid(1));
    }
}
