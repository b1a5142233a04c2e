//! The page table: per-page metadata and the open interval's write set.
//!
//! [`Pages`] is plain data, owned by [`crate::core::ProcCore`] and
//! reached through `&` / `&mut` borrows: the core mutex, which the
//! service thread serves every peer request under and the application
//! thread's faults and closes take too, is the one lock that covers
//! every page (docs/HOTPATH.md §2).
//!
//! [`PageTable`] is the same table behind one [`Mutex`], one page at a
//! time through a [`PageGuard`]. No process uses it: it is what the
//! benchmark harness's `tmk.pagetable_*` lanes time from two threads
//! (ROADMAP, "Blocked on `benchmark/`").

use crate::page::PageMeta;
use crate::types::PageId;
use nowmp_net::Gpid;
use parking_lot::{Mutex, MutexGuard};
use std::ops::{Deref, DerefMut, Index, IndexMut};

/// Per-page metadata plus the open interval's write set.
#[derive(Default)]
pub struct Pages {
    /// Page `p`'s metadata at index `p`.
    metas: Vec<PageMeta>,
    /// Pages written in the open interval, in enrollment order, each
    /// once ([`PageMeta::dirty`] deduplicates).
    dirty: Vec<PageId>,
}

impl Pages {
    /// Number of pages covered.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// True when the table covers no pages.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Grow to cover `n` pages, filling new slots with
    /// `PageMeta::new(owner)`.
    pub fn ensure(&mut self, n: usize, owner: Gpid) {
        if self.metas.len() < n {
            self.metas.resize_with(n, || PageMeta::new(owner));
        }
    }

    /// `page`'s metadata, or `None` beyond the table.
    pub fn get(&self, page: PageId) -> Option<&PageMeta> {
        self.metas.get(page as usize)
    }

    /// `page`'s metadata to change, or `None` beyond the table.
    pub fn get_mut(&mut self, page: PageId) -> Option<&mut PageMeta> {
        self.metas.get_mut(page as usize)
    }

    /// Every page in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, &PageMeta)> {
        (0..).zip(&self.metas)
    }

    /// Every page in ascending order, to change.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (PageId, &mut PageMeta)> {
        (0..).zip(&mut self.metas)
    }

    /// Enroll `page` in the open interval's write set: set its
    /// [`PageMeta::dirty`] flag and, the first time, list it.
    pub fn mark_dirty(&mut self, page: PageId) {
        let meta = &mut self[page];
        if !meta.dirty {
            meta.dirty = true;
            self.dirty.push(page);
        }
    }

    /// Take the open interval's write set, each page once, and clear
    /// the pages' [`PageMeta::dirty`] flags.
    pub fn drain_dirty(&mut self) -> Vec<PageId> {
        let dirty = std::mem::take(&mut self.dirty);
        for &page in &dirty {
            self[page].dirty = false;
        }
        dirty
    }
}

impl Index<PageId> for Pages {
    type Output = PageMeta;

    /// Panics when `page` is beyond the table.
    fn index(&self, page: PageId) -> &PageMeta {
        &self.metas[page as usize]
    }
}

impl IndexMut<PageId> for Pages {
    fn index_mut(&mut self, page: PageId) -> &mut PageMeta {
        &mut self.metas[page as usize]
    }
}

/// [`Pages`] behind one lock, shared between threads.
#[derive(Default)]
pub struct PageTable(Mutex<Pages>);

impl PageTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow to cover `n` pages ([`Pages::ensure`]).
    pub fn ensure(&self, n: usize, owner: Gpid) {
        self.0.lock().ensure(n, owner);
    }

    /// Lock the table and return exclusive access to `page`'s metadata.
    /// Dereferencing the guard panics when `page` is beyond the table.
    pub fn guard(&self, page: PageId) -> PageGuard<'_> {
        PageGuard {
            table: self.0.lock(),
            page,
        }
    }
}

/// Exclusive access to one page's metadata; releases the table on drop.
pub struct PageGuard<'a> {
    table: MutexGuard<'a, Pages>,
    page: PageId,
}

impl Deref for PageGuard<'_> {
    type Target = PageMeta;
    fn deref(&self) -> &PageMeta {
        &self.table[self.page]
    }
}

impl DerefMut for PageGuard<'_> {
    fn deref_mut(&mut self) -> &mut PageMeta {
        &mut self.table[self.page]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DsmConfig;
    use crate::core::{AccessPlan, ProcCore};
    use crate::stats::DsmStats;
    use crate::types::Team;
    use std::sync::Arc;

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
        drop(g);
        assert!(t.0.lock().get(4).is_none());
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
        let pages = t.0.lock();
        assert_eq!(pages.len(), 800);
        let visited: Vec<PageId> = pages.iter().map(|(p, _)| p).collect();
        assert_eq!(visited, (0..800).collect::<Vec<_>>(), "every slot once");
    }

    #[test]
    fn dirty_enrollment_drains_once() {
        let mut t = Pages::default();
        t.ensure(16, Gpid(1));
        // Marking a page twice must not enroll it twice.
        for p in [8, 0, 15, 8] {
            t.mark_dirty(p);
        }
        assert!(t[8].dirty, "per-page flag set");
        assert_eq!(t.drain_dirty(), vec![8, 0, 15]);
        assert!(!t[8].dirty, "the drain clears the flags");
        assert!(t.drain_dirty().is_empty(), "second drain is empty");
        t.mark_dirty(8);
        assert_eq!(t.drain_dirty(), vec![8], "a drained page enrolls again");

        // A page written before a commit and again after it is enrolled
        // once in the next close's record.
        let cfg = DsmConfig {
            page_size: 64,
            ..DsmConfig::test_small()
        };
        let mut c = ProcCore::new(cfg, Gpid(1), DsmStats::new_shared(), Gpid(1));
        let write = |c: &mut ProcCore, v| {
            let AccessPlan::Ready { buf, .. } = c.plan_access(0, true) else {
                panic!("the owner's page is at hand")
            };
            buf.store(0, v);
        };
        write(&mut c, 1);
        c.gc_commit(1, Team::new(1, vec![Gpid(1), Gpid(2)]), 0, &[Gpid(1)], &[]);
        write(&mut c, 2);
        let rec = c.close_interval().expect("the write after the commit");
        assert_eq!(rec.pages, vec![0]);
    }
}
