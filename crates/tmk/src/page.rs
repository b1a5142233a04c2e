//! Page storage and per-page protocol metadata.
//!
//! Page payloads are `AtomicU64` words accessed with `Relaxed` ordering
//! everywhere: the application thread reads/writes its elements while a
//! service thread may concurrently snapshot the same page to serve a
//! remote request (page-level false sharing is exactly what the
//! multiple-writer protocol is for). Using atomics for every word makes
//! that pattern well-defined in the Rust memory model; on x86-64 a
//! relaxed atomic load/store compiles to a plain `mov`, so the cost is
//! only the lost vectorization. Cross-thread ordering is provided by the
//! protocol's channels and mutexes, never by the data words themselves.

use crate::types::{Pid, Seq, Vc};
use nowmp_net::Gpid;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Payload of one page: fixed-size array of atomic 8-byte slots.
#[derive(Debug)]
pub struct PageBuf {
    words: Box<[AtomicU64]>,
}

impl PageBuf {
    /// Zero-filled page of `slots` words.
    pub fn new(slots: usize) -> Self {
        let mut v = Vec::with_capacity(slots);
        v.resize_with(slots, || AtomicU64::new(0));
        PageBuf {
            words: v.into_boxed_slice(),
        }
    }

    /// Page initialized from a word slice.
    pub fn from_words(words: &[u64]) -> Self {
        let v: Vec<AtomicU64> = words.iter().map(|&w| AtomicU64::new(w)).collect();
        PageBuf {
            words: v.into_boxed_slice(),
        }
    }

    /// Number of 8-byte slots.
    pub fn slots(&self) -> usize {
        self.words.len()
    }

    /// Relaxed load of slot `i`.
    #[inline]
    pub fn load(&self, i: usize) -> u64 {
        self.words[i].load(Ordering::Relaxed)
    }

    /// Relaxed store to slot `i`.
    #[inline]
    pub fn store(&self, i: usize, v: u64) {
        self.words[i].store(v, Ordering::Relaxed);
    }

    /// Word-atomic snapshot of the whole page.
    pub fn snapshot(&self) -> Vec<u64> {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .collect()
    }

    /// Overwrite the whole page from `words` (must match in length).
    pub fn overwrite(&self, words: &[u64]) {
        assert_eq!(words.len(), self.words.len(), "page size mismatch");
        for (slot, &w) in self.words.iter().zip(words) {
            slot.store(w, Ordering::Relaxed);
        }
    }

    /// Bulk read `dst.len()` slots starting at `offset`. One bounds
    /// check for the whole range; the body is a straight-line
    /// load/store stream the compiler unrolls.
    #[inline]
    pub fn read_range(&self, offset: usize, dst: &mut [u64]) {
        let src = &self.words[offset..offset + dst.len()];
        for (d, s) in dst.iter_mut().zip(src) {
            *d = s.load(Ordering::Relaxed);
        }
    }

    /// Bulk write `src` starting at `offset` (range-checked once, like
    /// [`PageBuf::read_range`]). `#[inline]` so per-run callers
    /// (diff apply) pay a store stream, not a call, per run.
    #[inline]
    pub fn write_range(&self, offset: usize, src: &[u64]) {
        let dst = &self.words[offset..offset + src.len()];
        for (d, &s) in dst.iter().zip(src) {
            d.store(s, Ordering::Relaxed);
        }
    }
}

/// Access state of a page at one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// No usable copy: either no data at all, or a stale copy awaiting
    /// diffs (pending write notices).
    Invalid,
    /// Up-to-date copy; writes must fault (to create a twin).
    Read,
    /// Writable: a twin exists (or the page is still exclusive).
    Write,
}

/// A pending write notice: process `pid`'s interval `seq` modified this
/// page; `vcsum` (the creating interval's vector-clock sum) orders diff
/// application along happens-before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wn {
    /// Creator pid (in the epoch the notice was created).
    pub pid: Pid,
    /// Creator's interval.
    pub seq: Seq,
    /// Vector-clock sum of the creating interval (causal sort key).
    pub vcsum: u64,
}

/// Per-page metadata at one process.
#[derive(Debug)]
pub struct PageMeta {
    /// Access state.
    pub state: PageState,
    /// Local copy, if any. `Invalid` with `Some(data)` is a *stale*
    /// copy that can be repaired with diffs.
    pub data: Option<Arc<PageBuf>>,
    /// Twin snapshot taken at the first write of the current interval.
    pub twin: Option<Vec<u64>>,
    /// Writes reflected in `data`, per pid.
    pub applied: Vc,
    /// Write notices received but not yet applied.
    pub pending: Vec<Wn>,
    /// Directory hint: who certainly has a usable copy.
    pub owner: Gpid,
    /// False until some other process obtained a copy; exclusive pages
    /// skip twinning entirely (TreadMarks' exclusivity optimization).
    pub shared: bool,
    /// Page was written during the currently open interval.
    pub dirty: bool,
    /// We served this never-materialized page as zeros without keeping
    /// a copy; a later local materialization must not be exclusive.
    pub zero_lent: bool,
}

impl PageMeta {
    /// Fresh metadata for an untouched page owned (initially) by `owner`.
    pub fn new(owner: Gpid) -> Self {
        PageMeta {
            state: PageState::Invalid,
            data: None,
            twin: None,
            applied: Vc::default(),
            pending: Vec::new(),
            owner,
            shared: false,
            dirty: false,
            zero_lent: false,
        }
    }

    /// Write notices still unapplied given the `applied` clock.
    pub fn unapplied(&self) -> Vec<Wn> {
        self.pending
            .iter()
            .copied()
            .filter(|w| w.seq > self.applied.get(w.pid))
            .collect()
    }

    /// Record a write notice (idempotent).
    pub fn push_wn(&mut self, wn: Wn) {
        if wn.seq <= self.applied.get(wn.pid) {
            return; // already reflected
        }
        if self
            .pending
            .iter()
            .any(|w| w.pid == wn.pid && w.seq == wn.seq)
        {
            return;
        }
        self.pending.push(wn);
    }

    /// Drop pending notices that `applied` now covers.
    pub fn prune_pending(&mut self) {
        let applied = &self.applied;
        self.pending.retain(|w| w.seq > applied.get(w.pid));
    }

    /// Wipe the consistency metadata for a new epoch of `nprocs`
    /// processes at a GC or adaptation commit, installing `owner` as the
    /// directory owner when given. The data (if any) is kept and the
    /// state re-derived from its presence.
    pub fn reset(&mut self, nprocs: usize, owner: Option<Gpid>) {
        let data = self.data.take();
        *self = PageMeta {
            state: if data.is_some() {
                PageState::Read
            } else {
                PageState::Invalid
            },
            data,
            applied: Vc::new(nprocs),
            shared: true,
            ..PageMeta::new(owner.unwrap_or(self.owner))
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pagebuf_zeroed_and_rw() {
        let p = PageBuf::new(8);
        assert_eq!(p.slots(), 8);
        assert!(p.snapshot().iter().all(|&w| w == 0));
        p.store(3, 42);
        assert_eq!(p.load(3), 42);
    }

    #[test]
    fn pagebuf_overwrite_and_ranges() {
        let p = PageBuf::new(4);
        p.overwrite(&[1, 2, 3, 4]);
        let mut dst = [0u64; 2];
        p.read_range(1, &mut dst);
        assert_eq!(dst, [2, 3]);
        p.write_range(2, &[9, 9]);
        assert_eq!(p.snapshot(), vec![1, 2, 9, 9]);
    }

    #[test]
    #[should_panic(expected = "page size mismatch")]
    fn overwrite_size_mismatch_panics() {
        PageBuf::new(4).overwrite(&[1, 2]);
    }

    #[test]
    fn snapshot_is_word_consistent_under_concurrent_writes() {
        // A service-thread snapshot racing an app-thread writer must
        // observe whole words only (no tearing). We can't prove
        // atomicity by testing, but we can hammer it: every observed
        // word must be one of the two legal values.
        let p = Arc::new(PageBuf::new(64));
        let w = Arc::clone(&p);
        let writer = std::thread::spawn(move || {
            for _ in 0..2000 {
                for i in 0..64 {
                    w.store(i, 0xAAAA_AAAA_AAAA_AAAA);
                }
                for i in 0..64 {
                    w.store(i, 0x5555_5555_5555_5555);
                }
            }
        });
        for _ in 0..200 {
            for wv in p.snapshot() {
                assert!(
                    wv == 0 || wv == 0xAAAA_AAAA_AAAA_AAAA || wv == 0x5555_5555_5555_5555,
                    "torn word {wv:#x}"
                );
            }
        }
        writer.join().unwrap();
    }

    #[test]
    fn wn_bookkeeping() {
        let mut m = PageMeta::new(Gpid(1));
        m.push_wn(Wn {
            pid: 1,
            seq: 2,
            vcsum: 5,
        });
        m.push_wn(Wn {
            pid: 1,
            seq: 2,
            vcsum: 5,
        }); // dup ignored
        m.push_wn(Wn {
            pid: 2,
            seq: 1,
            vcsum: 3,
        });
        assert_eq!(m.pending.len(), 2);
        m.applied.set(1, 2);
        assert_eq!(m.unapplied().len(), 1);
        m.prune_pending();
        assert_eq!(m.pending.len(), 1);
        assert_eq!(m.pending[0].pid, 2);
        // A WN already covered by `applied` is dropped on arrival.
        m.push_wn(Wn {
            pid: 1,
            seq: 1,
            vcsum: 1,
        });
        assert_eq!(m.pending.len(), 1);
    }
}
