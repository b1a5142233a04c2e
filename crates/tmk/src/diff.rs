//! Diffs: run-length encodings of the words a process changed in a page
//! during one interval.
//!
//! A diff is computed by comparing the current page contents against the
//! *twin* snapshot taken at the first write of the interval, exactly as
//! in TreadMarks. Diffs are word-granular (the paper's TreadMarks also
//! diffs at word granularity), so two processes writing disjoint words
//! of the same page produce disjoint, commuting diffs — the heart of the
//! multiple-writer protocol.
//!
//! ## Layout
//!
//! A diff is **one** allocation: a header-prefixed `u64` buffer. The
//! first `nruns` words are packed run descriptors
//! (`start << 32 | len`), ascending and non-overlapping; the payload
//! words follow immediately, concatenated in run order (offsets are
//! the running prefix sum of the lengths). Apply therefore walks a
//! single contiguous buffer front to back — the descriptor index sits
//! in the same cache lines as the first payload words, where the
//! earlier two-vector layout (descriptors in one allocation, arena in
//! another) cost a second cache stream per apply and regressed
//! many-small-run shapes (`apply_4k_64w`) 2×. The wire format is
//! unchanged: `u32` run count, then per run a `u32` start, `u32`
//! length and the raw little-endian words.

use crate::page::PageBuf;
use crate::types::PageId;
use nowmp_util::wire::{Dec, Enc, Wire, WireError};

/// All modifications a single interval made to a single page.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Diff {
    /// Number of runs (= descriptor words at the front of `buf`).
    nruns: usize,
    /// `[desc_0 .. desc_{nruns-1}] [payload words in run order]` where
    /// `desc_i = start_i << 32 | len_i`.
    buf: Vec<u64>,
}

#[inline]
const fn desc(start: u32, len: u32) -> u64 {
    ((start as u64) << 32) | len as u64
}

#[inline]
const fn desc_start(d: u64) -> u32 {
    (d >> 32) as u32
}

#[inline]
const fn desc_len(d: u64) -> u32 {
    d as u32
}

impl Diff {
    /// Compute the diff of `page` against its `twin` snapshot.
    ///
    /// Adjacent modified words within `gap_merge` unmodified words of
    /// each other coalesce into one run (fewer headers on the wire);
    /// TreadMarks used a similar heuristic. `gap_merge = 0` produces
    /// exact runs.
    pub fn create(twin: &[u64], page: &PageBuf, gap_merge: usize) -> Diff {
        assert_eq!(twin.len(), page.slots(), "twin/page size mismatch");
        let cur = page.snapshot();
        Self::create_from_words(twin, &cur, gap_merge)
    }

    /// Diff of two word slices (testable core of [`Diff::create`]).
    ///
    /// Branch-reduced scan instead of a per-word state machine:
    ///
    /// 1. per 64-word block, a wide XOR-OR fold ([`block_acc`], which
    ///    the compiler vectorizes into 128-bit+ lanes) rejects clean
    ///    blocks with no per-word branching — the common case, since a
    ///    typical interval dirties a few scattered words in 512;
    /// 2. a dirty block gets a 64-bit dirty *bitmap* (branchless
    ///    compare-into-mask), and runs fall out as bit scans
    ///    (`trailing_zeros`) over the mask rather than data re-reads.
    ///
    /// `gap_merge` is applied by coalescing adjacent exact intervals
    /// whose clean gap is `<= gap_merge` — equivalent to the old
    /// gap-counter scan, and the merged run carries the current page
    /// contents for the gap words (which equal the twin's).
    pub fn create_from_words(twin: &[u64], cur: &[u64], gap_merge: usize) -> Diff {
        assert_eq!(twin.len(), cur.len());
        let n = cur.len();
        // Pass 1: gap-merged dirty intervals (start, end) — descriptors
        // only, no payload copies yet.
        let mut iv: Vec<(usize, usize)> = Vec::new();
        let mut total = 0usize;
        let mut base = 0usize;
        while base < n {
            let blk = (n - base).min(64);
            let c = &cur[base..base + blk];
            let t = &twin[base..base + blk];
            if block_acc(c, t) == 0 {
                base += 64;
                continue;
            }
            let mut mask = block_mask(c, t);
            while mask != 0 {
                let s = mask.trailing_zeros() as usize;
                let run = (!(mask >> s)).trailing_zeros() as usize; // >=1
                let (start, end) = (base + s, base + s + run);
                match iv.last_mut() {
                    Some(last) if start - last.1 <= gap_merge => {
                        total += end - last.1;
                        last.1 = end;
                    }
                    _ => {
                        iv.push((start, end));
                        total += run;
                    }
                }
                if s + run >= 64 {
                    break;
                }
                mask &= u64::MAX << (s + run);
            }
            base += 64;
        }
        // Pass 2: one exactly-sized allocation — descriptors up front,
        // then one contiguous payload copy per run (merged runs carry
        // the gap words' current contents, which equal the twin's).
        let mut buf = Vec::with_capacity(iv.len() + total);
        for &(start, end) in &iv {
            buf.push(desc(start as u32, (end - start) as u32));
        }
        for &(start, end) in &iv {
            buf.extend_from_slice(&cur[start..end]);
        }
        Diff {
            nruns: iv.len(),
            buf,
        }
    }

    /// Build a diff from explicit `(start, payload)` runs (tests,
    /// hand-rolled fixtures). Runs must be ascending / non-overlapping.
    pub fn from_runs<'a, I>(runs: I) -> Diff
    where
        I: IntoIterator<Item = (u32, &'a [u64])>,
    {
        let mut d = Diff::default();
        for (start, words) in runs {
            d.push_run(start, words);
        }
        d
    }

    /// Convenience: a diff of exactly one run.
    pub fn of_run(start: u32, words: &[u64]) -> Diff {
        Self::from_runs([(start, words)])
    }

    /// Append one run (must be after all existing runs).
    ///
    /// Shifts the payload right by one descriptor word — O(carried
    /// words). Fixture/decoder convenience; the hot constructor is
    /// [`Diff::create_from_words`], which sizes the buffer once.
    pub fn push_run(&mut self, start: u32, words: &[u64]) {
        if self.nruns > 0 {
            let last = self.buf[self.nruns - 1];
            assert!(
                start >= desc_start(last) + desc_len(last),
                "runs must be ascending/non-overlapping"
            );
        }
        self.buf.insert(self.nruns, desc(start, words.len() as u32));
        self.nruns += 1;
        self.buf.extend_from_slice(words);
    }

    /// Iterate runs as `(start_slot, payload)`.
    pub fn iter_runs(&self) -> impl Iterator<Item = (u32, &[u64])> {
        let (descs, payload) = self.buf.split_at(self.nruns);
        descs.iter().scan(0usize, move |off, &d| {
            let len = desc_len(d) as usize;
            let w = &payload[*off..*off + len];
            *off += len;
            Some((desc_start(d), w))
        })
    }

    /// Number of runs.
    pub fn num_runs(&self) -> usize {
        self.nruns
    }

    /// Apply this diff to `page`.
    ///
    /// Single-word runs — the dominant shape for scattered writes —
    /// take a direct store instead of the bulk-copy loop, whose setup
    /// (slice construction, unroll prologue) costs more than the one
    /// word it would move.
    pub fn apply(&self, page: &PageBuf) {
        let (descs, payload) = self.buf.split_at(self.nruns);
        let mut off = 0usize;
        for &d in descs {
            let (s, l) = (desc_start(d) as usize, desc_len(d) as usize);
            if l == 1 {
                page.store(s, payload[off]);
            } else {
                page.write_range(s, &payload[off..off + l]);
            }
            off += l;
        }
    }

    /// Apply this diff to a plain word buffer.
    pub fn apply_to_words(&self, words: &mut [u64]) {
        let (descs, payload) = self.buf.split_at(self.nruns);
        let mut off = 0usize;
        for &d in descs {
            let (s, l) = (desc_start(d) as usize, desc_len(d) as usize);
            words[s..s + l].copy_from_slice(&payload[off..off + l]);
            off += l;
        }
    }

    /// True when no words changed.
    pub fn is_empty(&self) -> bool {
        self.nruns == 0
    }

    /// Number of modified (carried) words.
    pub fn words(&self) -> usize {
        self.buf.len() - self.nruns
    }

    /// Approximate size on the wire (headers + payload).
    pub fn wire_bytes(&self) -> usize {
        4 + self.buf.len() * 8
    }
}

/// XOR-OR fold of a block (`<= 64` words): zero iff the block is
/// clean. Written as a plain fold so the autovectorizer widens it to
/// 128-bit (SSE2) or wider lanes — one wide compare per 2–4 words and
/// a single reduction, no per-word branches.
#[inline]
fn block_acc(cur: &[u64], twin: &[u64]) -> u64 {
    let mut acc = 0u64;
    for (c, t) in cur.iter().zip(twin) {
        acc |= c ^ t;
    }
    acc
}

/// Dirty bitmap of a block (`<= 64` words): bit `k` set iff word `k`
/// differs. Branchless — the compare becomes a flag-to-bit move, so
/// run boundaries cost bit scans instead of branch mispredicts.
#[inline]
fn block_mask(cur: &[u64], twin: &[u64]) -> u64 {
    let mut m = 0u64;
    for (k, (c, t)) in cur.iter().zip(twin).enumerate() {
        m |= (((c ^ t) != 0) as u64) << k;
    }
    m
}

impl Wire for Diff {
    fn enc(&self, e: &mut Enc) {
        e.put_u32(self.nruns as u32);
        for (start, words) in self.iter_runs() {
            e.put_u32(start);
            e.put_u32(words.len() as u32);
            e.put_u64_words(words);
        }
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        Self::dec_bounded(d, usize::MAX)
    }
}

impl Diff {
    /// Decode one diff of a page of `slots` words: a run that reaches
    /// past the page is an error, so no diff a peer sends can address
    /// a word the page does not have.
    pub(crate) fn dec_bounded(d: &mut Dec<'_>, slots: usize) -> Result<Self, WireError> {
        let n = d.get_u32()? as usize;
        if n > d.remaining().saturating_add(1) {
            return Err(WireError::BadLength {
                what: "diff runs",
                len: n,
            });
        }
        // The run count is known up front, so the header-prefixed
        // layout decodes into one buffer: reserve `n` descriptor
        // slots, then append each run's payload behind them. (`n` is
        // bounded by `remaining` above, so a corrupt count cannot
        // force a huge allocation.)
        let mut buf = vec![0u64; n];
        for i in 0..n {
            let start = d.get_u32()?;
            let len = d.get_u32()? as usize;
            let end = start as usize + len;
            if end > slots {
                return Err(WireError::BadLength {
                    what: "diff run end",
                    len: end,
                });
            }
            buf[i] = desc(start, len as u32);
            d.get_u64_words_into(&mut buf, len)?;
        }
        Ok(Diff { nruns: n, buf })
    }
}

/// Key identifying a stored diff: which page, which interval of ours.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DiffKey {
    /// Page modified.
    pub page: PageId,
    /// Our interval that modified it.
    pub seq: crate::types::Seq,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_diff_for_identical() {
        let twin = vec![7u64; 16];
        let page = PageBuf::from_words(&twin);
        let d = Diff::create(&twin, &page, 0);
        assert!(d.is_empty());
        assert_eq!(d.words(), 0);
    }

    #[test]
    fn single_word_change() {
        let twin = vec![0u64; 16];
        let page = PageBuf::from_words(&twin);
        page.store(5, 99);
        let d = Diff::create(&twin, &page, 0);
        assert_eq!(d.num_runs(), 1);
        let (start, words) = d.iter_runs().next().unwrap();
        assert_eq!(start, 5);
        assert_eq!(words, &[99]);
    }

    #[test]
    fn gap_merge_coalesces_runs() {
        let twin = vec![0u64; 16];
        let cur = {
            let mut c = twin.clone();
            c[2] = 1;
            c[4] = 2; // gap of 1 unmodified word
            c
        };
        let exact = Diff::create_from_words(&twin, &cur, 0);
        assert_eq!(exact.num_runs(), 2);
        let merged = Diff::create_from_words(&twin, &cur, 1);
        assert_eq!(merged.num_runs(), 1);
        // Merged run still applies correctly (it carries the unmodified
        // word's current value, which equals the twin's).
        let mut back = twin.clone();
        merged.apply_to_words(&mut back);
        assert_eq!(back, cur);
    }

    #[test]
    fn runs_straddling_block_boundaries() {
        // A run crossing the 64-word bitmap block boundary must come
        // out as one run, not split at the seam.
        let twin = vec![0u64; 192];
        let mut cur = twin.clone();
        for i in 60..70 {
            cur[i] = i as u64 + 1;
        }
        cur[127] = 7;
        cur[128] = 8;
        let d = Diff::create_from_words(&twin, &cur, 0);
        let runs: Vec<(u32, Vec<u64>)> = d.iter_runs().map(|(s, w)| (s, w.to_vec())).collect();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].0, 60);
        assert_eq!(runs[0].1.len(), 10);
        assert_eq!(runs[1].0, 127);
        assert_eq!(runs[1].1, vec![7, 8]);
        let mut back = twin.clone();
        d.apply_to_words(&mut back);
        assert_eq!(back, cur);
    }

    #[test]
    fn apply_reconstructs() {
        let twin: Vec<u64> = (0..32).collect();
        let mut cur = twin.clone();
        cur[0] = 100;
        cur[15] = 200;
        cur[16] = 201;
        cur[31] = 300;
        let d = Diff::create_from_words(&twin, &cur, 0);
        let page = PageBuf::from_words(&twin);
        d.apply(&page);
        assert_eq!(page.snapshot(), cur);
    }

    #[test]
    fn disjoint_diffs_commute() {
        let twin = vec![0u64; 32];
        let mut a = twin.clone();
        a[3] = 1;
        a[4] = 2;
        let mut b = twin.clone();
        b[20] = 9;
        let da = Diff::create_from_words(&twin, &a, 0);
        let db = Diff::create_from_words(&twin, &b, 0);
        let mut ab = twin.clone();
        da.apply_to_words(&mut ab);
        db.apply_to_words(&mut ab);
        let mut ba = twin.clone();
        db.apply_to_words(&mut ba);
        da.apply_to_words(&mut ba);
        assert_eq!(ab, ba);
        assert_eq!(ab[3], 1);
        assert_eq!(ab[20], 9);
    }

    #[test]
    fn wire_roundtrip() {
        let d = Diff::from_runs([(0u32, &[1u64, 2, 3][..]), (10, &[u64::MAX][..])]);
        assert_eq!(Diff::from_wire(&d.to_wire()).unwrap(), d);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn push_run_rejects_overlap() {
        let mut d = Diff::of_run(4, &[1, 2]);
        d.push_run(5, &[3]);
    }

    proptest! {
        #[test]
        fn prop_diff_apply_roundtrip(
            twin in proptest::collection::vec(0u64..4, 1..128),
            flips in proptest::collection::vec((0usize..128, 1u64..100), 0..40),
            gap in 0usize..4,
        ) {
            let mut cur = twin.clone();
            for (i, v) in flips {
                let i = i % cur.len();
                cur[i] = v;
            }
            let d = Diff::create_from_words(&twin, &cur, gap);
            let mut back = twin.clone();
            d.apply_to_words(&mut back);
            prop_assert_eq!(back, cur);
        }

        #[test]
        fn prop_exact_diff_is_minimal(
            twin in proptest::collection::vec(0u64..4, 1..64),
            flips in proptest::collection::vec((0usize..64, 10u64..100), 0..20),
        ) {
            let mut cur = twin.clone();
            for (i, v) in flips {
                let i = i % cur.len();
                cur[i] = v;
            }
            let d = Diff::create_from_words(&twin, &cur, 0);
            let changed = twin.iter().zip(&cur).filter(|(a, b)| a != b).count();
            prop_assert_eq!(d.words(), changed, "exact diff carries only changed words");
        }

        #[test]
        fn prop_wire_roundtrip(starts in proptest::collection::vec((0u32..500, 1usize..8), 0..10)) {
            let mut next = 0u32;
            let mut d = Diff::default();
            for (gap, len) in starts {
                let start = next + gap;
                next = start + len as u32 + 1;
                let words: Vec<u64> = (0..len as u64).collect();
                d.push_run(start, &words);
            }
            prop_assert_eq!(Diff::from_wire(&d.to_wire()).unwrap(), d);
        }
    }
}
