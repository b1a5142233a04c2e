//! Interval records — the unit of consistency information exchanged at
//! synchronization points.
//!
//! Closing an interval at process `pid` produces one [`Record`]: the
//! interval's sequence number, the creator's vector clock at close time,
//! and the list of pages written (the write notices). Records flow:
//!
//! * lock grant: the releaser sends the acquirer every record the
//!   acquirer has not seen;
//! * barrier / join: every process sends its new records to the
//!   manager, which redistributes the union at release;
//! * GC: records let the master compute, for every page, which writes a
//!   complete copy must contain.

use crate::types::{PageId, Pid, Seq, Vc};
use nowmp_util::wire::{Dec, Enc, Encoding, Wire, WireError};

/// Hard ceiling on pages carried by one encoded page set (decode-side
/// sanity bound, same order as the `DirRle` guard).
const MAX_PAGES: usize = 1 << 24;

/// A write-notice page set as contiguous interval runs: `(start, len)`
/// pairs. Worksharing loops dirty contiguous page blocks, so a join's
/// notice payload in run form scales with dirty *regions* rather than
/// dirty pages — the compact encoding that lifts the fork-broadcast
/// payload off the master's link.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PageRuns {
    /// `(first_page, run_length)` pairs, ascending and non-overlapping.
    pub runs: Vec<(PageId, u32)>,
}

impl PageRuns {
    /// Interval-encode `pages`. Returns `None` unless the list is
    /// strictly ascending (the canonical order [`Record`]s are built
    /// with) — arbitrary orders fall back to the flat wire form so
    /// encode→decode stays byte-identical for any input.
    pub fn from_pages(pages: &[PageId]) -> Option<Self> {
        let mut runs: Vec<(PageId, u32)> = Vec::new();
        for &p in pages {
            // Widen before adding: a run ending at `u32::MAX` must not
            // overflow the comparison (debug panic / release wrap).
            match runs.last_mut() {
                Some((start, len)) if p as u64 == *start as u64 + *len as u64 => *len += 1,
                Some((start, len)) if (p as u64) > *start as u64 + *len as u64 => runs.push((p, 1)),
                None => runs.push((p, 1)),
                _ => return None, // not strictly ascending
            }
        }
        Some(PageRuns { runs })
    }

    /// Expand back to the page list (ascending).
    pub fn to_pages(&self) -> Vec<PageId> {
        let mut out = Vec::with_capacity(self.total());
        for &(start, len) in &self.runs {
            // u64 iteration: a run ending at `u32::MAX` must not
            // overflow the range bound.
            out.extend((start as u64..start as u64 + len as u64).map(|p| p as PageId));
        }
        out
    }

    /// Total pages covered.
    pub fn total(&self) -> usize {
        self.runs.iter().map(|&(_, n)| n as usize).sum()
    }
}

/// Wire size of the *flat* page-set encoding (count prefix + one `u32`
/// per page) — the baseline the hybrid encoder never exceeds.
pub fn flat_pages_wire_bytes(pages: &[PageId]) -> usize {
    4 + 4 * pages.len()
}

/// Encode a page set, choosing per-set between the flat form and the
/// interval-run form — whichever is smaller. The mode rides in the low
/// bit of the count word, so the hybrid is never larger than flat.
/// Under [`Encoding::Flat`] the flat form is always emitted (the faithful
/// 1999 payload sizes the Table 1/2 calibration pins assume).
pub fn enc_pages(pages: &[PageId], e: &mut Enc) {
    let flat = |e: &mut Enc| {
        e.put_u32((pages.len() as u32) << 1);
        for &p in pages {
            e.put_u32(p);
        }
    };
    if e.encoding() == Encoding::Runs {
        if let Some(r) = PageRuns::from_pages(pages) {
            // Runs cost 8 bytes each vs 4 per flat page: only worth it
            // when the set is at least half contiguous.
            if 8 * r.runs.len() < 4 * pages.len() {
                e.put_u32(((r.runs.len() as u32) << 1) | 1);
                for &(start, len) in &r.runs {
                    e.put_u32(start);
                    e.put_u32(len);
                }
                return;
            }
        }
    }
    flat(e);
}

/// Decode a page set written by [`enc_pages`].
pub fn dec_pages(d: &mut Dec<'_>) -> Result<Vec<PageId>, WireError> {
    let head = d.get_u32()?;
    let n = (head >> 1) as usize;
    if head & 1 == 0 {
        if n > MAX_PAGES || n.saturating_mul(4) > d.remaining() {
            return Err(WireError::BadLength {
                what: "page set (flat)",
                len: n,
            });
        }
        let mut pages = Vec::with_capacity(n);
        for _ in 0..n {
            pages.push(d.get_u32()?);
        }
        Ok(pages)
    } else {
        if n.saturating_mul(8) > d.remaining() {
            return Err(WireError::BadLength {
                what: "page set (runs)",
                len: n,
            });
        }
        let mut pages = Vec::new();
        for _ in 0..n {
            let start = d.get_u32()?;
            let len = d.get_u32()?;
            if len == 0
                || pages.len() + len as usize > MAX_PAGES
                || (start as u64 + len as u64 - 1) > u32::MAX as u64
            {
                return Err(WireError::BadLength {
                    what: "page run",
                    len: len as usize,
                });
            }
            // Iterate in u64: a run ending exactly at `u32::MAX` passes
            // the guard but `start + len` itself would overflow.
            pages.extend((start as u64..start as u64 + len as u64).map(|p| p as PageId));
        }
        Ok(pages)
    }
}

/// One closed interval's consistency record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Creator's pid (in the creating epoch).
    pub pid: Pid,
    /// The interval sequence number at the creator.
    pub seq: Seq,
    /// Creator's vector clock at interval close (captures
    /// happens-before; its sum is the diff application sort key).
    pub vc: Vc,
    /// Pages written during the interval (write notices), ascending.
    pub pages: Vec<PageId>,
}

impl Record {
    /// Causal sort key: strictly increases along happens-before.
    pub fn vcsum(&self) -> u64 {
        self.vc.sum()
    }

    /// Wire size this record would have with the pre-RLE flat page
    /// encoding (diagnostics / size-bound tests).
    pub fn flat_wire_bytes(&self) -> usize {
        2 + 4 + (4 + 4 * self.vc.len()) + flat_pages_wire_bytes(&self.pages)
    }
}

impl Wire for Record {
    fn enc(&self, e: &mut Enc) {
        e.put_u16(self.pid);
        e.put_u32(self.seq);
        self.vc.enc(e);
        enc_pages(&self.pages, e);
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        Ok(Record {
            pid: d.get_u16()?,
            seq: d.get_u32()?,
            vc: Vc::dec(d)?,
            pages: dec_pages(d)?,
        })
    }
}

/// Marker bit in a record set's count word: the set follows in the
/// delta-coded form. Same idiom as the packed vector clock — a set never
/// holds 2^31 records, so the per-record encoder cannot set it.
const SET_DELTA: u32 = 0x8000_0000;

/// Longest clock a delta-coded set may declare: one entry per [`Pid`].
const MAX_CLOCK: usize = Pid::MAX as usize + 1;

fn bad_len(what: &'static str, len: usize) -> WireError {
    WireError::BadLength { what, len }
}

/// A batch of records as shipped at forks, joins, barriers and lock
/// transfers — the canonical wire form for every `records` field of
/// [`crate::msg::Msg`]. Two forms share the leading count word:
///
/// * **per-record** (count, then each [`Record`] in full): the only form
///   under [`Encoding::Flat`], and the fallback under [`Encoding::Runs`];
/// * **delta-coded** (count | [`SET_DELTA`]): records that travel
///   together are causally almost identical — after a fork-join region
///   the clocks of a set differ from their pointwise minimum in one
///   entry each — so the set ships that minimum once and each record
///   only what rises above it. Layout, every field an LEB128 varint
///   after the count word:
///
///   ```text
///   u32  SET_DELTA | n
///   var  w                      clock width, the same for all n records
///   var  base[0..w]             pointwise minimum of the n clocks
///   n x  var pid, var seq
///        var k, k x (var gap, var inc)   entries above the base: index =
///                                        previous index + 1 + gap (first:
///                                        gap), value = base[index] + inc
///        var r, r x (var gap, var len-1) page runs, ascending: start =
///                                        previous end + 1 + gap (first: gap)
///   ```
///
///   The author's own entry is `seq` unless the list names it, so the
///   steady-state record lists nothing.
///
/// Under `Runs` the encoder emits the delta form only when it is
/// strictly smaller (a single record, mixed clock widths, a page list
/// that is not strictly ascending, or unrelated clocks keep the
/// per-record form, so `Runs` output never grows); decoders accept
/// both unconditionally.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecordSet(pub Vec<Record>);

impl RecordSet {
    /// Encode a borrowed record slice in the `RecordSet` wire form
    /// (what [`crate::msg::Msg`] uses, avoiding an owning clone).
    pub fn enc_slice(records: &[Record], e: &mut Enc) {
        let start = e.len();
        e.put_seq(records);
        if e.encoding() == Encoding::Runs {
            if let Some(delta) = enc_delta(records, e.len() - start) {
                e.truncate(start);
                e.put_raw(&delta);
            }
        }
    }

    /// Decode a `RecordSet` wire form into its inner vector.
    pub fn dec_vec(d: &mut Dec<'_>) -> Result<Vec<Record>, WireError> {
        let head = d.get_u32()?;
        if head & SET_DELTA == 0 {
            d.get_seq_of(head as usize)
        } else {
            dec_delta((head & !SET_DELTA) as usize, d)
        }
    }

    /// Encoded size in bytes.
    pub fn wire_bytes(&self) -> usize {
        self.to_wire().len()
    }

    /// Encoded size with the pre-RLE flat page encoding.
    pub fn flat_wire_bytes(&self) -> usize {
        4 + self.0.iter().map(Record::flat_wire_bytes).sum::<usize>()
    }
}

impl Wire for RecordSet {
    fn enc(&self, e: &mut Enc) {
        Self::enc_slice(&self.0, e);
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        Ok(RecordSet(Self::dec_vec(d)?))
    }
}

/// The delta-coded form of `records`, or `None` when the set does not
/// qualify or the form would not come in under `budget` bytes.
fn enc_delta(records: &[Record], budget: usize) -> Option<Vec<u8>> {
    let (first, rest) = records.split_first()?;
    let width = first.vc.len();
    if rest.is_empty()
        || records.len() >= SET_DELTA as usize
        || width > MAX_CLOCK
        || rest.iter().any(|r| r.vc.len() != width)
    {
        return None;
    }
    let mut base = first.vc.as_slice().to_vec();
    for r in rest {
        for (b, &x) in base.iter_mut().zip(r.vc.as_slice()) {
            *b = (*b).min(x);
        }
    }
    // Unrelated clocks: an entry above the base costs two bytes at
    // least, a packed clock `4 + width` at least. When the lists alone
    // must outweigh the clocks they replace, skip the attempt.
    let above = |r: &Record| {
        r.vc.as_slice()
            .iter()
            .zip(&base)
            .filter(|(x, b)| x > b)
            .count()
    };
    if 2 * records.iter().map(above).sum::<usize>() >= records.len() * (4 + width) {
        return None;
    }
    let mut e = Enc::with_capacity(budget);
    e.put_u32(SET_DELTA | records.len() as u32);
    e.put_varu32(width as u32);
    for &b in &base {
        e.put_varu32(b);
    }
    let mut total_pages = 0usize;
    for r in records {
        let runs = PageRuns::from_pages(&r.pages)?.runs;
        total_pages += r.pages.len();
        if total_pages > MAX_PAGES {
            return None; // the decoder's bound; such a set stays per-record
        }
        e.put_varu32(r.pid as u32);
        e.put_varu32(r.seq);
        let vc = r.vc.as_slice();
        // The own entry is implied by `seq`; it is listed (even with a
        // zero increment) exactly when the two disagree.
        let listed = |&i: &usize| {
            if i == r.pid as usize {
                vc[i] != r.seq
            } else {
                vc[i] > base[i]
            }
        };
        e.put_varu32((0..width).filter(listed).count() as u32);
        let mut next = 0;
        for i in (0..width).filter(listed) {
            e.put_varu32((i - next) as u32);
            e.put_varu32(vc[i] - base[i]);
            next = i + 1;
        }
        e.put_varu32(runs.len() as u32);
        let mut floor = 0u64;
        for &(start, len) in &runs {
            e.put_varu32((start as u64 - floor) as u32);
            e.put_varu32(len - 1);
            floor = start as u64 + len as u64 + 1;
        }
        if e.len() >= budget {
            return None;
        }
    }
    Some(e.finish())
}

/// Decode the body of a delta-coded set of `n` records. Every count is
/// bounded by the bytes that remain before anything is allocated for it.
fn dec_delta(n: usize, d: &mut Dec<'_>) -> Result<Vec<Record>, WireError> {
    let width = d.get_varu32()? as usize;
    if width > MAX_CLOCK || width > d.remaining() {
        return Err(bad_len("record set clock", width));
    }
    let mut base = Vc::new(width);
    for i in 0..width {
        base.set(i as Pid, d.get_varu32()?);
    }
    // A record is at least pid, seq and two zero counts.
    if n.saturating_mul(4) > d.remaining() {
        return Err(bad_len("record set (delta)", n));
    }
    let mut records = Vec::with_capacity(n);
    let mut total_pages = 0usize;
    for _ in 0..n {
        let pid = d.get_varu32()?;
        let pid = Pid::try_from(pid).map_err(|_| bad_len("record pid", pid as usize))?;
        let seq = d.get_varu32()?;

        let k = d.get_varu32()? as usize;
        if k > width || k.saturating_mul(2) > d.remaining() {
            return Err(bad_len("record clock delta", k));
        }
        let mut vc = base.clone();
        let mut own_listed = false;
        let mut next = 0usize;
        for _ in 0..k {
            let i = next.saturating_add(d.get_varu32()? as usize);
            let inc = d.get_varu32()?;
            if i >= width {
                return Err(bad_len("record clock index", i));
            }
            let v = base.get(i as Pid).checked_add(inc);
            vc.set(
                i as Pid,
                v.ok_or_else(|| bad_len("record clock entry", inc as usize))?,
            );
            own_listed |= i == pid as usize;
            next = i + 1;
        }
        if !own_listed && (pid as usize) < width {
            vc.set(pid, seq);
        }

        let nruns = d.get_varu32()? as usize;
        if nruns.saturating_mul(2) > d.remaining() {
            return Err(bad_len("page set (delta runs)", nruns));
        }
        let mut pages = Vec::new();
        let mut floor = 0u64;
        for _ in 0..nruns {
            let start = floor + d.get_varu32()? as u64;
            let end = start + d.get_varu32()? as u64 + 1; // exclusive
            total_pages += (end - start) as usize;
            if end > u32::MAX as u64 + 1 || total_pages > MAX_PAGES {
                return Err(bad_len("page run", (end - start) as usize));
            }
            pages.extend((start..end).map(|p| p as PageId));
            floor = end + 1;
        }
        records.push(Record {
            pid,
            seq,
            vc,
            pages,
        });
    }
    Ok(records)
}

/// A process's store of every record known this epoch (its own and
/// received ones), deduplicated by `(pid, seq)`.
#[derive(Debug, Default)]
pub struct RecordStore {
    records: Vec<Record>,
}

impl RecordStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// All records.
    pub fn all(&self) -> &[Record] {
        &self.records
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Insert unless `(pid, seq)` is already present. Returns whether
    /// the record was new.
    pub fn insert(&mut self, rec: Record) -> bool {
        if self.contains(rec.pid, rec.seq) {
            return false;
        }
        self.records.push(rec);
        true
    }

    /// Is `(pid, seq)` present?
    pub fn contains(&self, pid: Pid, seq: Seq) -> bool {
        self.records.iter().any(|r| r.pid == pid && r.seq == seq)
    }

    /// Records the holder of clock `vc` has not seen (i.e. `seq >
    /// vc[pid]`). This is exactly the set a lock releaser must forward.
    pub fn newer_than(&self, vc: &Vc) -> Vec<Record> {
        self.records
            .iter()
            .filter(|r| r.seq > vc.get(r.pid))
            .cloned()
            .collect()
    }

    /// Drop everything (garbage collection).
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// For every page, the per-pid maximum interval that wrote it — the
    /// "needed" clock a complete copy must dominate. Used by GC.
    pub fn page_needs(&self) -> std::collections::HashMap<PageId, Vc> {
        let mut needs: std::collections::HashMap<PageId, Vc> = std::collections::HashMap::new();
        for r in &self.records {
            for &p in &r.pages {
                needs.entry(p).or_default().raise(r.pid, r.seq);
            }
        }
        needs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(pid: Pid, seq: Seq, pages: &[PageId]) -> Record {
        let mut vc = Vc::new(4);
        vc.set(pid, seq);
        Record {
            pid,
            seq,
            vc,
            pages: pages.to_vec(),
        }
    }

    #[test]
    fn insert_dedups() {
        let mut s = RecordStore::new();
        assert!(s.insert(rec(0, 1, &[5])));
        assert!(!s.insert(rec(0, 1, &[5])));
        assert!(s.insert(rec(0, 2, &[5])));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn newer_than_filters() {
        let mut s = RecordStore::new();
        s.insert(rec(0, 1, &[1]));
        s.insert(rec(0, 2, &[2]));
        s.insert(rec(1, 1, &[3]));
        let mut vc = Vc::new(2);
        vc.set(0, 1);
        let newer = s.newer_than(&vc);
        assert_eq!(newer.len(), 2);
        assert!(newer.iter().any(|r| r.pid == 0 && r.seq == 2));
        assert!(newer.iter().any(|r| r.pid == 1 && r.seq == 1));
    }

    #[test]
    fn page_needs_takes_max() {
        let mut s = RecordStore::new();
        s.insert(rec(0, 1, &[7]));
        s.insert(rec(0, 3, &[7]));
        s.insert(rec(1, 2, &[7, 8]));
        let needs = s.page_needs();
        let n7 = &needs[&7];
        assert_eq!(n7.get(0), 3);
        assert_eq!(n7.get(1), 2);
        let n8 = &needs[&8];
        assert_eq!(n8.get(0), 0);
        assert_eq!(n8.get(1), 2);
    }

    #[test]
    fn clear_empties() {
        let mut s = RecordStore::new();
        s.insert(rec(0, 1, &[1]));
        s.clear();
        assert!(s.is_empty());
        assert!(s.page_needs().is_empty());
    }

    #[test]
    fn record_wire_roundtrip() {
        let r = rec(3, 9, &[1, 2, 3]);
        assert_eq!(Record::from_wire(&r.to_wire()).unwrap(), r);
    }

    #[test]
    fn vcsum_reflects_clock() {
        let r = rec(1, 5, &[]);
        assert_eq!(r.vcsum(), 5);
    }

    #[test]
    fn page_runs_compress_contiguous_blocks() {
        let pages: Vec<PageId> = (100..612).collect();
        let runs = PageRuns::from_pages(&pages).unwrap();
        assert_eq!(runs.runs, vec![(100, 512)]);
        assert_eq!(runs.to_pages(), pages);
        assert_eq!(runs.total(), 512);
        // One 512-page run encodes in 12 bytes instead of 2052.
        let mut e = Enc::new();
        enc_pages(&pages, &mut e);
        assert_eq!(e.len(), 12);
        assert!(e.len() <= flat_pages_wire_bytes(&pages));
    }

    #[test]
    fn unsorted_pages_fall_back_to_flat() {
        let pages = vec![9, 3, 7];
        assert!(PageRuns::from_pages(&pages).is_none());
        let mut e = Enc::new();
        enc_pages(&pages, &mut e);
        assert_eq!(e.len(), flat_pages_wire_bytes(&pages));
        let back = dec_pages(&mut Dec::new(&e.finish())).unwrap();
        assert_eq!(back, pages);
    }

    #[test]
    fn duplicate_pages_fall_back_to_flat() {
        let pages = vec![4, 4, 5];
        assert!(PageRuns::from_pages(&pages).is_none());
        let mut e = Enc::new();
        enc_pages(&pages, &mut e);
        let back = dec_pages(&mut Dec::new(&e.finish())).unwrap();
        assert_eq!(back, pages);
    }

    #[test]
    fn sparse_ascending_pages_stay_flat() {
        // Strictly ascending but nowhere contiguous: runs would cost
        // 8 bytes per page, so the hybrid must pick the flat form.
        let pages: Vec<PageId> = (0..64).map(|i| i * 10).collect();
        let mut e = Enc::new();
        enc_pages(&pages, &mut e);
        assert_eq!(e.len(), flat_pages_wire_bytes(&pages));
    }

    #[test]
    fn page_ids_at_u32_max_roundtrip() {
        // A run ending exactly at u32::MAX must neither overflow the
        // encoder's run grouping nor the decoder's expansion.
        let top: Vec<PageId> = (u32::MAX - 511..=u32::MAX).collect();
        let runs = PageRuns::from_pages(&top).unwrap();
        assert_eq!(runs.runs, vec![(u32::MAX - 511, 512)]);
        assert_eq!(runs.to_pages(), top);
        let mut e = Enc::new();
        enc_pages(&top, &mut e);
        let back = dec_pages(&mut Dec::new(&e.finish())).unwrap();
        assert_eq!(back, top);
        // Wrap-around input (MAX then 0) is simply "not ascending":
        // flat fallback, exact round-trip, no panic.
        let wrap = vec![u32::MAX, 0];
        assert!(PageRuns::from_pages(&wrap).is_none());
        let mut e = Enc::new();
        enc_pages(&wrap, &mut e);
        assert_eq!(dec_pages(&mut Dec::new(&e.finish())).unwrap(), wrap);
        // A hand-built single run (u32::MAX, 1) decodes to [u32::MAX].
        let mut e = Enc::new();
        e.put_u32((1 << 1) | 1);
        e.put_u32(u32::MAX);
        e.put_u32(1);
        assert_eq!(
            dec_pages(&mut Dec::new(&e.finish())).unwrap(),
            vec![u32::MAX]
        );
    }

    #[test]
    fn zero_length_run_rejected_on_decode() {
        let mut e = Enc::new();
        e.put_u32((1 << 1) | 1); // one run, run mode
        e.put_u32(5);
        e.put_u32(0); // len 0: never produced by the encoder
        assert!(dec_pages(&mut Dec::new(&e.finish())).is_err());
    }

    #[test]
    fn record_set_roundtrips_and_never_beats_flat() {
        let set = RecordSet(vec![
            rec(0, 1, &(0..300).collect::<Vec<_>>()),
            rec(1, 2, &[7, 9, 1000]),
            rec(2, 3, &[]),
        ]);
        let back = RecordSet::from_wire(&set.to_wire()).unwrap();
        assert_eq!(set, back);
        assert!(
            set.wire_bytes() <= set.flat_wire_bytes(),
            "hybrid {} > flat {}",
            set.wire_bytes(),
            set.flat_wire_bytes()
        );
        // The contiguous 300-page notice dominates the flat size; runs
        // should cut the batch by an order of magnitude.
        assert!(set.wire_bytes() * 10 < set.flat_wire_bytes());
    }
}

#[cfg(test)]
mod delta_tests {
    use super::*;
    use proptest::prelude::*;

    fn encode(records: &[Record], encoding: Encoding) -> Vec<u8> {
        let mut e = Enc::with_encoding(64, encoding);
        RecordSet::enc_slice(records, &mut e);
        e.finish()
    }

    /// The per-record `Runs` form: what the encoder falls back to and
    /// the ceiling the delta form must stay under.
    fn per_record(records: &[Record]) -> Vec<u8> {
        let mut e = Enc::with_encoding(64, Encoding::Runs);
        e.put_seq(records);
        e.finish()
    }

    fn is_delta(wire: &[u8]) -> bool {
        wire[3] & 0x80 != 0
    }

    fn clock(entries: &[Seq]) -> Vc {
        let mut vc = Vc::new(entries.len());
        for (i, &x) in entries.iter().enumerate() {
            vc.set(i as Pid, x);
        }
        vc
    }

    fn varu32_len(v: u32) -> usize {
        let mut e = Enc::new();
        e.put_varu32(v);
        e.len()
    }

    /// What `n` ranks hand back after one fork-join region: every clock
    /// is the team's clock at the fork plus the author's own new
    /// interval, every notice one contiguous block of 9-10 pages.
    fn forkjoin_set(n: usize, seq: Seq) -> Vec<Record> {
        (0..n)
            .map(|r| {
                let mut vc = Vc::new(n);
                for q in 0..n {
                    vc.set(q as Pid, seq - 1);
                }
                vc.set(r as Pid, seq);
                let start = 64 + 9 * r as PageId;
                Record {
                    pid: r as Pid,
                    seq,
                    vc,
                    pages: (start..start + 9 + (r as PageId & 1)).collect(),
                }
            })
            .collect()
    }

    /// Err, or a set that is itself encodable and round-trips.
    fn err_or_valid(buf: &[u8]) {
        if let Ok(set) = RecordSet::from_wire(buf) {
            assert_eq!(RecordSet::from_wire(&set.to_wire()).as_ref(), Ok(&set));
        }
    }

    #[test]
    fn flat_encoding_is_byte_identical_to_the_1999_layout() {
        let set = [
            Record {
                pid: 0,
                seq: 3,
                vc: clock(&[3, 1, 2]),
                pages: vec![1, 2, 3, 9],
            },
            Record {
                pid: 2,
                seq: 2,
                vc: clock(&[1, 1, 2]),
                pages: vec![],
            },
        ];
        #[rustfmt::skip]
        let golden: [u8; 72] = [
            2, 0, 0, 0, // two records, no marker bit
            0, 0,  3, 0, 0, 0, // pid 0, seq 3
            3, 0, 0, 0,  3, 0, 0, 0,  1, 0, 0, 0,  2, 0, 0, 0, // clock [3, 1, 2]
            8, 0, 0, 0,  1, 0, 0, 0,  2, 0, 0, 0,  3, 0, 0, 0,  9, 0, 0, 0, // 4 pages, flat
            2, 0,  2, 0, 0, 0, // pid 2, seq 2
            3, 0, 0, 0,  1, 0, 0, 0,  1, 0, 0, 0,  2, 0, 0, 0, // clock [1, 1, 2]
            0, 0, 0, 0, // no pages
        ];
        assert_eq!(encode(&set, Encoding::Flat), golden);
        assert_eq!(RecordSet::from_wire(&golden).unwrap().0, set);
        // The same two records are related enough for the delta form.
        assert!(is_delta(&encode(&set, Encoding::Runs)));
    }

    #[test]
    fn steady_state_forkjoin_set_is_14_bytes_a_record() {
        for seq in [2, 40, 300, 20_000] {
            let set = forkjoin_set(32, seq);
            let wire = encode(&set, Encoding::Runs);
            assert!(is_delta(&wire));
            assert_eq!(RecordSet::from_wire(&wire).unwrap().0, set);
            let base = 4 + 1 + 32 * varu32_len(seq - 1);
            assert!(
                wire.len() <= base + 14 * 32,
                "seq {seq}: {} B, base clock {base} B",
                wire.len()
            );
            assert!(wire.len() * 3 < per_record(&set).len());
        }
    }

    #[test]
    fn sets_the_delta_form_cannot_help_stay_per_record() {
        let set = forkjoin_set(8, 5);
        // One record: nothing to share a base with.
        assert!(!is_delta(&encode(&set[..1], Encoding::Runs)));
        assert!(!is_delta(&encode(&[], Encoding::Runs)));
        // Mixed clock widths (a lock transfer across a team change).
        let mut mixed = set.clone();
        mixed[3].vc = Vc::new(5);
        assert_eq!(encode(&mixed, Encoding::Runs), per_record(&mixed));
        // A page list that is not strictly ascending.
        let mut unsorted = set.clone();
        unsorted[2].pages = vec![9, 3, 3];
        assert_eq!(encode(&unsorted, Encoding::Runs), per_record(&unsorted));
        // Flat never takes it.
        assert!(!is_delta(&encode(&set, Encoding::Flat)));
        for s in [&mixed, &unsorted] {
            assert_eq!(
                &RecordSet::from_wire(&encode(s, Encoding::Runs)).unwrap().0,
                s
            );
        }
    }

    #[test]
    fn own_entry_that_disagrees_with_seq_is_kept() {
        // Cross-pid shapes: an own entry below, at and above `seq`, one
        // equal to the base, and a pid outside the clock.
        let mk = |pid: Pid, seq: Seq, entries: [Seq; 3]| Record {
            pid,
            seq,
            vc: clock(&entries),
            pages: vec![7],
        };
        let set = vec![
            mk(0, 9, [4, 4, 4]),
            mk(1, 2, [4, 7, 4]),
            mk(2, 4, [4, 4, 4]),
            mk(1, 4, [5, 4, 6]),
            mk(40, 1, [4, 4, 4]),
        ];
        let wire = encode(&set, Encoding::Runs);
        assert!(is_delta(&wire));
        assert_eq!(RecordSet::from_wire(&wire).unwrap().0, set);
    }

    /// Header of a hand-built delta set: `n` records over `base`.
    fn delta_head(n: u32, base: &[u32]) -> Enc {
        let mut e = Enc::new();
        e.put_u32(SET_DELTA | n);
        e.put_varu32(base.len() as u32);
        for &b in base {
            e.put_varu32(b);
        }
        e
    }

    #[test]
    fn malformed_delta_sets_are_errors() {
        let reject = |what: &str, e: Enc| {
            let got = RecordSet::from_wire(&e.finish());
            assert!(
                matches!(got, Err(WireError::BadLength { .. })),
                "{what}: {got:?}"
            );
        };
        // Counts larger than the bytes behind them, before allocating.
        let mut e = Enc::new();
        e.put_u32(SET_DELTA | 1);
        e.put_varu32(60_000);
        reject("clock width", e);
        let mut e = Enc::new();
        e.put_u32(SET_DELTA | 1);
        e.put_varu32(MAX_CLOCK as u32 + 1);
        e.put_raw(&vec![0; MAX_CLOCK + 8]);
        reject("clock wider than the pid space", e);
        reject("record count", delta_head(0x7fff_ffff, &[1, 1]));
        let record = |fields: &[u32]| {
            let mut e = delta_head(1, &[5, 5]);
            for &f in fields {
                e.put_varu32(f);
            }
            e
        };
        // pid, seq, k, (gap, inc).., r, (gap, len-1)..
        reject("pid beyond u16", record(&[70_000, 1, 0, 0]));
        reject(
            "more deltas than entries",
            record(&[0, 1, 3, 0, 1, 0, 1, 0, 1, 0]),
        );
        reject("delta index past the clock", record(&[0, 1, 1, 2, 1, 0]));
        reject("entry overflow", record(&[0, 1, 1, 1, u32::MAX, 0]));
        reject("run count", record(&[0, 1, 0, 9]));
        reject("run past u32::MAX", record(&[0, 1, 0, 1, u32::MAX, 1]));
        reject(
            "second run past u32::MAX",
            record(&[0, 1, 0, 2, u32::MAX, 0, 0, 0]),
        );
        reject(
            "more pages than a set may carry",
            record(&[0, 1, 0, 1, 0, 1 << 24]),
        );
        // The edges that are legal: a run ending at u32::MAX, an own
        // entry listed with a zero increment.
        let ok = RecordSet::from_wire(&record(&[0, 1, 1, 0, 0, 1, u32::MAX - 1, 1]).finish());
        let rec = &ok.unwrap().0[0];
        assert_eq!(rec.vc.as_slice(), &[5, 5]);
        assert_eq!(rec.pages, vec![u32::MAX - 1, u32::MAX]);
    }

    #[test]
    fn every_prefix_and_corruption_of_the_forkjoin_set_is_handled() {
        let wire = encode(&forkjoin_set(8, 300), Encoding::Runs);
        assert!(is_delta(&wire));
        for cut in 0..wire.len() {
            assert!(RecordSet::from_wire(&wire[..cut]).is_err(), "prefix {cut}");
        }
        let mut buf = wire.clone();
        for at in 0..wire.len() {
            for byte in 0..=u8::MAX {
                buf[at] = byte;
                err_or_valid(&buf);
            }
            buf[at] = wire[at];
        }
    }

    /// One drawn record: `(pid, seq)`, `(entries, bumps)`, `(pages, sort)`.
    type Spec = ((u16, u32), (Vec<u32>, Vec<(usize, u32)>), (Vec<u32>, bool));

    /// Build a set from drawn specs. A `related` set shares one width
    /// and each clock sits a few `bumps` above `base` (what travels
    /// together in practice); otherwise every record brings its own
    /// width and arbitrary `entries`.
    fn build(related: bool, width: usize, base: &[u32], specs: Vec<Spec>) -> Vec<Record> {
        specs
            .into_iter()
            .map(|((pid, seq), (entries, bumps), (mut pages, sort))| {
                let mut vc = clock(if related { &base[..width] } else { &entries });
                if related && width > 0 {
                    for (i, bump) in bumps {
                        let i = (i % width) as Pid;
                        vc.set(i, vc.get(i).saturating_add(bump));
                    }
                }
                if sort {
                    pages.sort_unstable();
                    pages.dedup();
                }
                // Half the records carry the canonical own entry.
                let seq = if seq % 2 == 0 && (pid as usize) < vc.len() {
                    vc.get(pid)
                } else {
                    seq
                };
                Record {
                    pid,
                    seq,
                    vc,
                    pages,
                }
            })
            .collect()
    }

    fn entry() -> impl Strategy<Value = u32> {
        prop_oneof![0u32..500, any::<u32>()]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Any set — mixed clock widths, cross-pid records, unsorted or
        /// empty page lists, 0/1/many records — round-trips under both
        /// encodings, and `Runs` is never larger than its per-record form.
        #[test]
        fn prop_any_set_roundtrips_and_delta_is_never_larger(
            related in any::<bool>(),
            canonical_pages in any::<bool>(),
            width in 0usize..41,
            base in proptest::collection::vec(entry(), 41..42),
            specs in proptest::collection::vec(
                (
                    (0u16..44, 0u32..1000),
                    (
                        proptest::collection::vec(entry(), 0..41),
                        proptest::collection::vec((0usize..41, entry()), 0..4),
                    ),
                    (
                        prop_oneof![
                            proptest::collection::vec(0u32..600, 0..80),
                            proptest::collection::vec(any::<u32>(), 0..12)
                        ],
                        any::<bool>(),
                    ),
                ),
                0..10
            )
        ) {
            let mut specs = specs;
            for spec in &mut specs {
                spec.2.1 |= canonical_pages;
            }
            let set = build(related, width, &base, specs);
            for encoding in [Encoding::Flat, Encoding::Runs] {
                let wire = encode(&set, encoding);
                let mut d = Dec::new(&wire);
                prop_assert_eq!(&RecordSet::dec_vec(&mut d).unwrap(), &set);
                prop_assert!(d.is_done());
            }
            prop_assert!(encode(&set, Encoding::Runs).len() <= per_record(&set).len());
        }

        /// Every strict prefix of a delta-coded set is an error; every
        /// single-byte corruption is an error or a valid set.
        #[test]
        fn prop_damaged_delta_sets_never_panic(
            width in 1usize..41,
            base in proptest::collection::vec(0u32..500, 41..42),
            specs in proptest::collection::vec(
                (
                    (0u16..44, 0u32..1000),
                    (Just(vec![]), proptest::collection::vec((0usize..41, 0u32..300), 0..4)),
                    (proptest::collection::vec(0u32..600, 0..40), Just(true)),
                ),
                2..8
            ),
            flips in proptest::collection::vec(1u8..255, 64..65)
        ) {
            let wire = encode(&build(true, width, &base, specs), Encoding::Runs);
            prop_assert!(is_delta(&wire));
            for cut in 0..wire.len() {
                prop_assert!(RecordSet::from_wire(&wire[..cut]).is_err());
            }
            let mut buf = wire.clone();
            for at in 0..wire.len() {
                buf[at] ^= flips[at % flips.len()];
                err_or_valid(&buf);
                buf[at] = wire[at];
            }
        }
    }
}

#[cfg(test)]
mod rle_proptests {
    use super::*;
    use proptest::prelude::*;

    fn rec_with(pages: Vec<PageId>, pid: Pid, seq: Seq) -> Record {
        let mut vc = Vc::new(4);
        vc.set(pid, seq.max(1));
        Record {
            pid,
            seq: seq.max(1),
            vc,
            pages,
        }
    }

    proptest! {
        /// Arbitrary page lists (any order, duplicates allowed): decode
        /// reproduces the exact sequence and the hybrid never exceeds
        /// the flat size.
        #[test]
        fn prop_page_set_roundtrip_any_order(
            pages in proptest::collection::vec(any::<u32>(), 0..300)
        ) {
            let mut e = Enc::new();
            enc_pages(&pages, &mut e);
            let buf = e.finish();
            prop_assert!(buf.len() <= flat_pages_wire_bytes(&pages));
            let mut d = Dec::new(&buf);
            let back = dec_pages(&mut d).unwrap();
            prop_assert_eq!(back, pages);
            prop_assert!(d.is_done());
        }

        /// Sorted-deduped sets (the canonical record shape): same
        /// round-trip and size bound, exercising the run path.
        #[test]
        fn prop_sorted_page_set_roundtrip(
            raw in proptest::collection::vec(0u32..5000, 0..300)
        ) {
            let mut pages = raw;
            pages.sort_unstable();
            pages.dedup();
            let mut e = Enc::new();
            enc_pages(&pages, &mut e);
            let buf = e.finish();
            prop_assert!(buf.len() <= flat_pages_wire_bytes(&pages));
            let back = dec_pages(&mut Dec::new(&buf)).unwrap();
            prop_assert_eq!(back, pages);
        }

        /// Whole RecordSets round-trip through the wire and respect the
        /// flat-size ceiling (the satellite's RLE wire-format pin).
        #[test]
        fn prop_record_set_roundtrip(
            specs in proptest::collection::vec(
                (0u16..4, 1u32..100, proptest::collection::vec(0u32..4096, 0..64)),
                0..8
            )
        ) {
            let set = RecordSet(
                specs
                    .into_iter()
                    .map(|(pid, seq, mut pages)| {
                        pages.sort_unstable();
                        pages.dedup();
                        rec_with(pages, pid, seq)
                    })
                    .collect(),
            );
            let back = RecordSet::from_wire(&set.to_wire()).unwrap();
            prop_assert_eq!(&back, &set);
            prop_assert!(set.wire_bytes() <= set.flat_wire_bytes());
        }

        /// Garbage never panics the page-set decoder.
        #[test]
        fn prop_dec_pages_never_panics(buf in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = dec_pages(&mut Dec::new(&buf));
            let _ = RecordSet::from_wire(&buf);
        }
    }
}
