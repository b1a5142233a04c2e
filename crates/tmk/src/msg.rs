//! Protocol messages.
//!
//! Every message crossing the simulated network is one [`Msg`], encoded
//! with the hand-rolled wire codec (realistic sizes feed the traffic
//! statistics that Tables 1–2 and §5.4 are built on).
//!
//! Requests served by the *service thread* (the SIGIO-handler analog)
//! can be answered at any time, even while the peer's application
//! thread computes: `ConnHello`, `PageReq`, `DiffReq`, `RecordsReq`,
//! `LockReq`, `LockRelease` — and the one-way `DiffPush`, which the
//! service thread both sends and receives.
//!
//! *Control* messages are forwarded by the service thread to the
//! application thread: `Fork`, `JoinArrive`, `BarrierRelease`, the GC
//! sequence, `Commit`/`JoinInit`, `ReadyJoin`, `Terminate`. A barrier
//! is two one-way waves, like a region's join followed by a fork:
//! `JoinArrive` aggregates travel up the reduce shape
//! ([`crate::tree::Shapes::reduce`]), and the master's
//! `BarrierRelease`s travel down the release shape
//! ([`crate::tree::Shapes::release`]).

use crate::config::DsmConfig;
use crate::diff::Diff;
use crate::page::Wn;
use crate::records::{Record, RecordSet};
use crate::types::{Addr, Epoch, PageId, Pid, Seq, Vc};
use nowmp_net::Gpid;
use nowmp_util::wire::{Dec, Enc, Encoding, Wire, WireError};
use std::sync::Arc;

/// Shared-array element kinds carried in the handle registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElemKind {
    /// IEEE-754 double stored in one slot.
    F64 = 0,
    /// Unsigned 64-bit integer in one slot.
    U64 = 1,
    /// Signed 64-bit integer in one slot.
    I64 = 2,
}

impl ElemKind {
    fn from_u8(v: u8) -> Result<Self, WireError> {
        match v {
            0 => Ok(ElemKind::F64),
            1 => Ok(ElemKind::U64),
            2 => Ok(ElemKind::I64),
            t => Err(WireError::BadTag {
                what: "ElemKind",
                tag: t as u32,
            }),
        }
    }
}

/// A published shared allocation: name → (address, length, kind).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegEntry {
    /// Registry key used by application code.
    pub name: String,
    /// First slot of the allocation (page-aligned).
    pub addr: Addr,
    /// Length in slots.
    pub len: u64,
    /// Element kind (documentation/type-check aid).
    pub kind: ElemKind,
    /// Registry version at publication (for delta distribution).
    pub ver: u32,
}

impl Wire for RegEntry {
    fn enc(&self, e: &mut Enc) {
        e.put_str(&self.name);
        e.put_u64(self.addr);
        e.put_u64(self.len);
        e.put_u8(self.kind as u8);
        e.put_u32(self.ver);
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        Ok(RegEntry {
            name: d.get_str()?.to_owned(),
            addr: d.get_u64()?,
            len: d.get_u64()?,
            kind: ElemKind::from_u8(d.get_u8()?)?,
            ver: d.get_u32()?,
        })
    }
}

/// Run-length-encoded page directory: who owns each page after a GC.
///
/// "It suffices for the master to send the joining process a message
/// describing where an up-to-date copy of every shared memory page is
/// located" — this is that message's payload.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DirRle {
    /// `(run_length, owner)` pairs covering pages `0..total`.
    pub runs: Vec<(u32, Gpid)>,
}

impl DirRle {
    /// Encode a full directory.
    pub fn from_vec(dir: &[Gpid]) -> Self {
        let mut runs: Vec<(u32, Gpid)> = Vec::new();
        for &g in dir {
            match runs.last_mut() {
                Some((n, last)) if *last == g => *n += 1,
                _ => runs.push((1, g)),
            }
        }
        DirRle { runs }
    }

    /// Expand to one owner per page.
    pub fn to_vec(&self) -> Vec<Gpid> {
        let mut v = Vec::new();
        for &(n, g) in &self.runs {
            v.extend(std::iter::repeat_n(g, n as usize));
        }
        v
    }

    /// Total pages covered.
    pub fn total(&self) -> usize {
        self.runs.iter().map(|&(n, _)| n as usize).sum()
    }
}

impl Wire for DirRle {
    fn enc(&self, e: &mut Enc) {
        e.put_u32(self.runs.len() as u32);
        for &(n, g) in &self.runs {
            e.put_u32(n);
            g.enc(e);
        }
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        let n = d.get_u32()? as usize;
        if n > 1 << 24 {
            return Err(WireError::BadLength {
                what: "DirRle",
                len: n,
            });
        }
        let mut runs = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let c = d.get_u32()?;
            let g = Gpid::dec(d)?;
            runs.push((c, g));
        }
        Ok(DirRle { runs })
    }
}

impl Wire for Wn {
    fn enc(&self, e: &mut Enc) {
        e.put_u16(self.pid);
        e.put_u32(self.seq);
        e.put_u64(self.vcsum);
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        Ok(Wn {
            pid: d.get_u16()?,
            seq: d.get_u32()?,
            vcsum: d.get_u64()?,
        })
    }
}

/// A page's sparse applied-clock summary in a GC report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageApplied {
    /// The page.
    pub page: PageId,
    /// Non-zero `(pid, seq)` entries of the local copy's applied clock.
    pub applied: Vec<(Pid, Seq)>,
}

impl Wire for PageApplied {
    fn enc(&self, e: &mut Enc) {
        e.put_u32(self.page);
        e.put_u32(self.applied.len() as u32);
        for &(p, s) in &self.applied {
            e.put_u16(p);
            e.put_u32(s);
        }
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        let page = d.get_u32()?;
        let n = d.get_u32()? as usize;
        if n > 1 << 20 {
            return Err(WireError::BadLength {
                what: "PageApplied",
                len: n,
            });
        }
        let mut applied = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            applied.push((d.get_u16()?, d.get_u32()?));
        }
        Ok(PageApplied { page, applied })
    }
}

/// A page served whole in a [`Msg::DiffRep`]: the creator's snapshot
/// and the applied clock it reflects, as a `PageRep` carries them.
#[derive(Debug, Clone, PartialEq)]
pub struct WholePage {
    /// The page.
    pub page: PageId,
    /// Sparse applied clock of the served copy.
    pub applied: Vec<(Pid, Seq)>,
    /// Page contents.
    pub words: Vec<u64>,
}

impl WholePage {
    /// Encoded size, in `encoding`, of a page of `words` with `applied`
    /// clock entries: what a creator weighs against the page's chain.
    pub fn wire_bytes(applied: usize, words: &[u64], encoding: Encoding) -> usize {
        let mut e = Enc::with_encoding(8 * words.len() + 8, encoding);
        enc_page_words(words, &mut e);
        4 + (4 + 6 * applied) + e.len()
    }

    /// Decode one, its words at most `max_words`.
    fn dec_bounded(d: &mut Dec<'_>, max_words: usize) -> Result<Self, WireError> {
        Ok(WholePage {
            page: d.get_u32()?,
            applied: dec_applied(d)?,
            words: dec_page_words(d, max_words)?,
        })
    }
}

impl Wire for WholePage {
    fn enc(&self, e: &mut Enc) {
        e.put_u32(self.page);
        enc_applied(&self.applied, e);
        enc_page_words(&self.words, e);
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        WholePage::dec_bounded(d, MAX_PAGE_WORDS)
    }
}

/// Marker bit in a page payload's count word ([`Msg::PageRep`],
/// [`WholePage`]): the words follow in the zero-run form of
/// [`nowmp_util::zrle::encode_runs`] instead of literally. The same
/// idiom as the packed vector clock's marker, so a decoder reads
/// either form.
const WORDS_ZERO_RUNS: u32 = 0x8000_0000;

/// The most words a page payload decodes to without a configuration
/// to bound it ([`Msg::decode`] bounds it by the page size): a 512 KB
/// page.
const MAX_PAGE_WORDS: usize = 1 << 16;

/// Encode a page's words behind their count. [`Encoding::Runs`] sends
/// the zero-run form when it is smaller — a page its owner lends
/// before anyone wrote it is 12 bytes, not 4 KB — and the literal form
/// otherwise; [`Encoding::Flat`] always sends the literal form, the
/// 1999 bytes.
fn enc_page_words(words: &[u64], e: &mut Enc) {
    if e.encoding() == Encoding::Runs {
        let start = e.len();
        e.put_u32(WORDS_ZERO_RUNS | words.len() as u32);
        nowmp_util::zrle::encode_runs(words, e);
        if e.len() - start < 4 + 8 * words.len() {
            return;
        }
        e.truncate(start);
    }
    e.put_u64_slice(words);
}

/// Decode what [`enc_page_words`] wrote, in either form. A count above
/// `max_words`, or runs that overrun or fall short of the count, is an
/// error; nothing is allocated before the count is checked.
fn dec_page_words(d: &mut Dec<'_>, max_words: usize) -> Result<Vec<u64>, WireError> {
    let head = d.get_u32()?;
    let n = (head & !WORDS_ZERO_RUNS) as usize;
    if n > max_words {
        return Err(WireError::BadLength {
            what: "page words",
            len: n,
        });
    }
    if head & WORDS_ZERO_RUNS != 0 {
        return nowmp_util::zrle::decode_runs(d, n);
    }
    let mut words = Vec::new();
    d.get_u64_words_into(&mut words, n)?;
    Ok(words)
}

/// Every message of the DSM + adaptation protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    // ---- service-handled requests ----
    /// New process introducing itself ("asynchronously sets up network
    /// connections first to all other slave processes, then to the
    /// master").
    ConnHello {
        /// Sender's gpid.
        from: Gpid,
    },
    /// Full-page fetch.
    PageReq {
        /// Protocol epoch of the requester.
        epoch: Epoch,
        /// Page wanted.
        page: PageId,
        /// Set by a fault inside a region body on the overlap plane, as
        /// on a [`Msg::DiffReq`]: the requester read this page in a
        /// region, so the server should push every later diff of it
        /// this epoch, from the seq its reply acknowledges
        /// ([`Msg::PageRep::push_after`]). An optional trailing byte
        /// holding the `DiffReq`'s subscribe bit: unset adds nothing to
        /// the wire, so demand-plane requests stay byte-identical.
        subscribe: bool,
    },
    /// Fetch diffs the target created: `(page, seq)` pairs.
    DiffReq {
        /// Protocol epoch.
        epoch: Epoch,
        /// Diff keys wanted from this creator.
        wants: Vec<(PageId, Seq)>,
        /// Set by a demand fault inside a region body on the overlap
        /// plane, as on a [`Msg::PageReq`]: the requester read these
        /// pages in a region, so the creator should push every later
        /// diff of them this epoch without being asked (see
        /// [`Msg::DiffPush`]), from the seq its reply acknowledges
        /// ([`Msg::DiffRep::push_after`]). An optional trailing byte:
        /// unset adds nothing to the wire, so demand-plane requests
        /// stay byte-identical.
        subscribe: bool,
        /// Set by a page collection (a GC completion) on the overlap
        /// plane when it asks for two or more diffs of one page: answer
        /// a page whole
        /// ([`Msg::DiffRep::pages`]) when its chain would be larger.
        /// Shares the subscribe mark's optional byte.
        whole_if_smaller: bool,
    },
    /// Fetch interval records unknown to the holder of `vc` (lock
    /// acquire consistency data).
    RecordsReq {
        /// Protocol epoch.
        epoch: Epoch,
        /// Requester's vector clock.
        vc: Vc,
    },
    /// Lock acquire request, sent to the lock's manager.
    LockReq {
        /// Protocol epoch.
        epoch: Epoch,
        /// Lock id.
        lock: u32,
    },
    /// Lock release notice, sent to the lock's manager (one-way).
    LockRelease {
        /// Protocol epoch.
        epoch: Epoch,
        /// Lock id.
        lock: u32,
    },
    /// Writer-initiated diffs (one-way, service thread to service
    /// thread): the sender just closed an interval and the receiver
    /// subscribed to these pages with a marked [`Msg::PageReq`] or
    /// [`Msg::DiffReq`]. The diffs are shared with the sender's own
    /// store, so one encoding serves every reader of the same pages.
    DiffPush {
        /// Protocol epoch the diffs belong to; a receiver in any other
        /// epoch drops the message.
        epoch: Epoch,
        /// `(page, seq, diff)` triples created by the sender.
        diffs: Vec<(PageId, Seq, Arc<Diff>)>,
    },

    // ---- replies ----
    /// Generic acknowledgement.
    Ack,
    /// Full-page reply.
    PageRep {
        /// Sparse applied clock of the served copy.
        applied: Vec<(Pid, Seq)>,
        /// Page contents (word-atomic snapshot); empty on redirect.
        words: Vec<u64>,
        /// Set when the responder has no copy: try this process.
        redirect: Option<Gpid>,
        /// The acknowledgement of a subscribing request: the server's
        /// last closed seq when it entered the requester into the
        /// page's reader set, so it pushes every diff of the page
        /// closed after it. An optional trailing `u32`: absent on an
        /// unmarked request's reply and on a redirect, which
        /// subscribes nobody.
        push_after: Option<Seq>,
    },
    /// Diff reply: `(page, seq, diff)` triples.
    DiffRep {
        /// The requested diffs in request order, less those of the
        /// pages served whole.
        diffs: Vec<(PageId, Seq, Diff)>,
        /// Pages a `whole_if_smaller` request gets whole instead of
        /// their chains. An optional trailing section: empty adds
        /// nothing to the wire, unless `push_after` follows it.
        pages: Vec<WholePage>,
        /// The acknowledgement of a subscribing request, as on
        /// [`Msg::PageRep::push_after`], for every page the request
        /// named. An optional trailing `u32` behind the `pages`
        /// section, which is then written even when empty.
        push_after: Option<Seq>,
    },
    /// Interval records reply.
    RecordsRep {
        /// Records the requester had not seen.
        records: Vec<Record>,
    },
    /// Lock grant: fetch consistency records from `prev` (if any) before
    /// entering the critical section.
    LockRep {
        /// The previous holder (None: first acquisition).
        prev: Option<Gpid>,
    },

    // ---- control (application thread) ----
    /// Master → slave: execute a parallel region (the `Tmk_fork`). The
    /// payload is receiver-independent: a rank with children in the fork
    /// shape (see [`crate::tree`]) forwards it verbatim before running.
    Fork {
        /// Protocol epoch.
        epoch: Epoch,
        /// Running fork counter (diagnostics, checkpoint replay).
        fork_no: u64,
        /// Region id to run (application's outlined procedure).
        region: u32,
        /// Opaque region parameters.
        params: Vec<u8>,
        /// Global vector clock after the master's merge.
        vc: Vc,
        /// Records this slave has not seen.
        records: Vec<Record>,
        /// New registry entries since the last fork this slave saw.
        registry_delta: Vec<RegEntry>,
        /// Slots allocated so far (keeps the slave's page table sized).
        alloc_slots: Addr,
    },
    /// Rank → its parent in the reduce shape: an arrival at a barrier
    /// or at the join (the `Tmk_join`, the region's own barrier),
    /// one-way, aggregating the sender's whole subtree.
    JoinArrive {
        /// Protocol epoch.
        epoch: Epoch,
        /// The sender: the first rank of the contiguous range the
        /// aggregate covers ([`crate::tree::Shape::subtree_size`]).
        pid: Pid,
        /// The merged clock of the ranks it covers.
        vc: Vc,
        /// Records those ranks created since their last arrival.
        records: Vec<Record>,
        /// The region's `reduction(+)` partials of every rank the
        /// aggregate covers, in pid order (the sender's own first):
        /// what a generation whose reduction rides the join hands the
        /// master to fold. Empty at a barrier and for a region without
        /// the clause — and then absent from the wire, keeping every
        /// such arrival, the whole 1999 wire included, byte-identical.
        partials: Vec<f64>,
    },
    /// Master → the root's children in the release shape: the barrier
    /// release, one-way, relayed verbatim by interior ranks to their
    /// subtrees. Carries everything any rank of the receiver's subtree
    /// lacks — record application dedups over-delivery.
    BarrierRelease {
        /// Merged global clock.
        vc: Vc,
        /// Records newer than the pointwise-min arrival clock of the
        /// receiver's subtree.
        records: Vec<Record>,
    },
    /// Master → slave: report per-page applied clocks (GC step 1).
    GcQuery {
        /// Protocol epoch.
        epoch: Epoch,
    },
    /// Slave → master: the report.
    GcReport {
        /// Applied summaries for every page with a local copy.
        pages: Vec<PageApplied>,
    },
    /// Master → slave: complete these pages by fetching the named diffs
    /// (GC step 2); reply `Ack` when done.
    GcFetch {
        /// Protocol epoch.
        epoch: Epoch,
        /// `(page, missing write notices)` to pull before commit.
        wants: Vec<(PageId, Vec<Wn>)>,
    },
    /// Master → all: finish GC / adaptation: install new epoch, team,
    /// directory; drop listed incomplete copies; reply `Ack`.
    Commit {
        /// Epoch being left.
        epoch: Epoch,
        /// New epoch (== old + 1).
        new_epoch: Epoch,
        /// New team (possibly identical).
        team: crate::types::Team,
        /// Receiver's pid in the new team.
        my_pid: Pid,
        /// Full page directory after GC.
        dir: DirRle,
        /// Pages whose local copy is incomplete and must be dropped.
        drop_pages: Vec<PageId>,
    },
    /// Master → embryo: full state for a process joining the
    /// computation (or initial team formation); reply `Ack`. The
    /// receiver derives its pid from `team` (its own gpid's rank), so
    /// the payload is receiver-independent and tree-relayable.
    JoinInit {
        /// Epoch the joiner enters at.
        epoch: Epoch,
        /// The team.
        team: crate::types::Team,
        /// Full page directory.
        dir: DirRle,
        /// Complete handle registry.
        registry: Vec<RegEntry>,
        /// Slots allocated so far.
        alloc_slots: Addr,
        /// Tree dissemination (initial team formation): relay to our
        /// fork-shape children and ack only once they have acked.
        relay: bool,
    },
    /// Embryo → master: connections set up, ready to join (one-way).
    /// "When the master receives this connection request, it knows that
    /// the new process has set up all its other connections."
    ReadyJoin {
        /// The embryo's gpid.
        gpid: Gpid,
    },
    /// Master → slave: leave the computation (one-way; the process
    /// exits its wait loop and its endpoint is unregistered).
    Terminate,
}

/// Tags 14 and 15 are retired (the barrier's own arrival and its
/// reply): a buffer carrying one fails to decode with
/// [`WireError::BadTag`].
mod tags {
    pub const CONN_HELLO: u8 = 1;
    pub const PAGE_REQ: u8 = 2;
    pub const DIFF_REQ: u8 = 3;
    pub const RECORDS_REQ: u8 = 4;
    pub const LOCK_REQ: u8 = 5;
    pub const LOCK_RELEASE: u8 = 6;
    pub const ACK: u8 = 7;
    pub const PAGE_REP: u8 = 8;
    pub const DIFF_REP: u8 = 9;
    pub const RECORDS_REP: u8 = 10;
    pub const LOCK_REP: u8 = 11;
    pub const FORK: u8 = 12;
    pub const JOIN_ARRIVE: u8 = 13;
    pub const GC_QUERY: u8 = 16;
    pub const GC_REPORT: u8 = 17;
    pub const GC_FETCH: u8 = 18;
    pub const COMMIT: u8 = 19;
    pub const JOIN_INIT: u8 = 20;
    pub const READY_JOIN: u8 = 21;
    pub const TERMINATE: u8 = 22;
    pub const BARRIER_RELEASE: u8 = 23;
    pub const DIFF_PUSH: u8 = 24;
}

/// The byte a `Fork` carries after `alloc_slots`, where a relay flag
/// was: kept so no payload size moves; decoders skip it.
const FORK_RESERVED: u8 = 0;

/// Encode a sparse applied clock behind a count (`PageRep`,
/// [`WholePage`]).
fn enc_applied(applied: &[(Pid, Seq)], e: &mut Enc) {
    e.put_u32(applied.len() as u32);
    for &(p, s) in applied {
        e.put_u16(p);
        e.put_u32(s);
    }
}

/// Decode what [`enc_applied`] wrote.
fn dec_applied(d: &mut Dec<'_>) -> Result<Vec<(Pid, Seq)>, WireError> {
    let n = d.get_u32()? as usize;
    if n > 1 << 20 {
        return Err(WireError::BadLength {
            what: "applied clock",
            len: n,
        });
    }
    let mut applied = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        applied.push((d.get_u16()?, d.get_u32()?));
    }
    Ok(applied)
}

/// Decode a `DiffRep`'s count-prefixed whole pages, each at most
/// `max_words` words. Every page takes at least 12 bytes, so a count
/// the buffer cannot hold is refused before anything is allocated.
fn dec_whole_pages(d: &mut Dec<'_>, max_words: usize) -> Result<Vec<WholePage>, WireError> {
    let n = d.get_u32()? as usize;
    if n > d.remaining() / 12 {
        return Err(WireError::BadLength {
            what: "whole pages",
            len: n,
        });
    }
    (0..n)
        .map(|_| WholePage::dec_bounded(d, max_words))
        .collect()
}

/// The optional byte behind a `DiffReq`'s wants: bit 0 subscribes,
/// bit 1 asks for whole pages. Absent when both are unset. A
/// `PageReq` carries the same byte, with bit 0 only.
const DIFF_REQ_SUBSCRIBE: u8 = 1;
const DIFF_REQ_WHOLE: u8 = 2;

/// Encode `(page, seq, diff)` triples behind a count: the body of
/// `DiffRep` and `DiffPush` (owned or shared diffs alike).
fn enc_diffs<D: std::borrow::Borrow<Diff>>(diffs: &[(PageId, Seq, D)], e: &mut Enc) {
    e.put_u32(diffs.len() as u32);
    for (p, s, diff) in diffs {
        e.put_u32(*p);
        e.put_u32(*s);
        diff.borrow().enc(e);
    }
}

/// Decode what [`enc_diffs`] wrote, each diff of a page of at most
/// `max_words` words, wrapping each with `own`.
fn dec_diffs<D>(
    d: &mut Dec<'_>,
    what: &'static str,
    max_words: usize,
    own: impl Fn(Diff) -> D,
) -> Result<Vec<(PageId, Seq, D)>, WireError> {
    let n = d.get_u32()? as usize;
    if n > 1 << 22 {
        return Err(WireError::BadLength { what, len: n });
    }
    let mut diffs = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        diffs.push((
            d.get_u32()?,
            d.get_u32()?,
            own(Diff::dec_bounded(d, max_words)?),
        ));
    }
    Ok(diffs)
}

/// Encode a join's reduction partials as an *optional trailing field*:
/// emitted only when non-empty, as their IEEE-754 bit patterns.
fn enc_partials(partials: &[f64], e: &mut Enc) {
    if !partials.is_empty() {
        let bits: Vec<u64> = partials.iter().map(|p| p.to_bits()).collect();
        e.put_u64_slice(&bits);
    }
}

/// Decode optional trailing reduction partials (absent = empty).
fn dec_partials(d: &mut Dec<'_>) -> Result<Vec<f64>, WireError> {
    if d.is_done() {
        return Ok(Vec::new());
    }
    Ok(d.get_u64_vec()?.into_iter().map(f64::from_bits).collect())
}

/// Decode an optional trailing acknowledgement (absent = `None`).
fn dec_push_after(d: &mut Dec<'_>) -> Result<Option<Seq>, WireError> {
    if d.is_done() {
        Ok(None)
    } else {
        d.get_u32().map(Some)
    }
}

impl Wire for Msg {
    fn enc(&self, e: &mut Enc) {
        use tags::*;
        match self {
            Msg::ConnHello { from } => {
                e.put_u8(CONN_HELLO);
                from.enc(e);
            }
            Msg::PageReq {
                epoch,
                page,
                subscribe,
            } => {
                e.put_u8(PAGE_REQ);
                e.put_u32(*epoch);
                e.put_u32(*page);
                if *subscribe {
                    e.put_u8(DIFF_REQ_SUBSCRIBE);
                }
            }
            Msg::DiffReq {
                epoch,
                wants,
                subscribe,
                whole_if_smaller,
            } => {
                e.put_u8(DIFF_REQ);
                e.put_u32(*epoch);
                e.put_u32(wants.len() as u32);
                for &(p, s) in wants {
                    e.put_u32(p);
                    e.put_u32(s);
                }
                let marks = if *subscribe { DIFF_REQ_SUBSCRIBE } else { 0 }
                    | if *whole_if_smaller { DIFF_REQ_WHOLE } else { 0 };
                if marks != 0 {
                    e.put_u8(marks);
                }
            }
            Msg::RecordsReq { epoch, vc } => {
                e.put_u8(RECORDS_REQ);
                e.put_u32(*epoch);
                vc.enc(e);
            }
            Msg::LockReq { epoch, lock } => {
                e.put_u8(LOCK_REQ);
                e.put_u32(*epoch);
                e.put_u32(*lock);
            }
            Msg::LockRelease { epoch, lock } => {
                e.put_u8(LOCK_RELEASE);
                e.put_u32(*epoch);
                e.put_u32(*lock);
            }
            Msg::DiffPush { epoch, diffs } => {
                e.put_u8(DIFF_PUSH);
                e.put_u32(*epoch);
                enc_diffs(diffs, e);
            }
            Msg::Ack => e.put_u8(ACK),
            Msg::PageRep {
                applied,
                words,
                redirect,
                push_after,
            } => {
                e.put_u8(PAGE_REP);
                enc_applied(applied, e);
                enc_page_words(words, e);
                redirect.enc(e);
                if let Some(seq) = push_after {
                    e.put_u32(*seq);
                }
            }
            Msg::DiffRep {
                diffs,
                pages,
                push_after,
            } => {
                e.put_u8(DIFF_REP);
                enc_diffs(diffs, e);
                if !pages.is_empty() || push_after.is_some() {
                    e.put_seq(pages);
                }
                if let Some(seq) = push_after {
                    e.put_u32(*seq);
                }
            }
            Msg::RecordsRep { records } => {
                e.put_u8(RECORDS_REP);
                RecordSet::enc_slice(records, e);
            }
            Msg::LockRep { prev } => {
                e.put_u8(LOCK_REP);
                prev.enc(e);
            }
            Msg::Fork {
                epoch,
                fork_no,
                region,
                params,
                vc,
                records,
                registry_delta,
                alloc_slots,
            } => {
                e.put_u8(FORK);
                e.put_u32(*epoch);
                e.put_u64(*fork_no);
                e.put_u32(*region);
                e.put_bytes(params);
                vc.enc(e);
                RecordSet::enc_slice(records, e);
                e.put_seq(registry_delta);
                e.put_u64(*alloc_slots);
                e.put_u8(FORK_RESERVED);
            }
            Msg::JoinArrive {
                epoch,
                pid,
                vc,
                records,
                partials,
            } => {
                e.put_u8(JOIN_ARRIVE);
                e.put_u32(*epoch);
                e.put_u16(*pid);
                vc.enc(e);
                RecordSet::enc_slice(records, e);
                enc_partials(partials, e);
            }
            Msg::BarrierRelease { vc, records } => {
                e.put_u8(BARRIER_RELEASE);
                vc.enc(e);
                RecordSet::enc_slice(records, e);
            }
            Msg::GcQuery { epoch } => {
                e.put_u8(GC_QUERY);
                e.put_u32(*epoch);
            }
            Msg::GcReport { pages } => {
                e.put_u8(GC_REPORT);
                e.put_seq(pages);
            }
            Msg::GcFetch { epoch, wants } => {
                e.put_u8(GC_FETCH);
                e.put_u32(*epoch);
                e.put_u32(wants.len() as u32);
                for (p, wns) in wants {
                    e.put_u32(*p);
                    e.put_seq(wns);
                }
            }
            Msg::Commit {
                epoch,
                new_epoch,
                team,
                my_pid,
                dir,
                drop_pages,
            } => {
                e.put_u8(COMMIT);
                e.put_u32(*epoch);
                e.put_u32(*new_epoch);
                team.enc(e);
                e.put_u16(*my_pid);
                dir.enc(e);
                e.put_u32_slice(drop_pages);
            }
            Msg::JoinInit {
                epoch,
                team,
                dir,
                registry,
                alloc_slots,
                relay,
            } => {
                e.put_u8(JOIN_INIT);
                e.put_u32(*epoch);
                team.enc(e);
                dir.enc(e);
                e.put_seq(registry);
                e.put_u64(*alloc_slots);
                e.put_bool(*relay);
            }
            Msg::ReadyJoin { gpid } => {
                e.put_u8(READY_JOIN);
                gpid.enc(e);
            }
            Msg::Terminate => e.put_u8(TERMINATE),
        }
    }

    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        Msg::dec_bounded(d, MAX_PAGE_WORDS)
    }
}

impl Msg {
    /// Decode one message whose page payloads hold at most `max_words`
    /// words.
    fn dec_bounded(d: &mut Dec<'_>, max_words: usize) -> Result<Self, WireError> {
        use tags::*;
        let tag = d.get_u8()?;
        Ok(match tag {
            CONN_HELLO => Msg::ConnHello {
                from: Gpid::dec(d)?,
            },
            PAGE_REQ => Msg::PageReq {
                epoch: d.get_u32()?,
                page: d.get_u32()?,
                subscribe: !d.is_done() && d.get_u8()? & DIFF_REQ_SUBSCRIBE != 0,
            },
            DIFF_REQ => {
                let epoch = d.get_u32()?;
                let n = d.get_u32()? as usize;
                if n > 1 << 22 {
                    return Err(WireError::BadLength {
                        what: "DiffReq",
                        len: n,
                    });
                }
                let mut wants = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    wants.push((d.get_u32()?, d.get_u32()?));
                }
                let marks = if d.is_done() { 0 } else { d.get_u8()? };
                Msg::DiffReq {
                    epoch,
                    wants,
                    subscribe: marks & DIFF_REQ_SUBSCRIBE != 0,
                    whole_if_smaller: marks & DIFF_REQ_WHOLE != 0,
                }
            }
            RECORDS_REQ => Msg::RecordsReq {
                epoch: d.get_u32()?,
                vc: Vc::dec(d)?,
            },
            LOCK_REQ => Msg::LockReq {
                epoch: d.get_u32()?,
                lock: d.get_u32()?,
            },
            LOCK_RELEASE => Msg::LockRelease {
                epoch: d.get_u32()?,
                lock: d.get_u32()?,
            },
            DIFF_PUSH => Msg::DiffPush {
                epoch: d.get_u32()?,
                diffs: dec_diffs(d, "DiffPush", max_words, Arc::new)?,
            },
            ACK => Msg::Ack,
            PAGE_REP => Msg::PageRep {
                applied: dec_applied(d)?,
                words: dec_page_words(d, max_words)?,
                redirect: Option::<Gpid>::dec(d)?,
                push_after: dec_push_after(d)?,
            },
            DIFF_REP => Msg::DiffRep {
                diffs: dec_diffs(d, "DiffRep", max_words, |diff| diff)?,
                pages: if d.is_done() {
                    Vec::new()
                } else {
                    dec_whole_pages(d, max_words)?
                },
                push_after: dec_push_after(d)?,
            },
            RECORDS_REP => Msg::RecordsRep {
                records: RecordSet::dec_vec(d)?,
            },
            LOCK_REP => Msg::LockRep {
                prev: Option::<Gpid>::dec(d)?,
            },
            FORK => Msg::Fork {
                epoch: d.get_u32()?,
                fork_no: d.get_u64()?,
                region: d.get_u32()?,
                params: d.get_bytes()?.to_vec(),
                vc: Vc::dec(d)?,
                records: RecordSet::dec_vec(d)?,
                registry_delta: d.get_seq()?,
                alloc_slots: {
                    let slots = d.get_u64()?;
                    d.get_u8()?; // FORK_RESERVED
                    slots
                },
            },
            JOIN_ARRIVE => Msg::JoinArrive {
                epoch: d.get_u32()?,
                pid: d.get_u16()?,
                vc: Vc::dec(d)?,
                records: RecordSet::dec_vec(d)?,
                partials: dec_partials(d)?,
            },
            BARRIER_RELEASE => Msg::BarrierRelease {
                vc: Vc::dec(d)?,
                records: RecordSet::dec_vec(d)?,
            },
            GC_QUERY => Msg::GcQuery {
                epoch: d.get_u32()?,
            },
            GC_REPORT => Msg::GcReport {
                pages: d.get_seq()?,
            },
            GC_FETCH => {
                let epoch = d.get_u32()?;
                let n = d.get_u32()? as usize;
                if n > 1 << 22 {
                    return Err(WireError::BadLength {
                        what: "GcFetch",
                        len: n,
                    });
                }
                let mut wants = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let p = d.get_u32()?;
                    let wns = d.get_seq()?;
                    wants.push((p, wns));
                }
                Msg::GcFetch { epoch, wants }
            }
            COMMIT => Msg::Commit {
                epoch: d.get_u32()?,
                new_epoch: d.get_u32()?,
                team: crate::types::Team::dec(d)?,
                my_pid: d.get_u16()?,
                dir: DirRle::dec(d)?,
                drop_pages: d.get_u32_vec()?,
            },
            JOIN_INIT => Msg::JoinInit {
                epoch: d.get_u32()?,
                team: crate::types::Team::dec(d)?,
                dir: DirRle::dec(d)?,
                registry: d.get_seq()?,
                alloc_slots: d.get_u64()?,
                relay: d.get_bool()?,
            },
            READY_JOIN => Msg::ReadyJoin {
                gpid: Gpid::dec(d)?,
            },
            TERMINATE => Msg::Terminate,
            t => {
                return Err(WireError::BadTag {
                    what: "Msg",
                    tag: t as u32,
                })
            }
        })
    }
}

impl Msg {
    /// Encode for the transport in the wire encoding of `cfg`'s
    /// generation ([`crate::config::CollectiveConfig::encoding`]) — the
    /// one place a process chooses it. Every message the protocol sends
    /// goes through here.
    pub fn encode(&self, cfg: &DsmConfig) -> bytes::Bytes {
        self.to_bytes_compat(cfg.collectives.encoding())
    }

    /// Decode a whole message as a process of `cfg` receives it: a page
    /// payload longer than `cfg`'s page is an error, as are a diff run
    /// that reaches past it and trailing bytes. Both wire forms decode under either generation.
    pub fn decode(buf: &[u8], cfg: &DsmConfig) -> Result<Msg, WireError> {
        let mut d = Dec::new(buf);
        let msg = Msg::dec_bounded(&mut d, cfg.slots_per_page())?;
        d.expect_done()?;
        Ok(msg)
    }

    /// Encode to bytes in the compact wire forms (tests, and sizing a
    /// payload the way the current generation ships it).
    pub fn to_bytes(&self) -> bytes::Bytes {
        self.to_bytes_compat(Encoding::Runs)
    }

    /// Encode with an explicit wire [`Encoding`]: only clocks and
    /// record sets differ, where [`Encoding::Flat`] emits the
    /// pre-compaction flat page-set notices the 1999-faithful
    /// reproduction keeps its calibrated payload sizes with. Decoders
    /// accept both forms.
    fn to_bytes_compat(&self, encoding: Encoding) -> bytes::Bytes {
        let mut e = Enc::with_encoding(64, encoding);
        self.enc(&mut e);
        e.finish_bytes()
    }

    /// True when the service thread must forward this to the
    /// application thread instead of handling it inline.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Msg::Fork { .. }
                | Msg::JoinArrive { .. }
                | Msg::BarrierRelease { .. }
                | Msg::GcQuery { .. }
                | Msg::GcFetch { .. }
                | Msg::Commit { .. }
                | Msg::JoinInit { .. }
                | Msg::ReadyJoin { .. }
                | Msg::Terminate
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Team;

    fn roundtrip(m: &Msg) {
        let b = m.to_bytes();
        let back = Msg::from_wire(&b).unwrap();
        assert_eq!(*m, back);
    }

    /// One or two instances of every variant, clocks with three entries
    /// and records over two pages.
    fn all_variants() -> Vec<Msg> {
        let mut vc = Vc::new(3);
        vc.set(1, 4);
        let rec = Record {
            pid: 1,
            seq: 4,
            vc: vc.clone(),
            pages: vec![3, 9],
        };
        let team = Team::new(2, vec![Gpid(1), Gpid(5)]);
        let dir = DirRle::from_vec(&[Gpid(1), Gpid(1), Gpid(5)]);
        vec![
            Msg::ConnHello { from: Gpid(9) },
            Msg::PageReq {
                epoch: 1,
                page: 7,
                subscribe: false,
            },
            Msg::PageReq {
                epoch: 1,
                page: 7,
                subscribe: true,
            },
            Msg::DiffReq {
                epoch: 1,
                wants: vec![(7, 2), (8, 1)],
                subscribe: false,
                whole_if_smaller: false,
            },
            Msg::DiffReq {
                epoch: 1,
                wants: vec![(7, 2), (8, 1)],
                subscribe: true,
                whole_if_smaller: false,
            },
            Msg::DiffReq {
                epoch: 1,
                wants: vec![(7, 2), (8, 1)],
                subscribe: false,
                whole_if_smaller: true,
            },
            Msg::DiffReq {
                epoch: 1,
                wants: vec![(7, 2)],
                subscribe: true,
                whole_if_smaller: true,
            },
            Msg::DiffPush {
                epoch: 1,
                diffs: vec![
                    (7, 2, Arc::new(Diff::of_run(1, &[42]))),
                    (8, 2, Arc::new(Diff::of_run(0, &[1, 2]))),
                ],
            },
            Msg::RecordsReq {
                epoch: 1,
                vc: vc.clone(),
            },
            Msg::LockReq { epoch: 1, lock: 3 },
            Msg::LockRelease { epoch: 1, lock: 3 },
            Msg::Ack,
            Msg::PageRep {
                applied: vec![(0, 2), (1, 4)],
                words: vec![1, 2, 3],
                redirect: None,
                push_after: None,
            },
            Msg::PageRep {
                applied: vec![(0, 2), (1, 4)],
                words: vec![1, 2, 3],
                redirect: None,
                push_after: Some(4),
            },
            Msg::PageRep {
                applied: vec![],
                words: vec![],
                redirect: Some(Gpid(4)),
                push_after: None,
            },
            Msg::DiffRep {
                diffs: vec![(7, 2, Diff::of_run(1, &[42]))],
                pages: vec![],
                push_after: None,
            },
            Msg::DiffRep {
                diffs: vec![(7, 2, Diff::of_run(1, &[42]))],
                pages: vec![],
                push_after: Some(0),
            },
            Msg::DiffRep {
                diffs: vec![(7, 2, Diff::of_run(1, &[42]))],
                pages: vec![WholePage {
                    page: 8,
                    applied: vec![(0, 2), (1, 3)],
                    words: vec![5, 6, 7],
                }],
                push_after: None,
            },
            Msg::DiffRep {
                diffs: vec![],
                pages: vec![WholePage {
                    page: 8,
                    applied: vec![(0, 2), (1, 3)],
                    words: vec![5, 6, 7],
                }],
                push_after: Some(9),
            },
            Msg::RecordsRep {
                records: vec![rec.clone()],
            },
            Msg::LockRep {
                prev: Some(Gpid(2)),
            },
            Msg::Fork {
                epoch: 1,
                fork_no: 10,
                region: 2,
                params: vec![1, 2, 3],
                vc: vc.clone(),
                records: vec![rec.clone()],
                registry_delta: vec![RegEntry {
                    name: "grid".into(),
                    addr: 512,
                    len: 100,
                    kind: ElemKind::F64,
                    ver: 1,
                }],
                alloc_slots: 1024,
            },
            Msg::Fork {
                epoch: 1,
                fork_no: 11,
                region: 2,
                params: vec![],
                vc: vc.clone(),
                records: vec![rec.clone()],
                registry_delta: vec![],
                alloc_slots: 1024,
            },
            Msg::JoinArrive {
                epoch: 1,
                pid: 2,
                vc: vc.clone(),
                records: vec![],
                partials: vec![],
            },
            Msg::JoinArrive {
                epoch: 1,
                pid: 1,
                vc: vc.clone(),
                records: vec![rec.clone()],
                partials: vec![0.5, -2.25],
            },
            Msg::BarrierRelease {
                vc: vc.clone(),
                records: vec![rec.clone()],
            },
            Msg::GcQuery { epoch: 1 },
            Msg::GcReport {
                pages: vec![PageApplied {
                    page: 3,
                    applied: vec![(0, 1)],
                }],
            },
            Msg::GcFetch {
                epoch: 1,
                wants: vec![(
                    3,
                    vec![Wn {
                        pid: 0,
                        seq: 1,
                        vcsum: 1,
                    }],
                )],
            },
            Msg::Commit {
                epoch: 1,
                new_epoch: 2,
                team: team.clone(),
                my_pid: 1,
                dir: dir.clone(),
                drop_pages: vec![4, 5],
            },
            Msg::JoinInit {
                epoch: 2,
                team,
                dir,
                registry: vec![],
                alloc_slots: 2048,
                relay: true,
            },
            Msg::ReadyJoin { gpid: Gpid(7) },
            Msg::Terminate,
        ]
    }

    #[test]
    fn all_variants_roundtrip() {
        for m in &all_variants() {
            roundtrip(m);
        }
    }

    #[test]
    fn only_clocks_and_record_sets_follow_the_generation() {
        // `Msg::encode` hands every message the process's encoding, so
        // this pins which payloads a generation changes: exactly the
        // variants that carry a clock or a record set.
        const CARRY_CLOCK_OR_RECORDS: [&str; 5] = [
            "RecordsReq",
            "RecordsRep",
            "Fork",
            "JoinArrive",
            "BarrierRelease",
        ];
        let (y1999, current) = (
            DsmConfig::default_4k().generation_1999(),
            DsmConfig::default_4k(),
        );
        for m in all_variants() {
            let (flat, runs) = (m.encode(&y1999), m.encode(&current));
            assert_eq!(flat, m.to_bytes_compat(Encoding::Flat));
            assert_eq!(runs, m.to_bytes());
            assert_eq!(Msg::from_wire(&flat).unwrap(), m);
            let debug = format!("{m:?}");
            let name = debug.split([' ', '(']).next().unwrap();
            assert_eq!(
                flat != runs,
                CARRY_CLOCK_OR_RECORDS.contains(&name),
                "{name}: Flat and Runs bytes differ iff it carries a clock or records"
            );
        }
    }

    #[test]
    fn control_classification() {
        assert!(Msg::Terminate.is_control());
        assert!(Msg::GcQuery { epoch: 0 }.is_control());
        assert!(Msg::BarrierRelease {
            vc: Vc::new(1),
            records: vec![],
        }
        .is_control());
        assert!(!Msg::PageReq {
            epoch: 0,
            page: 0,
            subscribe: true,
        }
        .is_control());
        assert!(!Msg::LockReq { epoch: 0, lock: 0 }.is_control());
        assert!(!Msg::DiffPush {
            epoch: 0,
            diffs: vec![],
        }
        .is_control());
    }

    #[test]
    fn unmarked_diff_req_is_byte_identical_to_the_legacy_wire() {
        // The subscribe and whole-page marks share an optional
        // trailing byte: a sequential-phase fault, a GC fetch of one
        // diff per page and every 1999-generation request encode to
        // exactly what they encoded to before the marks existed.
        let wants = vec![(7u32, 2u32), (8, 1)];
        let mut legacy = Enc::with_encoding(64, Encoding::Runs);
        legacy.put_u8(tags::DIFF_REQ);
        legacy.put_u32(3);
        legacy.put_u32(wants.len() as u32);
        for &(p, s) in &wants {
            legacy.put_u32(p);
            legacy.put_u32(s);
        }
        let legacy = legacy.finish();
        let req = |subscribe, whole_if_smaller| Msg::DiffReq {
            epoch: 3,
            wants: wants.clone(),
            subscribe,
            whole_if_smaller,
        };
        assert_eq!(&req(false, false).to_bytes()[..], &legacy[..]);
        // The subscribe mark reads as it did when it was a `bool`.
        let mut subscribed = legacy.clone();
        subscribed.push(1);
        assert_eq!(&req(true, false).to_bytes()[..], &subscribed[..]);
        for marks in [(false, true), (true, true)] {
            let bytes = req(marks.0, marks.1).to_bytes();
            assert_eq!(bytes.len(), legacy.len() + 1);
            assert_eq!(Msg::from_wire(&bytes).unwrap(), req(marks.0, marks.1));
        }
        // A `PageReq` carries the same subscribe byte, and only when
        // marked: the 1999 generation never marks one.
        let mut legacy = Enc::with_encoding(64, Encoding::Runs);
        legacy.put_u8(tags::PAGE_REQ);
        legacy.put_u32(3);
        legacy.put_u32(7);
        let legacy = legacy.finish();
        let req = |subscribe| Msg::PageReq {
            epoch: 3,
            page: 7,
            subscribe,
        };
        assert_eq!(&req(false).to_bytes()[..], &legacy[..]);
        let mut subscribed = legacy.clone();
        subscribed.push(DIFF_REQ_SUBSCRIBE);
        assert_eq!(&req(true).to_bytes()[..], &subscribed[..]);
        assert_eq!(Msg::from_wire(&subscribed).unwrap(), req(true));
    }

    #[test]
    fn page_less_diff_rep_is_byte_identical_to_the_legacy_wire() {
        // Whole pages are an optional trailing section: a reply with no
        // page (every 1999-generation reply) adds zero bytes.
        let diffs = vec![(7u32, 2u32, Diff::of_run(1, &[42]))];
        let mut legacy = Enc::with_encoding(64, Encoding::Runs);
        legacy.put_u8(tags::DIFF_REP);
        enc_diffs(&diffs, &mut legacy);
        let legacy = legacy.finish();
        let rep = |push_after| Msg::DiffRep {
            diffs: diffs.clone(),
            pages: vec![],
            push_after,
        };
        assert_eq!(&rep(None).to_bytes()[..], &legacy[..]);
        // An acknowledgement follows the whole-page section, which is
        // then written even when empty.
        let mut acked = legacy.to_vec();
        acked.extend_from_slice(&0u32.to_le_bytes());
        acked.extend_from_slice(&5u32.to_le_bytes());
        assert_eq!(&rep(Some(5)).to_bytes()[..], &acked[..]);
        assert_eq!(Msg::from_wire(&acked).unwrap(), rep(Some(5)));
    }

    #[test]
    fn unacknowledged_page_rep_is_byte_identical_to_the_legacy_wire() {
        let mut legacy = Enc::with_encoding(64, Encoding::Runs);
        legacy.put_u8(tags::PAGE_REP);
        enc_applied(&[(1, 4)], &mut legacy);
        legacy.put_u64_slice(&[7, 8]);
        None::<Gpid>.enc(&mut legacy);
        let legacy = legacy.finish();
        let rep = |push_after| Msg::PageRep {
            applied: vec![(1, 4)],
            words: vec![7, 8],
            redirect: None,
            push_after,
        };
        assert_eq!(&rep(None).to_bytes()[..], &legacy[..]);
        let mut acked = legacy.to_vec();
        acked.extend_from_slice(&4u32.to_le_bytes());
        assert_eq!(&rep(Some(4)).to_bytes()[..], &acked[..]);
        assert_eq!(Msg::from_wire(&acked).unwrap(), rep(Some(4)));
    }

    #[test]
    fn a_whole_page_weighs_what_it_encodes_to() {
        let mut sparse = vec![0; 32];
        sparse[9] = 5;
        for words in [vec![1; 32], sparse, vec![0; 32]] {
            let page = WholePage {
                page: 4,
                applied: vec![(0, 1), (3, 9)],
                words,
            };
            for encoding in [Encoding::Flat, Encoding::Runs] {
                let mut e = Enc::with_encoding(64, encoding);
                page.enc(&mut e);
                let weight = WholePage::wire_bytes(2, &page.words, encoding);
                assert_eq!(e.finish().len(), weight, "{encoding:?} {:?}", page.words);
            }
        }
        // The literal form weighs what it always did.
        let dense = [1u64; 32];
        assert_eq!(
            WholePage::wire_bytes(2, &dense, Encoding::Flat),
            4 + (4 + 6 * 2) + (4 + 8 * 32)
        );
        assert_eq!(
            WholePage::wire_bytes(2, &dense, Encoding::Runs),
            WholePage::wire_bytes(2, &dense, Encoding::Flat)
        );
    }

    /// A page its directory owner lends before anyone wrote it.
    fn lent_zero_page() -> Msg {
        Msg::PageRep {
            applied: vec![],
            words: vec![0; DsmConfig::default_4k().slots_per_page()],
            redirect: None,
            push_after: None,
        }
    }

    #[test]
    fn a_lent_zero_page_is_small_in_runs_and_the_1999_bytes_in_flat() {
        let rep = lent_zero_page();
        let runs = rep.to_bytes_compat(Encoding::Runs);
        assert!(runs.len() <= 32, "{} B", runs.len());
        let mut legacy = Enc::with_encoding(64, Encoding::Flat);
        legacy.put_u8(tags::PAGE_REP);
        enc_applied(&[], &mut legacy);
        legacy.put_u64_slice(&[0; 512]);
        None::<Gpid>.enc(&mut legacy);
        assert_eq!(
            &rep.to_bytes_compat(Encoding::Flat)[..],
            &legacy.finish()[..]
        );
        assert_eq!(Msg::from_wire(&runs).unwrap(), rep);
    }

    #[test]
    fn a_bad_zero_run_payload_is_an_error() {
        let cfg = DsmConfig::default_4k();
        let good = lent_zero_page().to_bytes_compat(Encoding::Runs);
        assert_eq!(Msg::decode(&good, &cfg).unwrap(), lent_zero_page());
        // Truncated anywhere inside its runs.
        for cut in 1..good.len() {
            assert!(Msg::decode(&good[..cut], &cfg).is_err(), "cut at {cut}");
        }
        // A count above the page: refused before anything is sized by
        // it, by the configured bound and by the wire's own.
        let huge = |count: u32| {
            let mut e = Enc::with_encoding(32, Encoding::Runs);
            e.put_u8(tags::PAGE_REP);
            enc_applied(&[], &mut e);
            e.put_u32(WORDS_ZERO_RUNS | count);
            e.put_u32(count);
            e.put_u32(0);
            None::<Gpid>.enc(&mut e);
            e.finish()
        };
        let spp = cfg.slots_per_page() as u32;
        assert!(Msg::decode(&huge(spp), &cfg).is_ok());
        assert!(matches!(
            Msg::decode(&huge(spp + 1), &cfg),
            Err(WireError::BadLength {
                what: "page words",
                ..
            })
        ));
        assert!(Msg::from_wire(&huge(0x7FFF_FFFF)).is_err());
        // Runs that overrun their count.
        let mut e = Enc::with_encoding(32, Encoding::Runs);
        e.put_u8(tags::PAGE_REP);
        enc_applied(&[], &mut e);
        e.put_u32(WORDS_ZERO_RUNS | 4);
        e.put_u32(5);
        e.put_u32(0);
        None::<Gpid>.enc(&mut e);
        assert!(Msg::decode(&e.finish(), &cfg).is_err());
        // A whole-page count the buffer cannot hold.
        let mut e = Enc::with_encoding(32, Encoding::Runs);
        e.put_u8(tags::DIFF_REP);
        e.put_u32(0);
        e.put_u32(u32::MAX);
        assert!(Msg::decode(&e.finish(), &cfg).is_err());
    }

    #[test]
    fn a_diff_run_past_the_page_is_an_error() {
        let cfg = DsmConfig::default_4k();
        let spp = cfg.slots_per_page() as u32;
        let diffs = |start: u32, len: usize| vec![(3, 1, Diff::of_run(start, &vec![7; len]))];
        for (start, len, fits) in [
            (spp - 2, 2, true),
            (spp - 2, 3, false),
            (spp + 92, 1, false),
        ] {
            let rep = Msg::DiffRep {
                diffs: diffs(start, len),
                pages: vec![],
                push_after: None,
            };
            let push = Msg::DiffPush {
                epoch: 0,
                diffs: diffs(start, len)
                    .into_iter()
                    .map(|(p, s, d)| (p, s, Arc::new(d)))
                    .collect(),
            };
            for msg in [rep, push] {
                let got = Msg::decode(&msg.encode(&cfg), &cfg);
                match fits {
                    true => assert_eq!(got.unwrap(), msg),
                    false => assert!(
                        matches!(
                            got,
                            Err(WireError::BadLength {
                                what: "diff run end",
                                ..
                            })
                        ),
                        "{start}+{len}: {got:?}"
                    ),
                }
            }
        }
    }

    proptest::proptest! {
        /// Sparse and dense pages round-trip through both forms of a
        /// `PageRep` and of a `DiffRep`'s whole page.
        #[test]
        fn prop_page_payloads_roundtrip_in_both_forms(
            writes in proptest::collection::vec((0usize..64, 1u64..u64::MAX), 0..65),
        ) {
            // From all zeros (no writes) to dense (64 scattered ones).
            let mut words = vec![0u64; 64];
            for (i, v) in writes {
                words[i] = v;
            }
            let cfg = DsmConfig {
                page_size: 512,
                ..DsmConfig::default_4k()
            };
            let msgs = [
                Msg::PageRep {
                    applied: vec![(1, 3)],
                    words: words.clone(),
                    redirect: None,
                    push_after: Some(2),
                },
                Msg::DiffRep {
                    diffs: vec![],
                    pages: vec![WholePage {
                        page: 7,
                        applied: vec![(0, 1)],
                        words: words.clone(),
                    }],
                    push_after: None,
                },
            ];
            for m in msgs {
                let flat = m.to_bytes_compat(Encoding::Flat);
                let runs = m.to_bytes_compat(Encoding::Runs);
                proptest::prop_assert!(runs.len() <= flat.len());
                proptest::prop_assert_eq!(&Msg::decode(&flat, &cfg).unwrap(), &m);
                proptest::prop_assert_eq!(&Msg::decode(&runs, &cfg).unwrap(), &m);
            }
        }
    }

    #[test]
    fn fork_and_release_are_byte_identical_to_the_legacy_wire() {
        // A fork or a barrier release carries write notices and never
        // diffs: its bytes are the legacy (1999-calibrated) encoding
        // exactly, and a buffer with a trailing diff section, as a
        // release could once carry, does not decode — the service
        // thread drops it as malformed.
        let mut vc = Vc::new(2);
        vc.set(0, 3);
        let rec = Record {
            pid: 0,
            seq: 3,
            vc: vc.clone(),
            pages: vec![1, 2],
        };
        let entry = RegEntry {
            name: "grid".into(),
            addr: 512,
            len: 100,
            kind: ElemKind::F64,
            ver: 1,
        };
        let fork = Msg::Fork {
            epoch: 1,
            fork_no: 10,
            region: 2,
            params: vec![1, 2, 3],
            vc: vc.clone(),
            records: vec![rec.clone()],
            registry_delta: vec![entry.clone()],
            alloc_slots: 1024,
        };
        let release = Msg::BarrierRelease {
            vc: vc.clone(),
            records: vec![rec.clone()],
        };
        let mut section = Enc::new();
        enc_diffs(&[(3, 4, Diff::of_run(0, &[7, 8]))], &mut section);
        let section = section.finish();
        for enc_kind in [Encoding::Flat, Encoding::Runs] {
            let mut legacy_fork = Enc::with_encoding(64, enc_kind);
            legacy_fork.put_u8(tags::FORK);
            legacy_fork.put_u32(1);
            legacy_fork.put_u64(10);
            legacy_fork.put_u32(2);
            legacy_fork.put_bytes(&[1, 2, 3]);
            vc.enc(&mut legacy_fork);
            RecordSet::enc_slice(std::slice::from_ref(&rec), &mut legacy_fork);
            legacy_fork.put_seq(std::slice::from_ref(&entry));
            legacy_fork.put_u64(1024);
            legacy_fork.put_u8(FORK_RESERVED);
            let mut legacy_release = Enc::with_encoding(64, enc_kind);
            legacy_release.put_u8(tags::BARRIER_RELEASE);
            vc.enc(&mut legacy_release);
            RecordSet::enc_slice(std::slice::from_ref(&rec), &mut legacy_release);
            for (msg, legacy) in [(&fork, legacy_fork), (&release, legacy_release)] {
                let legacy = legacy.finish();
                assert_eq!(
                    &msg.to_bytes_compat(enc_kind)[..],
                    &legacy[..],
                    "{msg:?} must encode as the legacy wire under {enc_kind:?}"
                );
                let mut with_diffs = legacy.to_vec();
                with_diffs.extend_from_slice(&section);
                assert_eq!(
                    Msg::from_wire(&with_diffs),
                    Err(WireError::TrailingBytes(section.len())),
                    "a trailing diff section must not decode under {enc_kind:?}"
                );
            }
        }
    }

    #[test]
    fn a_join_without_partials_is_byte_identical_to_the_legacy_wire() {
        // Partials are an optional trailing field: a region without a
        // `reduction` clause (and the whole 1999 generation, which
        // reduces through the scratch page) sends the pre-partials
        // `JoinArrive` bytes exactly.
        let mut vc = Vc::new(2);
        vc.set(1, 3);
        let rec = Record {
            pid: 1,
            seq: 3,
            vc: vc.clone(),
            pages: vec![1, 2],
        };
        let arrive = |partials| Msg::JoinArrive {
            epoch: 4,
            pid: 1,
            vc: vc.clone(),
            records: vec![rec.clone()],
            partials,
        };
        for enc_kind in [Encoding::Flat, Encoding::Runs] {
            let mut legacy = Enc::with_encoding(64, enc_kind);
            legacy.put_u8(tags::JOIN_ARRIVE);
            legacy.put_u32(4);
            legacy.put_u16(1);
            vc.enc(&mut legacy);
            RecordSet::enc_slice(std::slice::from_ref(&rec), &mut legacy);
            let legacy = legacy.finish();
            assert_eq!(
                &arrive(vec![]).to_bytes_compat(enc_kind)[..],
                &legacy[..],
                "no partials must not change the wire under {enc_kind:?}"
            );
            // Two partials add a count and two words, nothing else.
            let with = arrive(vec![1.5, f64::MIN_POSITIVE]).to_bytes_compat(enc_kind);
            assert_eq!(with.len(), legacy.len() + 4 + 2 * 8);
            assert_eq!(&with[..legacy.len()], &legacy[..]);
        }
    }

    #[test]
    fn dir_rle_roundtrip() {
        let dir = vec![Gpid(1); 100]
            .into_iter()
            .chain(vec![Gpid(2); 50])
            .chain(vec![Gpid(1); 3])
            .collect::<Vec<_>>();
        let rle = DirRle::from_vec(&dir);
        assert_eq!(rle.runs.len(), 3);
        assert_eq!(rle.to_vec(), dir);
        assert_eq!(rle.total(), 153);
    }

    #[test]
    fn dir_rle_empty() {
        let rle = DirRle::from_vec(&[]);
        assert!(rle.to_vec().is_empty());
        assert_eq!(rle.total(), 0);
    }

    #[test]
    fn garbage_rejected() {
        assert!(Msg::from_wire(&[200, 1, 2]).is_err());
        assert!(Msg::from_wire(&[]).is_err());
    }

    #[test]
    fn retired_tags_do_not_decode() {
        // Neither retired tag decodes, even in front of a well-formed
        // arrival body.
        let mut body = Msg::JoinArrive {
            epoch: 1,
            pid: 2,
            vc: Vc::new(3),
            records: vec![],
            partials: vec![],
        }
        .to_bytes()
        .to_vec();
        for tag in [14, 15] {
            body[0] = tag;
            assert_eq!(
                Msg::from_wire(&body),
                Err(WireError::BadTag {
                    what: "Msg",
                    tag: tag as u32
                })
            );
        }
    }
}
