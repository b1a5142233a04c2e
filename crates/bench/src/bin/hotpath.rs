//! `hotpath` — real-clock throughput of the DSM data-plane hot path,
//! with CI floors.
//!
//! Two lane families (see `docs/HOTPATH.md`):
//!
//! * **pipeline** — single-thread pages/sec through the full
//!   consistency pipeline one page takes on a diff fetch: twin/current
//!   compare (`Diff::create_from_words`), wire encode, wire decode,
//!   apply into a `PageBuf`, plus the checkpoint-style zero-run encode
//!   (`zrle`) of the same page. This is the path the wide-scan rewrite
//!   accelerated; the floor fails a regression that the benchmark
//!   harness's per-layer lanes would only report.
//! * **contention** — 1/4/8 threads doing page-state transitions on
//!   disjoint pages, once against the sharded [`PageTable`] (`Mutex`
//!   shards) and once against a coarse `Mutex<Vec<PageMeta>>` — the
//!   pre-sharding design. The 1-thread lane is pure lock overhead; the
//!   4- and 8-thread lanes dedicate one thread to the *server role*:
//!   it repeatedly holds page 0's lock across a long serve (under the
//!   coarse design that lock is the global one — exactly how the old
//!   core mutex was held while snapshotting and replying), while the
//!   remaining threads fault on disjoint pages. Each lane reports two
//!   sharded/coarse ratios — fault throughput (worker ops/s) and
//!   serve throughput (server cycles/s) — because the coarse lock
//!   loses on whichever side the scheduler favours less: on multicore
//!   the workers serialize behind the server's holds (fault ratio
//!   shows it), while on a single-core runner the *server* starves —
//!   barging workers win every futex race and remote page requests
//!   sit unserved for whole scheduler rotations (serve ratio shows
//!   it, ~10x here). The gate takes the max of the two. The lane
//!   compares two lock layouts as a micro-benchmark: inside a process
//!   every request is served under the core mutex, and every shard is
//!   taken under it, so no process runs the race it times. What it
//!   still guards is the table as a concurrent structure — a change
//!   that funnels disjoint pages onto one shard, or holds a shard
//!   across a long operation, fails it.
//! * **interval** — 4/8 threads of write-fault *dirty enrollment*
//!   (the open interval's write-set bookkeeping) racing one closer
//!   thread that cycles interval closes. Sharded variant: enrollment
//!   rides the shard lock (`PageGuard::mark_dirty`) and the closer
//!   drains per-shard lists, holding nothing the writers need while
//!   it turns twins into diffs. Core-list variant (the old design):
//!   enrollment pushes onto one core-side `Mutex<Vec<PageId>>` that
//!   the closer holds across the whole close. The gated number is
//!   *fault-path progress during an active close*: ops/sec counted
//!   only while the closer is inside a close. Shard-local lists let
//!   writers keep faulting straight through a close (the closer holds
//!   nothing they need); the core list stalls every writer at its
//!   first post-reset write until the close finishes. Raw throughput
//!   ratios are scheduler-noisy on small runners (closes are rare
//!   events), but this during-close window is the direct signal of
//!   the two layouts' difference, and it separates by an order of
//!   magnitude on every core count. Like the contention lane it times
//!   the structure, not a process: there every write fault and every
//!   close runs under the core mutex.
//!
//! Emits a human table plus `BENCH_hotpath.json`; with `--smoke` the
//! floors `CONTENTION_8T_MIN_RATIO`, `PIPELINE_MIN_PAGES_PER_SEC` and
//! `INTERVAL_8T_MIN_RATIO` are enforced and a violation exits nonzero.

#![forbid(unsafe_code)]

use nowmp_bench::{Json, Scale};
use nowmp_tmk::diff::Diff;
use nowmp_tmk::page::{PageBuf, PageMeta, PageState};
use nowmp_tmk::PageTable;
use nowmp_util::wire::Wire;
use nowmp_util::zrle;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// 4 KB pages, like the protocol default.
const SLOTS: usize = 512;

/// Pages/sec through create → wire → decode → apply → zrle.
fn pipeline_lane(pages: usize) -> f64 {
    let twin: Vec<u64> = (0..SLOTS as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
        .collect();
    let mut cur = twin.clone();
    for k in 0..64usize {
        // 64 scattered dirty words — the hot diff shape (every 8th).
        cur[k * 8] ^= 0xDEAD_BEEF ^ k as u64;
    }
    // A sparse page for the checkpoint-style encode: zeros plus the
    // 64 dirty values (what an early-run scientific array looks like).
    let mut sparse = vec![0u64; SLOTS];
    for k in 0..64usize {
        sparse[k * 8] = cur[k * 8];
    }
    let target = PageBuf::from_words(&twin);
    let mut sink = 0u64;
    let t0 = Instant::now();
    for _ in 0..pages {
        let diff = Diff::create_from_words(&twin, &cur, 0);
        let bytes = diff.to_wire();
        let got = Diff::from_wire(&bytes).expect("diff round-trips");
        got.apply(&target);
        let z = zrle::compress(&sparse);
        sink = sink.wrapping_add(bytes.len() as u64 + z.len() as u64);
    }
    let secs = t0.elapsed().as_secs_f64();
    assert!(sink != 0, "work not elided");
    assert_eq!(target.load(8), cur[8], "apply really landed");
    pages as f64 / secs
}

/// The per-page transition both contention variants perform: the
/// fault-path state flip a worksharing loop does per touched page.
#[inline]
fn touch(meta: &mut PageMeta, round: u64) {
    meta.state = PageState::Write;
    meta.dirty = !meta.dirty;
    meta.zero_lent = round.is_multiple_of(2);
    meta.state = PageState::Read;
}

/// The out-of-lock share of a fault: the word-copy/diff work a page
/// access does *without* holding any table lock (the new design only
/// takes the shard lock for the metadata flip; the coarse baseline is
/// given the same structure so the comparison is lock-vs-lock, not
/// workload-vs-workload). ~100 ns of unelidable compute.
#[inline]
fn fault_work(p: u32, round: u64) -> u64 {
    let mut x = u64::from(p).wrapping_add(round) | 1;
    for _ in 0..64 {
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(17) ^ u64::from(p);
    }
    std::hint::black_box(x)
}

/// The server's per-cycle lock hold: the wall time the old design
/// pinned the core mutex per service burst (snapshot + reply + the
/// transport hop it waited out while holding). Held at millisecond
/// scale so the measurement is scheduler-robust on small runners.
const SERVE_HOLD: std::time::Duration = std::time::Duration::from_millis(1);
/// Gap between serves (the service thread's recv/decode time).
const SERVE_GAP: std::time::Duration = std::time::Duration::from_micros(300);

/// Pages worker `w` faults on: its own 64-page region, skipping the
/// blocks that share a shard with page 0 (the page being served), so
/// under the *sharded* table a fault never needs the server's lock —
/// the very property the layout exists to provide.
fn worker_pages(w: usize) -> Vec<u32> {
    ((w * 64)..(w * 64 + 64))
        .filter(|p| !(p / nowmp_tmk::table::RANGE).is_multiple_of(nowmp_tmk::table::SHARDS))
        .map(|p| p as u32)
        .collect()
}

/// (fault ops/sec, serves/sec) of `threads` total threads against the
/// sharded table: `threads - 1` fault workers plus a server holding
/// page 0's shard across each serve — or a single uncontended worker
/// when `threads == 1`.
fn contention_sharded(threads: usize, secs: f64) -> (f64, f64) {
    let table = Arc::new(PageTable::new());
    table.ensure(threads.max(2) * 64, nowmp_net::Gpid(1));
    let t2 = Arc::clone(&table);
    let t3 = Arc::clone(&table);
    run_lane(
        threads,
        secs,
        move |w, round| {
            let mut ops = 0;
            for &p in &worker_pages(w) {
                fault_work(p, round);
                let mut g = t2.guard(p);
                touch(&mut g, round);
                ops += 1;
            }
            ops
        },
        move || {
            let g = t3.guard(0);
            std::thread::sleep(SERVE_HOLD);
            drop(g);
            std::thread::sleep(SERVE_GAP);
        },
    )
}

/// Same workload against one coarse mutex around the whole page
/// vector — the pre-sharding design, kept as the baseline the CI
/// ratio is measured against. The server holds *the* lock across each
/// serve, exactly as the old core mutex was held.
fn contention_coarse(threads: usize, secs: f64) -> (f64, f64) {
    let pages: Arc<Mutex<Vec<PageMeta>>> = Arc::new(Mutex::new(
        (0..threads.max(2) * 64)
            .map(|_| PageMeta::new(nowmp_net::Gpid(1)))
            .collect(),
    ));
    let p2 = Arc::clone(&pages);
    let p3 = Arc::clone(&pages);
    run_lane(
        threads,
        secs,
        move |w, round| {
            let mut ops = 0;
            for &p in &worker_pages(w) {
                fault_work(p, round);
                let mut v = p2.lock();
                touch(&mut v[p as usize], round);
                ops += 1;
            }
            ops
        },
        move || {
            let g = p3.lock();
            std::thread::sleep(SERVE_HOLD);
            drop(g);
            std::thread::sleep(SERVE_GAP);
        },
    )
}

/// How long a close holds whatever lock it holds: twin→diff creation
/// over the interval's write set (the dominant close cost).
const CLOSE_HOLD: std::time::Duration = std::time::Duration::from_millis(1);
/// Gap between interval closes (the region body between sync points).
const CLOSE_GAP: std::time::Duration = std::time::Duration::from_micros(300);

/// One interval lane: `threads - 1` write-fault workers plus one
/// closer cycling interval closes for ~`secs` wall seconds. Returns
/// (fault ops/sec counted while `closing` was raised, closes/sec).
///
/// `enroll(worker, page, round)` performs the state flip + dirty
/// enrollment; `close()` performs one close (reset flags, diff work)
/// and must raise/lower `closing` around exactly the diff-work
/// window — the part of the close whose lock footprint the two
/// variants disagree about. (The flag-reset sweeps are excluded: they
/// serialize on the shard `Mutex`es identically in both variants, and on
/// a 1-core runner they dominate the close's wall time, which would
/// drown the signal.)
fn interval_lane(
    threads: usize,
    secs: f64,
    closing: Arc<AtomicBool>,
    enroll: impl Fn(usize, u32, u64) + Send + Sync + 'static,
    close: impl Fn() + Send + 'static,
) -> (f64, f64) {
    let enroll = Arc::new(enroll);
    let stop = Arc::new(AtomicBool::new(false));
    let workers = threads.saturating_sub(1).max(1);
    let handles: Vec<_> = (0..workers)
        .map(|w| {
            let enroll = Arc::clone(&enroll);
            let stop = Arc::clone(&stop);
            let closing = Arc::clone(&closing);
            std::thread::spawn(move || {
                let mut during = 0usize;
                let mut round = 0u64;
                while !stop.load(Ordering::Acquire) {
                    for &p in &worker_pages(w) {
                        fault_work(p, round);
                        enroll(w, p, round);
                        if closing.load(Ordering::Relaxed) {
                            during += 1;
                        }
                    }
                    round += 1;
                }
                during
            })
        })
        .collect();
    let closer = {
        let stop = Arc::clone(&stop);
        let closing = Arc::clone(&closing);
        std::thread::spawn(move || {
            let _ = &closing; // the close() closure raises/lowers it
            let mut closes = 0usize;
            while !stop.load(Ordering::Acquire) {
                close();
                closes += 1;
                std::thread::sleep(CLOSE_GAP);
            }
            closes
        })
    };
    let t0 = Instant::now();
    std::thread::sleep(std::time::Duration::from_secs_f64(secs));
    stop.store(true, Ordering::Release);
    let during: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let elapsed = t0.elapsed().as_secs_f64();
    let closes = closer.join().unwrap();
    (during as f64 / elapsed, closes as f64 / elapsed)
}

/// Interval lane with the write set in the page-table shards: writers
/// enroll via [`PageGuard::mark_dirty`] under the shard lock they
/// already hold for the state flip; the closer drains the shard
/// lists, resets the per-page flags, then does the diff work holding
/// nothing the writers need — faults stream straight through closes.
fn interval_sharded(threads: usize, secs: f64) -> (f64, f64) {
    let table = Arc::new(PageTable::new());
    table.ensure(threads.max(2) * 64, nowmp_net::Gpid(1));
    let t2 = Arc::clone(&table);
    let t3 = Arc::clone(&table);
    let closing = Arc::new(AtomicBool::new(false));
    let c2 = Arc::clone(&closing);
    interval_lane(
        threads,
        secs,
        closing,
        move |_, p, _| {
            let mut g = t2.guard(p);
            g.state = PageState::Write;
            g.mark_dirty();
            g.state = PageState::Read;
        },
        move || {
            for p in t3.drain_dirty() {
                t3.guard(p).dirty = false;
            }
            // Diff creation happens outside every lock a writer needs.
            c2.store(true, Ordering::Release);
            std::thread::sleep(CLOSE_HOLD);
            c2.store(false, Ordering::Release);
        },
    )
}

/// Same workload with the old core-side write set: one
/// `Mutex<Vec<PageId>>` that every first-write enrollment pushes onto
/// and that the closer holds across the whole close (flag resets +
/// diff creation) — every writer stalls at its first post-reset write
/// until the close finishes, exactly as under the core mutex.
fn interval_core_list(threads: usize, secs: f64) -> (f64, f64) {
    let table = Arc::new(PageTable::new());
    table.ensure(threads.max(2) * 64, nowmp_net::Gpid(1));
    let list: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    let (t2, l2) = (Arc::clone(&table), Arc::clone(&list));
    let (t3, l3) = (Arc::clone(&table), Arc::clone(&list));
    let closing = Arc::new(AtomicBool::new(false));
    let c2 = Arc::clone(&closing);
    interval_lane(
        threads,
        secs,
        closing,
        move |_, p, _| {
            let first = {
                let mut g = t2.guard(p);
                g.state = PageState::Write;
                let first = !g.dirty;
                g.dirty = true;
                g.state = PageState::Read;
                first
            };
            if first {
                l2.lock().push(p);
            }
        },
        move || {
            let mut held = l3.lock();
            for p in held.drain(..) {
                t3.guard(p).dirty = false;
            }
            // Diff creation under the same lock enrollment needs.
            c2.store(true, Ordering::Release);
            std::thread::sleep(CLOSE_HOLD);
            c2.store(false, Ordering::Release);
            drop(held);
        },
    )
}

/// Run one contention lane for ~`secs` wall seconds: with
/// `threads == 1`, a single fault worker; otherwise `threads - 1`
/// fault workers plus one server thread cycling `serve`. Returns
/// (aggregate fault ops/sec, server serves/sec).
fn run_lane(
    threads: usize,
    secs: f64,
    work: impl Fn(usize, u64) -> usize + Send + Sync + 'static,
    serve: impl Fn() + Send + 'static,
) -> (f64, f64) {
    let work = Arc::new(work);
    let stop = Arc::new(AtomicBool::new(false));
    let workers = if threads == 1 { 1 } else { threads - 1 };
    let handles: Vec<_> = (0..workers)
        .map(|w| {
            let work = Arc::clone(&work);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut ops = 0usize;
                let mut round = 0u64;
                while !stop.load(Ordering::Acquire) {
                    ops += work(w, round);
                    round += 1;
                }
                ops
            })
        })
        .collect();
    let server = (threads > 1).then(|| {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut serves = 0usize;
            while !stop.load(Ordering::Acquire) {
                serve();
                serves += 1;
            }
            serves
        })
    });
    let t0 = Instant::now();
    std::thread::sleep(std::time::Duration::from_secs_f64(secs));
    stop.store(true, Ordering::Release);
    let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let elapsed = t0.elapsed().as_secs_f64();
    let serves = server.map_or(0, |s| s.join().unwrap());
    (total as f64 / elapsed, serves as f64 / elapsed)
}

struct Lane {
    threads: usize,
    sharded: (f64, f64),
    coarse: (f64, f64),
}

impl Lane {
    /// sharded/coarse fault-throughput ratio.
    fn fault_ratio(&self) -> f64 {
        self.sharded.0 / self.coarse.0
    }
    /// sharded/coarse serve-throughput ratio (0 when the lane has no
    /// server, i.e. threads == 1).
    fn serve_ratio(&self) -> f64 {
        if self.coarse.1 > 0.0 {
            self.sharded.1 / self.coarse.1
        } else {
            0.0
        }
    }
    /// The gated number: the stronger of the two faces of the coarse
    /// lock's loss (see the module docs).
    fn gate_ratio(&self) -> f64 {
        self.fault_ratio().max(self.serve_ratio())
    }

    /// sharded/coarse ratio with the denominator floored at 1 op/s:
    /// the interval lanes' core-list side is regularly *zero* (every
    /// writer is blocked for the whole measured window), which would
    /// print/serialize as `inf`.
    fn floored_ratio(&self) -> f64 {
        self.sharded.0 / self.coarse.0.max(1.0)
    }
}

fn json(scale: Scale, pipeline: f64, lanes: &[Lane], intervals: &[Lane]) -> Json {
    let contention = lanes.iter().map(|l| {
        Json::obj([
            ("threads", Json::num(l.threads as f64, 0)),
            ("sharded_ops_per_sec", Json::num(l.sharded.0, 1)),
            ("coarse_ops_per_sec", Json::num(l.coarse.0, 1)),
            ("fault_ratio", Json::num(l.fault_ratio(), 3)),
            ("sharded_serves_per_sec", Json::num(l.sharded.1, 1)),
            ("coarse_serves_per_sec", Json::num(l.coarse.1, 1)),
            ("serve_ratio", Json::num(l.serve_ratio(), 3)),
        ])
    });
    let interval = intervals.iter().map(|l| {
        Json::obj([
            ("threads", Json::num(l.threads as f64, 0)),
            (
                "sharded_during_close_ops_per_sec",
                Json::num(l.sharded.0, 1),
            ),
            (
                "core_list_during_close_ops_per_sec",
                Json::num(l.coarse.0, 1),
            ),
            ("during_close_ratio", Json::num(l.floored_ratio(), 3)),
            ("sharded_closes_per_sec", Json::num(l.sharded.1, 1)),
            ("core_list_closes_per_sec", Json::num(l.coarse.1, 1)),
        ])
    });
    Json::obj([
        ("quick", Json::Bool(scale == Scale::Smoke)),
        ("pipeline_pages_per_sec", Json::num(pipeline, 1)),
        ("contention", Json::Arr(contention.collect())),
        ("interval", Json::Arr(interval.collect())),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = match Scale::from_args(&args) {
        Some((scale, operands)) if operands.is_empty() => scale,
        _ => {
            eprintln!("usage: hotpath [--smoke]");
            std::process::exit(2);
        }
    };
    let (pipe_pages, lane_secs) = scale.pick((20_000, 0.3), (200_000, 2.0));

    println!(
        "hotpath: DSM data-plane throughput (real clock, {} mode)\n",
        scale.name()
    );

    let pipeline = pipeline_lane(pipe_pages);
    println!(
        "pipeline  create->wire->decode->apply->zrle  {:>10.0} pages/s  ({} pages, 4 KB, 64 dirty words)",
        pipeline, pipe_pages
    );

    let mut lanes = Vec::new();
    for &threads in &[1usize, 4, 8] {
        let lane = Lane {
            threads,
            sharded: contention_sharded(threads, lane_secs),
            coarse: contention_coarse(threads, lane_secs),
        };
        if threads == 1 {
            println!(
                "contention {threads}t  sharded {:>12.0} ops/s   coarse {:>12.0} ops/s   fault ratio {:>5.2}x",
                lane.sharded.0,
                lane.coarse.0,
                lane.fault_ratio()
            );
        } else {
            println!(
                "contention {threads}t  sharded {:>12.0} ops/s   coarse {:>12.0} ops/s   fault ratio {:>5.2}x   serves {:>5.0}/s vs {:>5.0}/s  serve ratio {:>5.2}x",
                lane.sharded.0,
                lane.coarse.0,
                lane.fault_ratio(),
                lane.sharded.1,
                lane.coarse.1,
                lane.serve_ratio()
            );
        }
        lanes.push(lane);
    }

    let mut intervals = Vec::new();
    for &threads in &[4usize, 8] {
        let lane = Lane {
            threads,
            sharded: interval_sharded(threads, lane_secs),
            coarse: interval_core_list(threads, lane_secs),
        };
        println!(
            "interval   {threads}t  during-close faults: sharded {:>12.0} ops/s   core-list {:>10.0} ops/s   ratio {:>6.1}x   closes {:>4.0}/s vs {:>4.0}/s",
            lane.sharded.0,
            lane.coarse.0,
            lane.floored_ratio(),
            lane.sharded.1,
            lane.coarse.1,
        );
        intervals.push(lane);
    }

    let out = json(scale, pipeline, &lanes, &intervals).render();
    std::fs::write("BENCH_hotpath.json", &out).expect("write BENCH_hotpath.json");
    println!("\nwrote BENCH_hotpath.json ({} bytes)", out.len());

    // --- CI floors (enforced in the --smoke configuration CI runs) ----
    if scale == Scale::Smoke {
        // The contention floor is a *ratio* (sharded page table vs the
        // coarse single-mutex design it replaced), taken as the max of
        // the lane's fault-throughput and serve-throughput ratios — the
        // coarse lock loses on the worker side on multicore runners and
        // on the server side on single-core runners (service
        // starvation), so the max is robust to either. Measured
        // 9.6-12.7x at 8 threads on a 1-core runner (serve side
        // dominant); the acceptance target is >= 2x.
        const CONTENTION_8T_MIN_RATIO: f64 = 2.0;
        let lane8 = &lanes[2];
        let ratio8 = lane8.gate_ratio();
        println!(
            "gate: 8-thread sharded/coarse ratio = {ratio8:.2} (fault {:.2}x, serve {:.2}x; \
             floor {CONTENTION_8T_MIN_RATIO:.2})",
            lane8.fault_ratio(),
            lane8.serve_ratio()
        );
        assert!(
            ratio8 >= CONTENTION_8T_MIN_RATIO,
            "CI hotpath gate: 8-thread page-table contention ratio {ratio8:.2} fell below \
             the pinned floor {CONTENTION_8T_MIN_RATIO:.2}"
        );
        // Single-thread pages/sec through diff-create -> wire -> decode
        // -> apply -> zrle on 4 KB pages with 64 dirty words. Measured
        // ~250-280k pages/s in release on the CI runner; pinned well
        // under that so shared-runner noise passes while a big pipeline
        // regression fails.
        const PIPELINE_MIN_PAGES_PER_SEC: f64 = 15000.0;
        println!("gate: pipeline = {pipeline:.0} pages/s (floor {PIPELINE_MIN_PAGES_PER_SEC:.0})");
        assert!(
            pipeline >= PIPELINE_MIN_PAGES_PER_SEC,
            "CI hotpath gate: pipeline throughput {pipeline:.0} pages/s fell below \
             the pinned floor {PIPELINE_MIN_PAGES_PER_SEC:.0}"
        );
        // 8-thread interval-bookkeeping ratio: fault-path progress
        // *during an active interval close*. Open-interval write-set
        // tracking lives in the page-table shards (PageGuard::mark_dirty
        // + drain_dirty), so the closer drains the shard lists and then
        // does its diff work holding nothing — writers keep faulting at
        // full speed (measured 1.6-4.6M ops/s during the close window).
        // The old core-side Mutex<Vec<PageId>> design held the list
        // across the whole close, so every first write to a re-opened
        // page stalled behind it (measured 0-3 ops/s during the window).
        // Healthy ratio is >= 10^5; a regression back to closer-held
        // enrollment collapses it to ~1. The zero-prone denominator is
        // floored at 1 op/s so the ratio stays finite.
        const INTERVAL_8T_MIN_RATIO: f64 = 50.0;
        let iv8 = intervals[1].floored_ratio();
        println!(
            "gate: 8-thread during-close fault ratio = {iv8:.1} (floor {INTERVAL_8T_MIN_RATIO:.1})"
        );
        assert!(
            iv8 >= INTERVAL_8T_MIN_RATIO,
            "CI hotpath gate: 8-thread during-close fault-progress ratio {iv8:.1} fell \
             below the pinned floor {INTERVAL_8T_MIN_RATIO:.1}"
        );
    }
}
