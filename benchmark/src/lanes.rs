//! Per-layer micro lanes: each times one layer's public functions from
//! outside, on inputs drawn from the seed and passed through
//! `black_box`, for a fixed operation count. A lane is repeated `reps`
//! times and reports the median; `layers` uses 5 reps (>= 0.2 s per
//! lane), a traced workload run uses 1.

use crate::report::LayerValues;
use crate::rng::Rng;
use crate::stats::{median, percentile};
use crate::workloads::kernels::{sim_cfg, Generation};
use crate::workloads::real_cfg;
use nowmp_apps::{build_program, jacobi::Jacobi, nbf::Nbf, Kernel};
use nowmp_ckpt::Checkpoint;
use nowmp_core::sched::{Directive, JobParams, Scheduler as Policy};
use nowmp_core::{reassign, EventKind, HostPool, LeaveSel, ReassignPolicy};
use nowmp_net::{CostModel, Gpid, HostId, NetModel, Network};
use nowmp_omp::sched::{guided_chunk_sizes, static_block};
use nowmp_omp::{OmpProgram, OmpSystem, Params};
use nowmp_tmk::diff::Diff;
use nowmp_tmk::page::PageBuf;
use nowmp_tmk::records::{Record, RecordSet};
use nowmp_tmk::system::MemoryImage;
use nowmp_tmk::{PageTable, SimMemory, StepOutcome, TaskCtx, Vc};
use nowmp_util::crc::crc32;
use nowmp_util::lock::SpinLock;
use nowmp_util::wire::{Dec, Enc, Wire};
use nowmp_util::{zrle, Clock, TaskScheduler, Tick};
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Words per 4 KB page.
const SLOTS: usize = 512;

/// The lane runner: the seed's inputs, the rep count, the results.
struct Lanes {
    reps: usize,
    seed: u64,
    out: LayerValues,
}

impl Lanes {
    /// Median over `reps` of `f()`, stored under `name`.
    fn lane(&mut self, name: &'static str, mut f: impl FnMut() -> f64) {
        let samples: Vec<f64> = (0..self.reps).map(|_| f()).collect();
        self.out.insert(name, median(&samples));
    }

    /// Median nanoseconds per call of `op`, `ops` calls per rep.
    fn ns_per_op(&mut self, name: &'static str, ops: u64, mut op: impl FnMut(u64)) {
        self.lane(name, || {
            let t = Instant::now();
            for i in 0..ops {
                op(i);
            }
            t.elapsed().as_secs_f64() * 1e9 / ops as f64
        });
    }

    fn rng(&self, stream: u64) -> Rng {
        Rng::new(self.seed, stream)
    }

    /// A dense page of seeded words.
    fn dense_page(&self) -> Vec<u64> {
        let mut rng = self.rng(0xDE);
        (0..SLOTS).map(|_| rng.next_u64() | 1).collect()
    }

    /// `dirty` words of `twin` changed at seeded positions.
    fn dirtied(&self, twin: &[u64], dirty: usize) -> Vec<u64> {
        let mut rng = self.rng(0xD1);
        let mut slots: Vec<usize> = (0..SLOTS).collect();
        rng.shuffle(&mut slots);
        let mut cur = twin.to_vec();
        for &s in &slots[..dirty] {
            cur[s] ^= rng.next_u64() | 1;
        }
        cur
    }

    /// Zeros plus 64 seeded values: an early-run scientific array.
    fn sparse_page(&self) -> Vec<u64> {
        self.dirtied(&vec![0; SLOTS], 64)
    }
}

/// Run every lane for `seed`, each repeated `reps` times.
pub fn run_all(seed: u64, reps: usize) -> LayerValues {
    let mut l = Lanes {
        reps: reps.max(1),
        seed,
        out: LayerValues::new(),
    };
    util_codec(&mut l);
    util_sync(&mut l);
    util_time(&mut l);
    net(&mut l);
    tmk_data(&mut l);
    tmk_regions(&mut l);
    ckpt(&mut l);
    core(&mut l);
    omp(&mut l);
    apps(&mut l);
    l.out
}

// ------------------------------------------------------------------ util

fn util_codec(l: &mut Lanes) {
    let dense = l.dense_page();
    let sparse = l.sparse_page();
    l.ns_per_op("util.wire_put_words_ns_4k", 100_000, |_| {
        let mut e = Enc::with_capacity(SLOTS * 8 + 16);
        e.put_u64_words(black_box(&dense));
        black_box(e.finish());
    });
    let encoded = {
        let mut e = Enc::new();
        e.put_u64_words(&dense);
        e.finish()
    };
    let mut words = Vec::with_capacity(SLOTS);
    l.ns_per_op("util.wire_get_words_ns_4k", 200_000, |_| {
        words.clear();
        Dec::new(black_box(&encoded))
            .get_u64_words_into(&mut words, SLOTS)
            .expect("page decodes");
        black_box(&words);
    });
    // Vector-clock-entry-sized values: mostly one or two bytes.
    let mut rng = l.rng(0x7A);
    let small: Vec<u32> = (0..1024)
        .map(|_| (rng.next_u64() % 20_000) as u32)
        .collect();
    l.ns_per_op("util.wire_varu32_ns", 400, |_| {
        let mut e = Enc::with_capacity(4096);
        for &v in black_box(&small) {
            e.put_varu32(v);
        }
        let buf = e.finish();
        let mut d = Dec::new(&buf);
        let mut sum = 0u32;
        for _ in 0..small.len() {
            sum = sum.wrapping_add(d.get_varu32().expect("varint decodes"));
        }
        black_box(sum);
    });
    // The lane above moved 1024 values per op, through both directions.
    *l.out.get_mut("util.wire_varu32_ns").expect("just set") /= small.len() as f64;

    l.ns_per_op("util.zrle_compress_ns_sparse4k", 100_000, |_| {
        black_box(zrle::compress(black_box(&sparse)));
    });
    let packed = zrle::compress(&sparse);
    l.ns_per_op("util.zrle_decompress_ns_sparse4k", 100_000, |_| {
        black_box(zrle::decompress(black_box(&packed)).expect("page decompresses"));
    });
    l.ns_per_op("util.zrle_compress_ns_dense4k", 100_000, |_| {
        black_box(zrle::compress(black_box(&dense)));
    });
    let bytes: Vec<u8> = dense.iter().flat_map(|w| w.to_le_bytes()).collect();
    l.ns_per_op("util.crc32_ns_4k", 20_000, |_| {
        black_box(crc32(black_box(&bytes)));
    });
}

fn util_sync(l: &mut Lanes) {
    let lock = SpinLock::new(0u64);
    l.ns_per_op("util.spinlock_ns", 2_000_000, |i| {
        *lock.lock() += black_box(i);
    });
    l.lane("util.spinlock_2t_ops_per_s", || {
        const OPS: u64 = 500_000;
        let lock = SpinLock::new(0u64);
        let t = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for i in 0..OPS {
                        *lock.lock() += black_box(i);
                    }
                });
            }
        });
        2.0 * OPS as f64 / t.elapsed().as_secs_f64()
    });
    let (tx, rx) = crossbeam_channel::unbounded::<u64>();
    l.ns_per_op("util.chan_burst_ns_per_msg", 400, |i| {
        for k in 0..1024 {
            tx.send(black_box(i + k)).expect("receiver alive");
        }
        for _ in 0..1024 {
            black_box(rx.recv().expect("sender alive"));
        }
    });
    *l.out
        .get_mut("util.chan_burst_ns_per_msg")
        .expect("just set") /= 1024.0;
    // One CPU, for the reason `env::pin_to_one_cpu` gives.
    let _pin = crate::env::pin_to_one_cpu();
    l.lane("util.chan_pingpong_ns", || {
        const TRIPS: u64 = 20_000;
        let (to_b, from_a) = crossbeam_channel::unbounded::<u64>();
        let (to_a, from_b) = crossbeam_channel::unbounded::<u64>();
        let t = Instant::now();
        std::thread::scope(|s| {
            s.spawn(move || {
                while let Ok(v) = from_a.recv() {
                    if to_a.send(v + 1).is_err() {
                        break;
                    }
                }
            });
            for i in 0..TRIPS {
                to_b.send(i).expect("echo thread alive");
                black_box(from_b.recv().expect("echo thread alive"));
            }
            drop(to_b);
        });
        t.elapsed().as_secs_f64() * 1e9 / TRIPS as f64
    });
}

fn util_time(l: &mut Lanes) {
    // One registered participant sleeping on a virtual clock: every
    // sleep is a quiescence check and an instant advance.
    l.lane("util.vclock_sleep_wall_us", || {
        const SLEEPS: u32 = 20_000;
        let clock = Clock::new_virtual();
        let _me = clock.participant();
        let t = Instant::now();
        for _ in 0..SLEEPS {
            clock.sleep(Duration::from_micros(100));
        }
        t.elapsed().as_secs_f64() * 1e6 / SLEEPS as f64
    });
    // Two participants handing a token back and forth the way the
    // transport does: account the message, block on the channel inside
    // `blocked`, charge a simulated delay on arrival.
    l.lane("util.vclock_handoff_wall_us", || {
        const TRIPS: u32 = 2_000;
        let clock = Clock::new_virtual();
        let (to_b, from_a) = crossbeam_channel::unbounded::<u32>();
        let (to_a, from_b) = crossbeam_channel::unbounded::<u32>();
        let hop = Duration::from_micros(63);
        let t = Instant::now();
        std::thread::scope(|s| {
            let echo_clock = clock.clone();
            s.spawn(move || {
                let _me = echo_clock.participant();
                while let Ok(v) = echo_clock.blocked(|| from_a.recv()) {
                    echo_clock.msg_received();
                    echo_clock.sleep(hop);
                    echo_clock.msg_sent();
                    if to_a.send(v).is_err() {
                        break;
                    }
                }
            });
            let _me = clock.participant();
            for i in 0..TRIPS {
                clock.msg_sent();
                to_b.send(i).expect("echo thread alive");
                clock.blocked(|| from_b.recv()).expect("echo thread alive");
                clock.msg_received();
                clock.sleep(hop);
            }
            drop(to_b);
        });
        // Two hand-offs per trip.
        t.elapsed().as_secs_f64() * 1e6 / (2 * TRIPS) as f64
    });
    const TASKS: usize = 1024;
    let mut rng = l.rng(0x7A5C);
    let delays: Vec<u64> = (0..TASKS).map(|_| 1 + rng.below(1000)).collect();
    l.lane("util.tasksched_events_per_s", || {
        const ROUNDS: u64 = 200;
        let mut sched = TaskScheduler::new();
        let t = Instant::now();
        let mut events = 0u64;
        for task in 0..TASKS {
            sched.ready(task);
        }
        // Every task alternates a runnable wake-up and a timed park.
        while let Some((now, task)) = sched.next() {
            events += 1;
            if events >= ROUNDS * TASKS as u64 {
                break;
            }
            if events.is_multiple_of(2) {
                sched.ready(task);
            } else {
                sched.park_until(task, Tick::from_nanos(now.as_nanos() + delays[task]));
            }
        }
        black_box(sched.now());
        events as f64 / t.elapsed().as_secs_f64()
    });
}

// ------------------------------------------------------------------- net

fn net(l: &mut Lanes) {
    let payload = |bytes: usize| {
        let mut e = Enc::with_capacity(bytes);
        e.put_raw(&vec![0xA5; bytes]);
        e.finish_bytes()
    };
    // Real clock, no model: the transport's own host cost.
    let real_net = || {
        Network::with_clock(
            2,
            1,
            NetModel::disabled(),
            CostModel::disabled(),
            Clock::real(),
        )
    };
    {
        let net = real_net();
        let (a, b) = (net.register(HostId(0)), net.register(HostId(1)));
        let msg = payload(64);
        l.ns_per_op("net.send_recv_ns", 200_000, |_| {
            a.send(b.gpid(), msg.clone()).expect("peer registered");
            black_box(b.recv().expect("network up"));
        });
    }
    // Caller and server on one CPU, like the real-clock workload the
    // round trip feeds into (see `env::pin_to_one_cpu`).
    let pin = crate::env::pin_to_one_cpu();
    l.lane("net.call_rtt_us", || {
        const CALLS: u32 = 20_000;
        let net = real_net();
        let (a, b) = (net.register(HostId(0)), net.register(HostId(1)));
        let (dst, msg) = (b.gpid(), payload(64));
        let t = Instant::now();
        std::thread::scope(|s| {
            s.spawn(move || {
                for _ in 0..CALLS {
                    let req = b.recv().expect("network up");
                    let reply = req.payload.clone();
                    req.replier.expect("a call carries a replier").reply(reply);
                }
            });
            for _ in 0..CALLS {
                black_box(a.call(dst, msg.clone()).expect("server answers"));
            }
        });
        t.elapsed().as_secs_f64() * 1e6 / CALLS as f64
    });
    drop(pin);
    // 31 senders converge on one receiver under the 1999 wire model:
    // what receiver admission charges per message (sim), and how fast
    // the simulator gets through it (wall).
    const SENDERS: usize = 31;
    const ROUNDS: usize = 20;
    let mut sim_us = Vec::new();
    l.lane("net.admission_msgs_per_wall_s", || {
        let clock = Clock::new_virtual();
        let net = Network::with_clock(
            SENDERS + 1,
            1,
            NetModel::paper_1999(),
            CostModel::paper_1999(),
            clock.clone(),
        );
        let sink = net.register(HostId(0));
        let senders: Vec<_> = (1..=SENDERS)
            .map(|h| net.register(HostId(h as u16)))
            .collect();
        let (dst, msg) = (sink.gpid(), payload(1024));
        let gate = std::sync::Barrier::new(SENDERS + 1);
        let t = Instant::now();
        let origin = clock.now();
        std::thread::scope(|s| {
            for ep in &senders {
                let (gate, msg) = (&gate, msg.clone());
                s.spawn(move || {
                    let _me = ep.clock().participant();
                    for _ in 0..ROUNDS {
                        ep.clock().blocked(|| gate.wait());
                        ep.send(dst, msg.clone()).expect("sink registered");
                    }
                });
            }
            let _me = clock.participant();
            for _ in 0..ROUNDS {
                clock.blocked(|| gate.wait());
                for _ in 0..SENDERS {
                    black_box(sink.recv().expect("network up"));
                }
            }
        });
        let msgs = (SENDERS * ROUNDS) as f64;
        sim_us.push(clock.elapsed_since(origin).as_secs_f64() * 1e6 / msgs);
        msgs / t.elapsed().as_secs_f64()
    });
    l.out
        .insert("net.admission_sim_us_per_msg_n31", median(&sim_us));
}

// ------------------------------------------------------------------- tmk

fn tmk_data(l: &mut Lanes) {
    let twin = l.dense_page();
    for (dirty, create, apply) in [
        (64, "tmk.diff_create_ns_64w", "tmk.diff_apply_ns_64w"),
        (512, "tmk.diff_create_ns_512w", "tmk.diff_apply_ns_512w"),
    ] {
        let cur = l.dirtied(&twin, dirty);
        l.ns_per_op(create, 40_000, |_| {
            black_box(Diff::create_from_words(
                black_box(&twin),
                black_box(&cur),
                0,
            ));
        });
        let diff = Diff::create_from_words(&twin, &cur, 0);
        let target = PageBuf::from_words(&twin);
        l.ns_per_op(apply, 200_000, |_| {
            black_box(&diff).apply(&target);
        });
        assert_eq!(
            target.snapshot(),
            cur,
            "applying the diff rebuilds the page"
        );
        if dirty == 64 {
            l.ns_per_op("tmk.diff_wire_ns_64w", 100_000, |_| {
                let bytes = black_box(&diff).to_wire();
                black_box(Diff::from_wire(&bytes).expect("diff round-trips"));
            });
        }
    }
    let page = PageBuf::from_words(&twin);
    l.ns_per_op("tmk.twin_snapshot_ns", 200_000, |_| {
        black_box(black_box(&page).snapshot());
    });

    // 32 ranks' records of one interval each: a full vector clock and
    // a Jacobi-like notice list (a run of pages plus two strays).
    let mut rng = l.rng(0x4EC);
    let records: Vec<Record> = (0..32u16)
        .map(|pid| {
            let mut vc = Vc::new(32);
            for q in 0..32 {
                vc.set(q, 1 + rng.below(300) as u32);
            }
            let base = pid as u32 * 12;
            let mut pages: Vec<u32> = (base..base + 10).collect();
            pages.extend([4000 + pid as u32, 5000 + rng.below(500) as u32]);
            Record {
                pid,
                seq: 1 + rng.below(300) as u32,
                vc,
                pages,
            }
        })
        .collect();
    l.ns_per_op("tmk.records_enc_ns_n32", 20_000, |_| {
        let mut e = Enc::with_capacity(4096);
        RecordSet::enc_slice(black_box(&records), &mut e);
        black_box(e.finish());
    });
    let wire = RecordSet(records.clone()).to_wire();
    l.ns_per_op("tmk.records_dec_ns_n32", 20_000, |_| {
        black_box(RecordSet::dec_vec(&mut Dec::new(black_box(&wire))).expect("records decode"));
    });
    l.out.insert("tmk.records_bytes_n32", wire.len() as f64);
    let mut acc = Vc::new(32);
    l.ns_per_op("tmk.vc_merge_ns_n32", 2_000_000, |i| {
        acc.merge(black_box(&records[i as usize % 32].vc));
    });
    black_box(acc);

    let table = PageTable::new();
    table.ensure(1024, Gpid(1));
    l.ns_per_op("tmk.pagetable_guard_ns", 2_000_000, |i| {
        let mut g = table.guard((i % 1024) as u32);
        g.dirty = !g.dirty;
    });
    l.lane("tmk.pagetable_2t_ops_per_s", || {
        const OPS: u32 = 1_000_000;
        let table = PageTable::new();
        table.ensure(1024, Gpid(1));
        let t = Instant::now();
        std::thread::scope(|s| {
            // Interleaved pages: the two threads share shards, never a page.
            for lane in 0..2u32 {
                let table = &table;
                s.spawn(move || {
                    for i in 0..OPS {
                        let mut g = table.guard((2 * i + lane) % 1024);
                        g.dirty = !g.dirty;
                    }
                });
            }
        });
        2.0 * OPS as f64 / t.elapsed().as_secs_f64()
    });

    // One task-engine rank's step: a row of reads and writes through
    // `TaskCtx`, then the engine's merge of the buffered writes.
    let mut mem = SimMemory::new(SLOTS);
    mem.ensure_slots(64 * SLOTS as u64);
    l.lane("tmk.engine_step_ns", || {
        const STEPS: u64 = 2_000;
        const WORDS: u64 = 512;
        let t = Instant::now();
        for step in 0..STEPS {
            let mut out = StepOutcome::default();
            let mut ctx = TaskCtx::new(0, 1, &mem, &mut out);
            let base = (step % 32) * WORDS;
            for w in 0..WORDS {
                let v = ctx.read_u64(base + w);
                ctx.write_u64(base + WORDS + w, v.wrapping_add(step));
            }
            ctx.charge_compute(WORDS);
            mem.apply_writes(black_box(&out.writes));
        }
        t.elapsed().as_secs_f64() * 1e9 / (STEPS * WORDS) as f64
    });
}

fn tmk_regions(l: &mut Lanes) {
    // The harness pins hotpath_real2 to one CPU (see the README); the
    // same pin keeps these three lanes out of the cross-CPU wake-up
    // lottery.
    let _pin = crate::env::pin_to_one_cpu();
    let program = OmpProgram::new()
        .region("nop", |_| {})
        .region("barriers", |ctx| {
            for _ in 0..10 {
                ctx.barrier();
            }
        })
        .region("locks", |ctx| {
            for _ in 0..10 {
                ctx.critical(3, |_| {});
            }
        });
    let mut sys = OmpSystem::new(real_cfg(2), program);
    const REGIONS: usize = 2_000;
    let mut p99 = Vec::new();
    l.lane("tmk.forkjoin_us_2p", || {
        let rtt: Vec<f64> = (0..REGIONS)
            .map(|_| {
                let t = Instant::now();
                sys.parallel("nop", &[]);
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        p99.push(percentile(&rtt, 0.99));
        median(&rtt)
    });
    let forkjoin = l.out["tmk.forkjoin_us_2p"];
    // Ten barriers (or ten lock hand-overs per rank) ride one region:
    // subtract the region, divide by ten.
    for (name, region) in [
        ("tmk.barrier_us_2p", "barriers"),
        ("tmk.lock_us_2p", "locks"),
    ] {
        l.lane(name, || {
            let t = Instant::now();
            for _ in 0..REGIONS / 4 {
                sys.parallel(region, &[]);
            }
            let per_region = t.elapsed().as_secs_f64() * 1e6 / (REGIONS / 4) as f64;
            (per_region - forkjoin).max(0.0) / 10.0
        });
    }
    sys.shutdown();
}

// ------------------------------------------------------------------ ckpt

fn ckpt(l: &mut Lanes) {
    const PAGES: u32 = 1024;
    // A quarter of the pages dense, the rest sparse: a grid mid-run.
    let (dense, sparse) = (l.dense_page(), l.sparse_page());
    let image = MemoryImage {
        fork_no: 7,
        alloc_slots: PAGES as u64 * SLOTS as u64,
        registry: Vec::new(),
        pages: (0..PAGES)
            .map(|p| (p, if p % 4 == 0 { &dense } else { &sparse }.clone()))
            .collect(),
    };
    let ckpt = Checkpoint {
        image,
        master_blob: vec![0x5A; 256],
    };
    let raw_mb = (PAGES as usize * SLOTS * 8) as f64 / 1e6;
    let mb_per_s = |t: Instant| raw_mb / t.elapsed().as_secs_f64();
    l.lane("ckpt.to_bytes_mb_per_s", || {
        let t = Instant::now();
        black_box(black_box(&ckpt).to_bytes());
        mb_per_s(t)
    });
    let bytes = ckpt.to_bytes();
    l.out.insert(
        "ckpt.ratio",
        (PAGES as usize * SLOTS * 8) as f64 / bytes.len() as f64,
    );
    l.lane("ckpt.from_bytes_mb_per_s", || {
        let t = Instant::now();
        black_box(Checkpoint::from_bytes(black_box(&bytes)).expect("image decodes"));
        mb_per_s(t)
    });
    let path = crate::env::out_dir().join(format!("lane-{}.ckpt", std::process::id()));
    l.lane("ckpt.write_file_mb_per_s", || {
        let t = Instant::now();
        ckpt.write_file(&path).expect("checkpoint writes");
        mb_per_s(t)
    });
    l.lane("ckpt.read_file_mb_per_s", || {
        let t = Instant::now();
        black_box(Checkpoint::read_file(&path).expect("checkpoint reads back"));
        mb_per_s(t)
    });
    std::fs::remove_file(&path).ok();
}

// ------------------------------------------------------------------ core

/// Simulated milliseconds one end leave costs a team of `n`: a small
/// Jacobi, the highest pid leaves at the third iteration.
fn end_leave_sim_ms(n: usize) -> f64 {
    let kernel = Jacobi::new(96);
    let cfg = sim_cfg(&kernel, n, n, Generation::Current, &[]).with_adaptive(true);
    let mut sys = OmpSystem::new(cfg, build_program(&[&kernel]));
    kernel.setup(&mut sys);
    for it in 0..4 {
        if it == 2 {
            sys.adapt()
                .leave(LeaveSel::Pid(n as u16 - 1), None)
                .expect("a worker can leave");
        }
        kernel.step(&mut sys, it);
    }
    let took = sys
        .log()
        .entries()
        .iter()
        .find_map(|e| match e.kind {
            EventKind::Adaptation {
                leaves: 1, took, ..
            } => Some(took.as_secs_f64() * 1e3),
            _ => None,
        })
        .expect("the leave committed at an adaptation point");
    sys.shutdown();
    took
}

fn core(l: &mut Lanes) {
    for (name, n) in [
        ("core.adapt_sim_ms_n4", 4),
        ("core.adapt_sim_ms_n8", 8),
        ("core.adapt_sim_ms_n16", 16),
    ] {
        // One run each: a system bring-up and a 0.5 s shutdown apiece.
        l.out.insert(name, end_leave_sim_ms(n));
    }
    let team: Vec<Gpid> = (1..=32).map(Gpid).collect();
    let (leavers, joiners) = ([Gpid(9), Gpid(31)], [Gpid(40), Gpid(41)]);
    l.ns_per_op("core.reassign_ns_n32", 400_000, |i| {
        let policy = if i % 2 == 0 {
            ReassignPolicy::CompactKeepOrder
        } else {
            ReassignPolicy::FillGaps
        };
        black_box(reassign(policy, black_box(&team), &leavers, &joiners));
    });
    let seed = l.seed;
    l.lane("core.sched_decisions_per_s", || sched_decisions_per_s(seed));
}

/// Policy calls per second replaying a seeded queue of 10^4 jobs on 256
/// hosts with no executor: every job runs for its drawn duration, a
/// preempted job gives the hosts back at once.
fn sched_decisions_per_s(seed: u64) -> f64 {
    const JOBS: usize = 10_000;
    const HOSTS: usize = 256;
    let mut rng = Rng::new(seed, 0x5C4ED);
    let mut at = 0u64;
    let jobs: Vec<(JobParams, u64)> = (0..JOBS)
        .map(|_| {
            at += rng.below(2_000);
            let max = 1usize << rng.below(5);
            let params = JobParams::new(max.div_ceil(2), max)
                .with_priority(if rng.below(5) == 0 { 5 } else { 1 })
                .with_arrival(Duration::from_micros(at));
            (params, 5_000 + rng.below(50_000))
        })
        .collect();
    let t = Instant::now();
    let mut policy = Policy::new(HostPool::new(HOSTS));
    let mut granted: HashMap<u32, Vec<HostId>> = HashMap::new();
    // (finish time in microseconds, job), earliest first.
    let mut finishing: BinaryHeap<std::cmp::Reverse<(u64, u32)>> = BinaryHeap::new();
    let mut calls = 0u64;
    let mut next_job = 0;
    loop {
        let arrival = jobs
            .get(next_job)
            .map(|(p, _)| p.arrival.as_micros() as u64);
        let finish = finishing.peek().map(|r| r.0 .0);
        let now = match (arrival, finish) {
            (None, None) => break,
            (Some(a), Some(f)) => a.min(f),
            (Some(t), None) | (None, Some(t)) => t,
        };
        let now_d = Duration::from_micros(now);
        let mut pending = if finish == Some(now) {
            let std::cmp::Reverse((_, job)) = finishing.pop().expect("peeked");
            granted.remove(&job);
            policy.finished(nowmp_core::JobId(job), now_d)
        } else {
            next_job += 1;
            policy.submit(jobs[next_job - 1].0, now_d).1
        };
        calls += 1;
        while let Some(d) = pending.pop() {
            match d {
                Directive::Start { job, hosts } => {
                    finishing.push(std::cmp::Reverse((now + jobs[job.0 as usize].1, job.0)));
                    granted.insert(job.0, hosts);
                }
                Directive::Grow { job, hosts } => {
                    granted.entry(job.0).or_default().extend(hosts);
                }
                Directive::Preempt { victim, procs } => {
                    let held = granted.get_mut(&victim.0).expect("victim holds hosts");
                    let freed = held.split_off(held.len() - procs);
                    pending.extend(policy.released(victim, &freed, now_d));
                    calls += 1;
                }
            }
        }
    }
    assert!(policy.all_done(), "every queued job ran");
    calls as f64 / t.elapsed().as_secs_f64()
}

// ------------------------------------------------------------------- omp

fn omp(l: &mut Lanes) {
    // Empty regions under the 1999 models: pure fork/join overhead.
    const REGIONS: usize = 40;
    for (n, sim_name, wall_name) in [
        (2, "omp.empty_region_sim_us_n2", None),
        (8, "omp.empty_region_sim_us_n8", None),
        (
            32,
            "omp.empty_region_sim_us_n32",
            Some("omp.empty_region_wall_us_n32"),
        ),
    ] {
        let kernel = Jacobi::new(16); // only its cost profile is used
        let cfg = sim_cfg(&kernel, n, n, Generation::Current, &[]).with_adaptive(false);
        let clock = cfg.clock.clone();
        let mut sys = OmpSystem::new(cfg, OmpProgram::new().region("nop", |_| {}));
        sys.parallel("nop", &[]); // first fork ships the registry
        let (t, c0) = (Instant::now(), clock.now());
        for _ in 0..REGIONS {
            sys.parallel("nop", &[]);
        }
        let sim_us = clock.elapsed_since(c0).as_secs_f64() * 1e6 / REGIONS as f64;
        let wall_us = t.elapsed().as_secs_f64() * 1e6 / REGIONS as f64;
        sys.shutdown();
        l.out.insert(sim_name, sim_us);
        if let Some(name) = wall_name {
            l.out.insert(name, wall_us);
        }
    }

    // Chunk dispatch on one process: 10^6 empty-bodied iterations.
    const ITERS: u64 = 1_000_000;
    let program = OmpProgram::new()
        .region("static", |ctx| {
            let n = ctx.params().u64();
            ctx.for_static(0..n, |_, i| {
                black_box(i);
            });
        })
        .region("dynamic", |ctx| {
            let n = ctx.params().u64();
            ctx.for_dynamic(0..n, 64, |_, i| {
                black_box(i);
            });
        })
        .region("guided", |ctx| {
            let n = ctx.params().u64();
            ctx.for_guided(0..n, 64, |_, i| {
                black_box(i);
            });
        });
    let mut sys = OmpSystem::new(real_cfg(1), program);
    let params = Params::new().u64(ITERS).build();
    for (name, region) in [
        ("omp.dispatch_ns_per_iter_static", "static"),
        ("omp.dispatch_ns_per_iter_dynamic", "dynamic"),
        ("omp.dispatch_ns_per_iter_guided", "guided"),
    ] {
        l.lane(name, || {
            let t = Instant::now();
            sys.parallel(region, &params);
            t.elapsed().as_secs_f64() * 1e9 / ITERS as f64
        });
    }
    sys.shutdown();
    l.ns_per_op("omp.partition_ns", 200_000, |i| {
        let n = 1_000_000 + i;
        black_box(static_block(0..black_box(n), (i % 32) as usize, 32));
        black_box(guided_chunk_sizes(black_box(n), 64, 32));
    });
}

// ------------------------------------------------------------------ apps

fn apps(l: &mut Lanes) {
    // The plain one-process run: the real compute floor under wall_s.
    let kernels: [(&'static str, Box<dyn Kernel>); 2] = [
        ("apps.step_wall_ms_1p_jacobi", Box::new(Jacobi::new(384))),
        ("apps.step_wall_ms_1p_nbf", Box::new(Nbf::new(2048, 16))),
    ];
    for (name, kernel) in kernels {
        let mut sys = OmpSystem::new(real_cfg(1), build_program(&[kernel.as_ref()]));
        kernel.setup(&mut sys);
        let mut it = 0;
        l.lane(name, || {
            const STEPS: usize = 10;
            let t = Instant::now();
            for _ in 0..STEPS {
                kernel.step(&mut sys, it);
                it += 1;
            }
            t.elapsed().as_secs_f64() * 1e3 / STEPS as f64
        });
        sys.shutdown();
    }
}
