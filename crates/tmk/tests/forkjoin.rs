//! End-to-end fork-join tests over the full DSM stack: master + slaves,
//! service threads, real (simulated) network messages.

use nowmp_net::{Gpid, HostId, NetModel, Network};
use nowmp_tmk::shared::SharedF64Vec;
use nowmp_tmk::system::{DsmSystem, MasterCtl, RegionRunner};
use nowmp_tmk::{DsmConfig, ElemKind, TmkCtx};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// Regions used by these tests.
const R_FILL: u32 = 0; // each pid writes its block: v[i] = i
const R_SCALE: u32 = 1; // each pid scales its block by 2
const R_SUM_CRIT: u32 = 2; // each pid adds its block sum into acc under a lock
const R_STENCIL: u32 = 3; // barrier-separated two-phase: b[i] = a[i-1]+a[i+1]

struct TestApp {
    n: usize,
}

fn block(pid: usize, nprocs: usize, n: usize) -> (usize, usize) {
    let per = n.div_ceil(nprocs);
    let lo = (pid * per).min(n);
    let hi = ((pid + 1) * per).min(n);
    (lo, hi)
}

impl RegionRunner for TestApp {
    fn run(&self, region: u32, ctx: &mut TmkCtx) {
        let n = self.n;
        let (lo, hi) = block(ctx.pid() as usize, ctx.nprocs(), n);
        match region {
            R_FILL => {
                let v = SharedF64Vec::lookup(ctx, "v");
                for i in lo..hi {
                    v.set(ctx, i, i as f64);
                }
            }
            R_SCALE => {
                let v = SharedF64Vec::lookup(ctx, "v");
                for i in lo..hi {
                    let x = v.get(ctx, i);
                    v.set(ctx, i, 2.0 * x);
                }
            }
            R_SUM_CRIT => {
                let v = SharedF64Vec::lookup(ctx, "v");
                let acc = SharedF64Vec::lookup(ctx, "acc");
                let mut local = 0.0;
                for i in lo..hi {
                    local += v.get(ctx, i);
                }
                ctx.critical(0, |c| {
                    let cur = acc.get(c, 0);
                    acc.set(c, 0, cur + local);
                });
            }
            R_STENCIL => {
                let a = SharedF64Vec::lookup(ctx, "a");
                let b = SharedF64Vec::lookup(ctx, "b");
                for i in lo..hi {
                    let left = if i == 0 { 0.0 } else { a.get(ctx, i - 1) };
                    let right = if i + 1 == n { 0.0 } else { a.get(ctx, i + 1) };
                    b.set(ctx, i, left + right);
                }
                ctx.barrier();
                for i in lo..hi {
                    let x = b.get(ctx, i);
                    a.set(ctx, i, x);
                }
            }
            other => panic!("unknown region {other}"),
        }
    }
}

fn bring_up(nprocs: usize, n: usize) -> (Arc<DsmSystem>, MasterCtl, Vec<Gpid>) {
    let net = Network::new(nprocs.max(2), NetModel::disabled());
    let sys = DsmSystem::new(
        net,
        DsmConfig {
            page_size: 256,
            ..DsmConfig::test_small()
        },
        Arc::new(TestApp { n }),
    );
    let mut master = sys.start_master(HostId(0));
    let mut workers = Vec::new();
    for i in 1..nprocs {
        let hello: Vec<Gpid> = workers.clone();
        workers.push(sys.spawn_worker(HostId(i as u16), master.gpid(), hello));
    }
    master.alloc("v", n as u64, ElemKind::F64);
    master.alloc("acc", 1, ElemKind::F64);
    master.alloc("a", n as u64, ElemKind::F64);
    master.alloc("b", n as u64, ElemKind::F64);
    master.init_team(&workers);
    (sys, master, workers)
}

fn read_all(master: &mut MasterCtl, name: &str, n: usize) -> Vec<f64> {
    let v = SharedF64Vec::lookup(master.ctx(), name);
    let mut out = vec![0.0; n];
    v.read_into(master.ctx(), 0, &mut out);
    out
}

#[test]
fn fill_across_4_procs() {
    let n = 500;
    let (_sys, mut master, _w) = bring_up(4, n);
    master.parallel(R_FILL, &[]);
    let got = read_all(&mut master, "v", n);
    for (i, x) in got.iter().enumerate() {
        assert_eq!(*x, i as f64, "element {i}");
    }
    master.shutdown();
}

#[test]
fn single_proc_team_works() {
    let n = 100;
    let (_sys, mut master, _w) = bring_up(1, n);
    master.parallel(R_FILL, &[]);
    master.parallel(R_SCALE, &[]);
    let got = read_all(&mut master, "v", n);
    for (i, x) in got.iter().enumerate() {
        assert_eq!(*x, 2.0 * i as f64);
    }
    master.shutdown();
}

#[test]
fn repeated_forks_propagate_updates() {
    let n = 300;
    let (_sys, mut master, _w) = bring_up(3, n);
    master.parallel(R_FILL, &[]);
    for _ in 0..4 {
        master.parallel(R_SCALE, &[]);
    }
    let got = read_all(&mut master, "v", n);
    for (i, x) in got.iter().enumerate() {
        assert_eq!(*x, 16.0 * i as f64, "element {i}");
    }
    master.shutdown();
}

#[test]
fn critical_section_reduction() {
    let n = 200;
    let (_sys, mut master, _w) = bring_up(4, n);
    master.parallel(R_FILL, &[]);
    master.parallel(R_SUM_CRIT, &[]);
    let acc = read_all(&mut master, "acc", 1)[0];
    let expect: f64 = (0..n).map(|i| i as f64).sum();
    assert_eq!(acc, expect);
    master.shutdown();
}

#[test]
fn in_region_barrier_stencil() {
    let n = 128;
    let (_sys, mut master, _w) = bring_up(4, n);
    // a[i] = i
    {
        let a = SharedF64Vec::lookup(master.ctx(), "a");
        for i in 0..n {
            a.set(master.ctx(), i, i as f64);
        }
    }
    master.parallel(R_STENCIL, &[]);
    let got = read_all(&mut master, "a", n);
    for i in 0..n {
        let left = if i == 0 { 0.0 } else { (i - 1) as f64 };
        let right = if i + 1 == n { 0.0 } else { (i + 1) as f64 };
        assert_eq!(got[i], left + right, "element {i}");
    }
    master.shutdown();
}

#[test]
fn master_sequential_writes_reach_slaves() {
    let n = 64;
    let (_sys, mut master, _w) = bring_up(2, n);
    // Master writes sequentially; slaves scale in parallel; repeat.
    for round in 0..3 {
        {
            let v = SharedF64Vec::lookup(master.ctx(), "v");
            for i in 0..n {
                v.set(master.ctx(), i, (round * 100 + i) as f64);
            }
        }
        master.parallel(R_SCALE, &[]);
        let got = read_all(&mut master, "v", n);
        for i in 0..n {
            assert_eq!(
                got[i],
                2.0 * (round * 100 + i) as f64,
                "round {round} element {i}"
            );
        }
    }
    master.shutdown();
}

#[test]
fn gc_preserves_memory() {
    let n = 400;
    let (_sys, mut master, _w) = bring_up(4, n);
    master.parallel(R_FILL, &[]);
    master.parallel(R_SCALE, &[]);
    let before = read_all(&mut master, "v", n);

    let outcome = master.run_gc(&HashSet::new());
    let members = master.team().members.clone();
    master.commit_team(members, &outcome);

    let after = read_all(&mut master, "v", n);
    assert_eq!(before, after, "GC must not change memory contents");
    // And the system still computes.
    master.parallel(R_SCALE, &[]);
    let scaled = read_all(&mut master, "v", n);
    for i in 0..n {
        assert_eq!(scaled[i], 2.0 * after[i]);
    }
    master.shutdown();
}

#[test]
fn leave_preserves_memory_and_computation() {
    let n = 400;
    let (_sys, mut master, workers) = bring_up(4, n);
    master.parallel(R_FILL, &[]);
    master.parallel(R_SCALE, &[]);
    let before = read_all(&mut master, "v", n);

    // Remove the last worker (paper: "end" leave).
    let leaver = *workers.last().unwrap();
    let avoid: HashSet<Gpid> = [leaver].into_iter().collect();
    let outcome = master.run_gc(&avoid);
    let mut members = master.team().members.clone();
    members.retain(|&g| g != leaver);
    master.commit_team(members, &outcome);
    assert_eq!(master.team().nprocs(), 3);

    let after = read_all(&mut master, "v", n);
    assert_eq!(before, after, "leave must not lose data");
    master.parallel(R_SCALE, &[]);
    let got = read_all(&mut master, "v", n);
    for i in 0..n {
        assert_eq!(got[i], 2.0 * before[i], "element {i}");
    }
    master.shutdown();
}

#[test]
fn join_grows_team_and_computes() {
    let n = 400;
    let (sys, mut master, workers) = bring_up(2, n);
    master.parallel(R_FILL, &[]);

    // Spawn a new worker on a fresh host mid-run ("join event").
    let new_host = sys.net().add_host();
    let mut hello = vec![workers[0]];
    hello.push(master.gpid());
    let joiner = sys.spawn_worker(new_host, master.gpid(), vec![workers[0]]);
    let _ = hello;

    // Wait for readiness, then adapt at the next adaptation point.
    let outcome = master.run_gc(&HashSet::new());
    let mut members = master.team().members.clone();
    members.push(joiner);
    master.commit_team(members, &outcome);
    assert_eq!(master.team().nprocs(), 3);

    master.parallel(R_SCALE, &[]);
    let got = read_all(&mut master, "v", n);
    for i in 0..n {
        assert_eq!(got[i], 2.0 * i as f64, "element {i}");
    }
    master.shutdown();
}

#[test]
fn leave_then_rejoin_cycles() {
    let n = 256;
    let (sys, mut master, workers) = bring_up(3, n);
    master.parallel(R_FILL, &[]);
    let mut expect: Vec<f64> = (0..n).map(|i| i as f64).collect();

    // Alternate leave / join four times, computing between adaptations.
    let mut current_workers: Vec<Gpid> = workers.clone();
    for round in 0..4 {
        if round % 2 == 0 {
            // leave: drop last worker
            let leaver = *current_workers.last().unwrap();
            let avoid: HashSet<Gpid> = [leaver].into_iter().collect();
            let outcome = master.run_gc(&avoid);
            let mut members = master.team().members.clone();
            members.retain(|&g| g != leaver);
            master.commit_team(members, &outcome);
            current_workers.retain(|&g| g != leaver);
        } else {
            // join: fresh worker on a fresh host
            let h = sys.net().add_host();
            let joiner = sys.spawn_worker(h, master.gpid(), current_workers.clone());
            let outcome = master.run_gc(&HashSet::new());
            let mut members = master.team().members.clone();
            members.push(joiner);
            master.commit_team(members, &outcome);
            current_workers.push(joiner);
        }
        master.parallel(R_SCALE, &[]);
        for e in &mut expect {
            *e *= 2.0;
        }
        let got = read_all(&mut master, "v", n);
        assert_eq!(got, expect, "round {round}");
    }
    master.shutdown();
}

#[test]
fn checkpoint_image_roundtrip_through_fresh_system() {
    let n = 300;
    let (_sys, mut master, _w) = bring_up(3, n);
    master.parallel(R_FILL, &[]);
    master.parallel(R_SCALE, &[]);
    master.collect_all_pages();
    let image = master.export_image();
    assert_eq!(image.fork_no, 2);
    let expect = read_all(&mut master, "v", n);
    master.shutdown();

    // Fresh system restored from the image (recovery).
    let net = Network::new(2, NetModel::disabled());
    let sys2 = DsmSystem::new(
        net,
        DsmConfig {
            page_size: 256,
            ..DsmConfig::test_small()
        },
        Arc::new(TestApp { n }),
    );
    let mut master2 = sys2.start_master(HostId(0));
    master2.import_image(&image);
    let w = sys2.spawn_worker(HostId(1), master2.gpid(), vec![]);
    master2.init_team(&[w]);
    let got = read_all(&mut master2, "v", n);
    assert_eq!(got, expect, "restored memory differs");
    // Recovered system computes onward.
    master2.parallel(R_SCALE, &[]);
    let got2 = read_all(&mut master2, "v", n);
    for i in 0..n {
        assert_eq!(got2[i], 2.0 * expect[i]);
    }
    assert_eq!(master2.fork_no(), 3);
    master2.shutdown();
}

#[test]
fn collect_all_pages_subscribes_nobody() {
    // A checkpoint walks every page through the fault path. Those
    // faults are not a region's: had their `DiffReq`s subscribed, every
    // writer would push the master every page it writes until the next
    // commit. Blocks of 96 slots are whole 32-slot pages, so no region
    // fault asks a peer for diffs and every reader set starts empty.
    let n = 288;
    let (sys, mut master, workers) = bring_up(3, n);
    master.parallel(R_FILL, &[]);
    // The master holds every page, then each rank rewrites its block:
    // the master's copies go stale, and the collection asks every
    // writer for diffs.
    read_all(&mut master, "v", n);
    master.parallel(R_SCALE, &[]);
    let readers = |g: Gpid| {
        sys.core_of(g)
            .expect("a live worker")
            .lock()
            .readers
            .clone()
    };
    for &g in &workers {
        assert!(readers(g).is_empty(), "{g}: a region subscribed");
    }
    let diffs = sys.stats().snapshot().diffs_fetched;
    master.collect_all_pages();
    assert!(
        sys.stats().snapshot().diffs_fetched > diffs,
        "the collection must have fetched diffs"
    );
    for &g in &workers {
        assert!(readers(g).is_empty(), "{g}: the collection subscribed");
    }
    master.shutdown();
}

/// Regions of [`only_a_regions_fault_subscribes`]: rank 1 bumps `v[0]`,
/// rank 2 reads it into `seen`.
const R_BUMP: u32 = 0;
const R_PEEK: u32 = 1;

struct Subscriber {
    seen: Arc<std::sync::atomic::AtomicU64>,
}

impl RegionRunner for Subscriber {
    fn run(&self, region: u32, ctx: &mut TmkCtx) {
        let v = SharedF64Vec::lookup(ctx, "v");
        match (region, ctx.pid()) {
            (R_BUMP, 1) => {
                let x = v.get(ctx, 0);
                v.set(ctx, 0, x + 1.0);
            }
            (R_PEEK, 2) => {
                let x = v.get(ctx, 0);
                self.seen
                    .store(x as u64, std::sync::atomic::Ordering::SeqCst);
            }
            _ => {}
        }
    }
}

#[test]
fn only_a_regions_fault_subscribes() {
    use nowmp_net::CostModel;
    use nowmp_util::Clock;
    use std::sync::atomic::{AtomicU64, Ordering};

    let clock = Clock::new_virtual();
    let net = Network::with_clock(
        3,
        1,
        NetModel::disabled(),
        CostModel::disabled(),
        clock.clone(),
    );
    let seen = Arc::new(AtomicU64::new(0));
    let runner = Subscriber {
        seen: Arc::clone(&seen),
    };
    let sys = DsmSystem::new(net, DsmConfig::test_small(), Arc::new(runner));
    let mut master = sys.start_master(HostId(0));
    let w1 = sys.spawn_worker(HostId(1), master.gpid(), vec![]);
    let w2 = sys.spawn_worker(HostId(2), master.gpid(), vec![w1]);
    master.alloc("v", 1, ElemKind::F64);
    master.init_team(&[w1, w2]);
    let writer = sys.core_of(w1).expect("rank 1 is live");
    let readers = || writer.lock().readers.get(&0).cloned().unwrap_or_default();
    let master_core = Arc::clone(master.ctx().core());
    let subscribed_master = || master_core.lock().push_after.contains_key(&(0, 1));
    let reader2 = sys.core_of(w2).expect("rank 2 is live");

    // The master holds page 0 and rank 1 writes it (a region fault on
    // the master's page: rank 1 subscribes to the master). The
    // master's sequential read is a diff fault, and stays unsubscribed.
    let v = SharedF64Vec::lookup(master.ctx(), "v");
    assert_eq!(v.get(master.ctx(), 0), 0.0);
    master.parallel(R_BUMP, &[]);
    assert_eq!(master_core.lock().readers[&0], vec![1]);
    let diffs = sys.stats().snapshot().diffs_fetched;
    assert_eq!(v.get(master.ctx(), 0), 1.0);
    assert_eq!(sys.stats().snapshot().diffs_fetched - diffs, 1);
    assert!(
        readers().is_empty(),
        "a sequential read subscribed the master"
    );
    assert!(!subscribed_master());
    // Rank 2 takes a copy in a region: a full page from rank 1, which
    // subscribes it, acknowledged at rank 1's first interval.
    master.parallel(R_PEEK, &[]);
    assert_eq!(seen.load(Ordering::SeqCst), 1);
    assert_eq!(readers(), vec![2], "only rank 2's region fault subscribed");
    assert_eq!(reader2.lock().push_after.get(&(0, 1)), Some(&1));

    // The next write is pushed to rank 2 alone, and rank 2's fault,
    // which expects it although no push has reached it before, finds
    // it stored and applies it.
    let (sent, hits) = {
        let s = sys.stats().snapshot();
        (s.push_sent, s.push_hits)
    };
    master.parallel(R_BUMP, &[]);
    master.parallel(R_PEEK, &[]);
    assert_eq!(seen.load(Ordering::SeqCst), 2);
    let s = sys.stats().snapshot();
    assert_eq!(s.push_sent - sent, 1, "one reader");
    assert_eq!(s.push_hits - hits, 1);
    assert_eq!(v.get(master.ctx(), 0), 2.0);
    assert!(!subscribed_master());
    master.shutdown();
}

/// The master reads every page, then each of 8 ranks rewrites its
/// block in a region (the current generation, paper models, virtual
/// clock), so every copy the master holds is stale. Bring every page
/// up to date at the master either by one `ensure_page` per page or by
/// one `collect_pages` over all of them. Returns the master's page
/// image, and what the collection took: messages on the whole network,
/// replies into the master, full pages fetched and simulated time.
fn collect_stale_pages(batched: bool) -> (Vec<(u32, Vec<u64>)>, Collection) {
    use nowmp_net::CostModel;
    use nowmp_util::Clock;

    let (nprocs, n) = (8, 8 * 1000);
    let net = Network::with_clock(
        nprocs,
        1,
        NetModel::paper_1999(),
        CostModel::paper_1999(),
        Clock::new_virtual(),
    );
    let sys = DsmSystem::new(net, DsmConfig::default_4k(), Arc::new(TestApp { n }));
    let mut master = sys.start_master(HostId(0));
    let mut workers = Vec::new();
    for i in 1..nprocs {
        let hello: Vec<Gpid> = workers.clone();
        workers.push(sys.spawn_worker(HostId(i as u16), master.gpid(), hello));
    }
    master.alloc("v", n as u64, ElemKind::F64);
    master.init_team(&workers);
    master.parallel(R_FILL, &[]);
    let pages: Vec<u32> = (0..n.div_ceil(512) as u32).collect();
    for &p in &pages {
        master.ctx().ensure_page(p, false);
    }
    master.parallel(R_SCALE, &[]);

    let clock = sys.net().clock().clone();
    let (t0, net0, dsm0) = (clock.now(), sys.net().stats(), sys.stats().snapshot());
    if batched {
        master.ctx().collect_pages(&pages);
    } else {
        for &p in &pages {
            master.ctx().ensure_page(p, false);
        }
    }
    let net = sys.net().stats().since(&net0);
    let done = Collection {
        msgs: net.total_msgs,
        replies: net.links[0].msgs_in,
        fulls: sys.stats().snapshot().since(&dsm0).pages_fetched,
        took: clock.elapsed_since(t0),
    };
    let image = master.ctx().core().lock().export_pages();
    master.shutdown();
    (image, done)
}

/// What bringing the master's pages up to date cost.
#[derive(Debug)]
struct Collection {
    msgs: u64,
    replies: u64,
    fulls: u64,
    took: Duration,
}

#[test]
fn collect_pages_installs_what_the_fault_loop_does_in_one_round() {
    let (serial_image, serial) = collect_stale_pages(false);
    let (image, batched) = collect_stale_pages(true);
    assert_eq!(image, serial_image, "the same words, page for page");
    // At most one `DiffReq` per creator and one `PageReq` per page:
    // every reply the master took in answers one of them.
    let creators = 7;
    assert!(
        batched.replies <= creators + batched.fulls,
        "{batched:?}: more than one request per creator and full page"
    );
    assert!(
        batched.msgs <= serial.msgs,
        "{batched:?} against {serial:?} one page at a time"
    );
    assert!(
        batched.took < serial.took,
        "{batched:?} against {serial:?} one page at a time"
    );
}

#[test]
fn traffic_is_near_identical_across_runs() {
    // Check backing Table 1's "network traffic is identical" claim:
    // two identical runs produce the same traffic to within the small
    // nondeterminism of exclusive-page serving (whether an owner's
    // open-interval write lands in the served snapshot or the eventual
    // diff is a timing race; the protocol paths are identical).
    let run = || {
        let n = 256;
        let (sys, mut master, _w) = bring_up(4, n);
        master.parallel(R_FILL, &[]);
        master.parallel(R_SCALE, &[]);
        master.parallel(R_SUM_CRIT, &[]);
        let snap = sys.stats().snapshot();
        master.shutdown();
        (snap.pages_fetched as f64, snap.diffs_fetched as f64)
    };
    let a = run();
    let b = run();
    // Lock-acquisition order is scheduler-dependent, so a handful of
    // full-page fetches (one per process, e.g. the reduction slot) can
    // shift between the full-page and diff columns run to run.
    let close = |x: f64, y: f64| (x - y).abs() <= (0.05 * x.max(y)).max(4.0);
    assert!(close(a.0, b.0), "pages {a:?} vs {b:?}");
    assert!(close(a.1, b.1), "diffs {a:?} vs {b:?}");
}

// --- ISSUE 5: tree broadcast -------------------------------------------

/// `relay_tree_send` must adopt a vanished child's subtree: when an
/// interior relay's endpoint is gone (its host was dropped/reassigned
/// between team formation and the fork), the sender takes over that
/// child's own children so the whole subtree still hears the fork.
#[test]
fn tree_relay_adopts_vanished_childs_subtree() {
    use nowmp_tmk::system::relay_tree_send;
    use nowmp_tmk::Team;

    let net = Network::new(8, NetModel::disabled());
    let eps: Vec<_> = (0..8u16).map(|h| net.register(HostId(h))).collect();
    let team = Team::new(0, eps.iter().map(|e| e.gpid()).collect());
    // The zero-cost models' fork shape is the binomial tree, where rank
    // 4 is an interior relay (children 6 and 5). Kill it.
    let shape = nowmp_tmk::tree::Shape::greedy(8, Duration::ZERO, Duration::ZERO);
    net.unregister(eps[4].gpid());

    let payload = bytes::Bytes::from_static(b"fork");
    let sent = relay_tree_send(&eps[0], &team, &shape, 0, &payload);
    // Root's children are [4, 2, 1]; 4 is gone, so its children [6, 5]
    // are adopted: 2, 1, 6, 5 all hear the message directly.
    assert_eq!(sent, 4);
    for r in [1usize, 2, 5, 6] {
        assert!(
            eps[r].try_recv().is_some(),
            "rank {r} must receive the adopted broadcast"
        );
    }
    // Ranks 3 and 7 are served by relays 2 and 6 respectively — not by
    // the root — so nothing arrived for them here.
    for r in [3usize, 7] {
        assert!(eps[r].try_recv().is_none(), "rank {r} is a relay's job");
    }
}

/// Under the tree broadcast, interior workers forward forks (the
/// `bcast_relays` counter moves); under the flat broadcast the master
/// sends everything itself and the counter stays zero. A barrier
/// release is relayed only when both sides are treed: it travels the
/// fork shape under a treed collection side and the star under a flat
/// one. Results are identical in all four configurations.
#[test]
fn tree_and_flat_forks_compute_identically() {
    use nowmp_tmk::{Broadcast, CollectiveConfig};

    let n = 500;
    let mut results = Vec::new();
    for collectives in [
        CollectiveConfig::all_tree().with_fork(Broadcast::Flat),
        CollectiveConfig::all_tree(),
        CollectiveConfig::all_tree().with_join_reduce(Broadcast::Flat),
        CollectiveConfig::all_flat(),
    ] {
        let net = Network::new(5, NetModel::disabled());
        let sys = DsmSystem::new(
            net,
            DsmConfig {
                page_size: 256,
                collectives,
                ..DsmConfig::test_small()
            },
            Arc::new(TestApp { n }),
        );
        let mut master = sys.start_master(HostId(0));
        let mut workers = Vec::new();
        for i in 1..5 {
            let hello: Vec<Gpid> = workers.clone();
            workers.push(sys.spawn_worker(HostId(i as u16), master.gpid(), hello));
        }
        master.alloc("v", n as u64, ElemKind::F64);
        master.alloc("acc", 1, ElemKind::F64);
        master.alloc("a", n as u64, ElemKind::F64);
        master.alloc("b", n as u64, ElemKind::F64);
        master.init_team(&workers);
        master.parallel(R_FILL, &[]);
        master.parallel(R_SCALE, &[]);
        {
            let a = SharedF64Vec::lookup(master.ctx(), "a");
            for i in 0..n {
                a.set(master.ctx(), i, i as f64);
            }
        }
        master.parallel(R_STENCIL, &[]);
        let got = (read_all(&mut master, "v", n), read_all(&mut master, "a", n));
        let stats = sys.stats().snapshot();
        match collectives.fork {
            Broadcast::Flat => assert_eq!(stats.bcast_relays, 0, "flat mode never relays"),
            // 5 ranks: rank 2 relays rank 3's fork, rank 4 relays none
            // (children(4,5) is empty)... the JoinInit tree also counts.
            Broadcast::Tree => assert!(stats.bcast_relays > 0, "tree mode must relay"),
        }
        if collectives.join_reduce == Broadcast::Flat {
            assert_eq!(stats.reduce_relays, 0, "flat collection never aggregates");
        }
        // The binomial 5-rank fork shape: rank 2 relays the release to 3.
        assert_eq!(
            stats.release_relays > 0,
            collectives == CollectiveConfig::all_tree(),
            "{collectives:?}: release relays {}",
            stats.release_relays
        );
        results.push(got);
        master.shutdown();
    }
    for got in &results[1..] {
        assert_eq!(&results[0], got, "collective shape is invisible to data");
    }
}

/// Regions of [`flat_collectives_keep_the_1999_message_pattern`]:
/// `R_EMPTY` does nothing; in `R_PAGE_BARRIER` every rank writes the
/// first word of its own page, then meets the others at a barrier.
const R_EMPTY: u32 = 0;
const R_PAGE_BARRIER: u32 = 1;

struct PageThenBarrier;

impl RegionRunner for PageThenBarrier {
    fn run(&self, region: u32, ctx: &mut TmkCtx) {
        if region == R_PAGE_BARRIER {
            let v = SharedF64Vec::lookup(ctx, "v");
            v.set(ctx, ctx.pid() as usize * (4096 / 8), 1.0);
            ctx.barrier();
        }
    }
}

/// The flat collectives' message pattern, as the 1999 system's loops
/// produced it: per region the master sends one `Fork` to every worker
/// and receives one `JoinArrive` from each, and every worker sends
/// exactly its own arrival. A barrier's release goes from the master to
/// every worker with the records that worker lacks, so each worker link
/// takes in the 1999 barrier's bytes. No rank relays or aggregates.
#[test]
fn flat_collectives_keep_the_1999_message_pattern() {
    use nowmp_net::CostModel;
    use nowmp_util::Clock;

    let (n, regions) = (8, 4);
    let net = Network::with_clock(
        n,
        1,
        NetModel::paper_1999(),
        CostModel::paper_1999(),
        Clock::new_virtual(),
    );
    let sys = DsmSystem::new(
        net,
        DsmConfig::default_4k().generation_1999(),
        Arc::new(PageThenBarrier),
    );
    let mut master = sys.start_master(HostId(0));
    let mut workers = Vec::new();
    for i in 1..n {
        let hello: Vec<Gpid> = workers.clone();
        workers.push(sys.spawn_worker(HostId(i as u16), master.gpid(), hello));
    }
    master.alloc("v", (n * 4096 / 8) as u64, ElemKind::F64);
    master.init_team(&workers);
    let (net0, dsm0) = (sys.net().stats(), sys.stats().snapshot());
    for _ in 0..regions {
        master.parallel(R_EMPTY, &[]);
    }
    let net1 = sys.net().stats();
    let net = net1.since(&net0);
    let fan = (regions * (n - 1)) as u64;
    assert_eq!(
        (net.links[0].msgs_out, net.links[0].msgs_in),
        (fan, fan),
        "master link"
    );
    for (h, link) in net.links.iter().enumerate().skip(1) {
        assert_eq!(link.msgs_out, regions as u64, "worker link {h}");
    }
    // One barrier region: the master takes in 7 `PageReq`s and 7
    // `JoinArrive`s at the barrier and 7 at the join, each worker its
    // `Fork`, its page and its release.
    master.parallel(R_PAGE_BARRIER, &[]);
    let net = sys.net().stats().since(&net1);
    let mut expect = vec![(21, 1953)];
    expect.resize(n, (3, 4647));
    let links: Vec<(u64, u64)> = net.links.iter().map(|l| (l.msgs_in, l.bytes_in)).collect();
    assert_eq!(links, expect, "(msgs_in, bytes_in) per link");
    let dsm = sys.stats().snapshot().since(&dsm0);
    assert_eq!(dsm.bcast_relays + dsm.reduce_relays + dsm.release_relays, 0);
    master.shutdown();
}

// --- ISSUE 25: model-derived collective shapes --------------------------

/// The fork and reduce shapes differ under the paper models, so a rank
/// that hears the fork early and has nothing to compute can send its
/// `JoinArrive` to a reduce aggregator that has not heard the fork yet.
/// The aggregator's wait loop must keep that arrival for the join
/// instead of rejecting it as an unexpected control message (which
/// kills the aggregator's thread and leaves the master waiting for a
/// join that never completes).
#[test]
fn join_aggregate_that_beats_the_fork_is_kept_for_the_join() {
    use nowmp_net::CostModel;
    use nowmp_tmk::system::NullRunner;
    use nowmp_tmk::tree::{fork_costs, reduce_costs, Shapes};

    let n = 32;
    let (model, cost) = (NetModel::paper_1999(), CostModel::paper_1999());
    // Premise, from the shapes and the costs they are derived from: some
    // reduce child is informed of the fork, relays it to its own fork
    // children, and still lands its (empty-region) aggregate before its
    // aggregator is informed.
    let shapes = Shapes::for_team(n, &model, &cost);
    let (gap, hop) = fork_costs(n, &model, &cost);
    let informed = shapes.fork.informed(gap, hop);
    let (_, arrive) = reduce_costs(n, &model, &cost);
    let relayed = |c: usize| match shapes.fork.children(c).len() {
        0 => informed[c],
        kids => informed[c] + cost.relay_time() + gap * kids as u32,
    };
    let early: Vec<(usize, usize)> = (1..n)
        .map(|c| (c, shapes.reduce.parent(c)))
        .filter(|&(c, a)| a != 0 && relayed(c) + arrive < informed[a])
        .collect();
    assert!(
        !early.is_empty(),
        "the shapes must put some reduce child ahead of its aggregator"
    );

    let (sys, mut master) = paper_team(n, Arc::new(NullRunner));
    for _ in 0..4 {
        master.parallel(0, &[]);
    }
    assert_eq!(
        master.fork_no(),
        4,
        "every join completed (early: {early:?})"
    );
    assert!(
        sys.stats().snapshot().reduce_relays > 0,
        "the reduce tree ran"
    );
    master.shutdown();
}

/// An `n`-rank team on the paper models, the virtual clock and the
/// default (treed) collectives, running `runner`'s regions.
fn paper_team(n: usize, runner: Arc<dyn RegionRunner>) -> (Arc<DsmSystem>, MasterCtl) {
    paper_team_on(n, nowmp_util::Clock::new_virtual(), runner)
}

/// [`paper_team`] on `clock`, which `runner` may sleep on.
fn paper_team_on(
    n: usize,
    clock: nowmp_util::Clock,
    runner: Arc<dyn RegionRunner>,
) -> (Arc<DsmSystem>, MasterCtl) {
    use nowmp_net::CostModel;

    let (model, cost) = (NetModel::paper_1999(), CostModel::paper_1999());
    let net = Network::with_clock(n, 1, model, cost, clock);
    let cfg = DsmConfig {
        call_timeout: Duration::from_secs(20),
        ..DsmConfig::default_4k()
    };
    let sys = DsmSystem::new(net, cfg, runner);
    let mut master = sys.start_master(HostId(0));
    let mut workers = Vec::new();
    for i in 1..n {
        let hello: Vec<Gpid> = workers.clone();
        workers.push(sys.spawn_worker(HostId(i as u16), master.gpid(), hello));
    }
    master.init_team(&workers);
    (sys, master)
}

/// The aggregate-ordering regions: in region 0 `writer` rewrites every
/// word of `w` while `slow` (its reduce children) compute for `nap`; in
/// region 1 `reader` reads a word of each page, so its region faults
/// subscribe it to `writer`'s diffs.
struct PushAhead {
    clock: nowmp_util::Clock,
    writer: usize,
    slow: Vec<usize>,
    reader: usize,
    nap: Duration,
}

impl RegionRunner for PushAhead {
    fn run(&self, region: u32, ctx: &mut TmkCtx) {
        let w = SharedF64Vec::lookup(ctx, "w");
        let me = ctx.pid() as usize;
        match region {
            0 if me == self.writer => {
                for i in 0..w.len() {
                    let x = w.get(ctx, i);
                    w.set(ctx, i, x + 1.0);
                }
            }
            0 if self.slow.contains(&me) => self.clock.sleep(self.nap),
            1 if me == self.reader => {
                for i in (0..w.len()).step_by(512) {
                    w.get(ctx, i);
                }
            }
            _ => {}
        }
    }
}

/// An interior reduce rank closes its interval, with pushes queued for a
/// subscribed reader, long before its reduce children arrive. The
/// pushes use its link while it waits, and none is left ahead of its
/// own aggregate when the last child's arrives: the join ends a hop or
/// two after the slowest child, not the pushes' wire time later (as it
/// did when the pushes started on that arrival).
#[test]
fn an_aggregate_leaves_ahead_of_its_own_pushes() {
    use nowmp_net::CostModel;
    use nowmp_tmk::tree::Shapes;

    let n = 8;
    let (model, cost) = (NetModel::paper_1999(), CostModel::paper_1999());
    // Premise, from the shape the team runs: an aggregator other than
    // the master, and a reader outside its subtree and off its path.
    let shapes = Shapes::for_team(n, &model, &cost);
    let writer = (1..n)
        .find(|&a| !shapes.reduce.children(a).is_empty())
        .expect("the reduce shape has an interior rank");
    let slow = shapes.reduce.children(writer).to_vec();
    let reader = (1..n)
        .find(|&r| r != writer && !slow.contains(&r))
        .expect("a rank outside the aggregator's subtree");
    let clock = nowmp_util::Clock::new_virtual();
    let nap = Duration::from_millis(20);
    let runner = PushAhead {
        clock: clock.clone(),
        writer,
        slow,
        reader,
        nap,
    };
    let (sys, mut master) = paper_team_on(n, clock.clone(), Arc::new(runner));
    master.alloc("w", 16 * 512, ElemKind::F64);
    // Warm-up: the reader subscribes, and every later write is pushed.
    for _ in 0..2 {
        master.parallel(0, &[]);
        master.parallel(1, &[]);
    }
    let before = sys.stats().snapshot();
    let start = clock.now();
    master.parallel(0, &[]);
    let took = clock.now().saturating_since(start);
    master.parallel(1, &[]); // waits for the push, so it is counted
    let after = sys.stats().snapshot();
    let pushed = after.push_bytes - before.push_bytes;
    assert!(
        pushed > 16 * 4096,
        "the writer pushed its pages ({pushed} B)"
    );
    let wire = model.sender_time(pushed as usize);
    assert!(
        took < nap + wire,
        "the join took {took:?}: the aggregate queued behind {wire:?} of pushes"
    );
    master.shutdown();
}

/// Region `b` meets at `b` barriers back to back and touches nothing.
struct Barriers;

impl RegionRunner for Barriers {
    fn run(&self, region: u32, ctx: &mut TmkCtx) {
        for _ in 0..region {
            ctx.barrier();
        }
    }
}

/// A barrier arrival is a join's: it travels up the reduce shape,
/// whose parents differ from the release shape's. So a rank released
/// early can land its next barrier's arrival at a reduce parent still
/// waiting for the last release; the parent's release wait must leave
/// it in the control buffer for its next collection.
#[test]
fn a_barrier_arrival_that_beats_the_release_is_kept_for_the_next_collection() {
    use nowmp_net::CostModel;
    use nowmp_tmk::tree::{fork_costs, reduce_costs, Shapes};

    let (n, barriers, regions) = (32, 6, 3);
    let (model, cost) = (NetModel::paper_1999(), CostModel::paper_1999());
    // Premise, from the shapes and the costs they are derived from: some
    // reduce leaf is released, relays the release to its own release
    // children, and lands its next arrival before its reduce parent is
    // released.
    let shapes = Shapes::for_team(n, &model, &cost);
    let (gap, hop) = fork_costs(n, &model, &cost);
    let released = shapes.release.informed(gap, hop);
    let (_, arrive) = reduce_costs(n, &model, &cost);
    let relayed = |c: usize| match shapes.release.children(c).len() {
        0 => released[c],
        kids => released[c] + cost.relay_time() + gap * kids as u32,
    };
    let early: Vec<(usize, usize)> = (1..n)
        .filter(|&c| shapes.reduce.children(c).is_empty())
        .map(|c| (c, shapes.reduce.parent(c)))
        .filter(|&(c, a)| a != 0 && relayed(c) + arrive < released[a])
        .collect();
    assert!(
        !early.is_empty(),
        "the shapes must put some reduce leaf ahead of its parent's release"
    );

    let (sys, mut master) = paper_team(n, Arc::new(Barriers));
    for _ in 0..regions {
        master.parallel(barriers, &[]);
    }
    assert_eq!(
        master.fork_no(),
        regions,
        "every region completed (early: {early:?})"
    );
    let stats = sys.stats().snapshot();
    assert_eq!(stats.barrier_arrivals, regions * barriers as u64 * n as u64);
    assert!(stats.reduce_relays > 0, "the reduce tree ran");
    assert_eq!((stats.stale_dropped, stats.malformed_dropped), (0, 0));
    master.shutdown();
}

/// The master's link takes in one arrival per root child of the reduce
/// shape at every barrier, as at the join — not one per rank.
#[test]
fn a_barrier_takes_in_the_reduce_roots_children_at_the_master() {
    use nowmp_net::CostModel;
    use nowmp_tmk::tree::Shapes;

    let (n, barriers) = (32, 5);
    let shapes = Shapes::for_team(n, &NetModel::paper_1999(), &CostModel::paper_1999());
    let fan_in = shapes.reduce.children(0).len() as u64;
    assert!(fan_in < n as u64 - 1, "the reduce root aggregates");
    let (sys, mut master) = paper_team(n, Arc::new(Barriers));
    let mut taken_in = |region| {
        let before = sys.net().stats();
        master.parallel(region, &[]);
        sys.net().stats().since(&before).links[0].msgs_in
    };
    assert_eq!(taken_in(0), fan_in, "the join alone");
    assert_eq!(
        taken_in(barriers),
        (barriers as u64 + 1) * fan_in,
        "{barriers} barriers and the join"
    );
    master.shutdown();
}

/// Control input any peer can send — a request or an arrival of
/// another epoch, a request sent one-way — is dropped and counted by
/// the worker's wait loop, which keeps serving its team.
#[test]
fn stale_or_one_way_control_input_is_dropped_at_the_worker() {
    use nowmp_tmk::msg::{DirRle, Msg};
    use nowmp_tmk::Vc;

    let n = 300;
    let (sys, mut master, workers) = bring_up(3, n);
    let peer = sys.net().register(HostId(0));
    let team = master.team();
    // Epoch 0 is current: a `GcQuery` and a `JoinArrive` of epoch 1
    // are stale, and a one-way `Commit` has nobody to acknowledge.
    let stale = Msg::GcQuery { epoch: 1 }.to_bytes();
    let _unanswered = peer.call_begin(workers[0], stale).unwrap();
    let arrive = Msg::JoinArrive {
        epoch: 1,
        pid: 2,
        vc: Vc::new(3),
        records: vec![],
        partials: vec![],
    };
    peer.send(workers[0], arrive.to_bytes()).unwrap();
    let commit = Msg::Commit {
        epoch: 0,
        new_epoch: 1,
        my_pid: 1,
        dir: DirRle::from_vec(&[]),
        drop_pages: vec![],
        team,
    };
    peer.send(workers[0], commit.to_bytes()).unwrap();
    let dropped = || {
        let s = sys.stats().snapshot();
        (s.stale_dropped, s.malformed_dropped)
    };
    for _ in 0..10_000 {
        if dropped() == (2, 1) {
            break;
        }
        sys.net().clock().sleep(Duration::from_millis(1));
    }
    assert_eq!(dropped(), (2, 1), "(stale, malformed)");
    master.parallel(R_FILL, &[]);
    let got = read_all(&mut master, "v", n);
    for (i, x) in got.iter().enumerate() {
        assert_eq!(*x, i as f64, "element {i}");
    }
    assert_eq!(master.epoch(), 0);
    master.shutdown();
}

/// An arrival of another epoch that reaches the master — which has no
/// wait loop between regions — is dropped and counted by the next
/// join's collection, which still completes.
#[test]
fn a_stale_arrival_at_the_master_is_dropped_and_counted() {
    use nowmp_tmk::msg::Msg;
    use nowmp_tmk::Vc;

    let n = 300;
    let (sys, mut master, _workers) = bring_up(3, n);
    let peer = sys.net().register(HostId(0));
    let arrive = Msg::JoinArrive {
        epoch: 1,
        pid: 2,
        vc: Vc::new(3),
        records: vec![],
        partials: vec![],
    };
    for _ in 0..3 {
        peer.send(master.gpid(), arrive.to_bytes()).unwrap();
    }
    // Served in arrival order: once this is answered, the master's
    // service thread has forwarded all three arrivals to its buffer.
    let hello = Msg::ConnHello { from: peer.gpid() }.to_bytes();
    peer.call(master.gpid(), hello).unwrap();
    master.parallel(R_FILL, &[]);
    let got = read_all(&mut master, "v", n);
    for (i, x) in got.iter().enumerate() {
        assert_eq!(*x, i as f64, "element {i}");
    }
    let s = sys.stats().snapshot();
    assert_eq!((s.stale_dropped, s.malformed_dropped), (3, 0));
    master.shutdown();
}

/// Cold-reader regions over one page of `w`: in region 0 the `writers`
/// each write their own slice of it, in region 1 the `writers2` do the
/// same, and in region 2 every other rank but the master reads the
/// whole page into its own slot of `seen`.
struct ColdReaders {
    writers: Vec<usize>,
    writers2: Vec<usize>,
    seen: Arc<parking_lot::Mutex<Vec<(usize, Vec<u64>)>>>,
}

impl RegionRunner for ColdReaders {
    fn run(&self, region: u32, ctx: &mut TmkCtx) {
        let w = SharedF64Vec::lookup(ctx, "w");
        let me = ctx.pid() as usize;
        let writers = match region {
            0 => &self.writers,
            1 => &self.writers2,
            _ => {
                if me != 0 && !self.writers.contains(&me) && !self.writers2.contains(&me) {
                    let words = (0..w.len()).map(|i| w.get(ctx, i).to_bits()).collect();
                    self.seen.lock().push((me, words));
                }
                return;
            }
        };
        if let Some(k) = writers.iter().position(|&r| r == me) {
            let per = w.len() / writers.len();
            for i in k * per..(k + 1) * per {
                w.set(ctx, i, (1 + region as usize * 100 + i) as f64);
            }
        }
    }
}

/// Run [`ColdReaders`] on `n` ranks (one page of 32 words, the current
/// generation, virtual clock); returns, per reader rank, the rank that
/// served it the page whole, what it read, and the ranks whose diffs of
/// the page it subscribed to.
fn cold_readers(
    n: usize,
    writers: Vec<usize>,
    writers2: Vec<usize>,
) -> Vec<(usize, usize, Vec<u64>, Vec<usize>)> {
    use nowmp_net::CostModel;

    let clock = nowmp_util::Clock::new_virtual();
    let net = Network::with_clock(n, 1, NetModel::disabled(), CostModel::disabled(), clock);
    let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let runner = ColdReaders {
        writers,
        writers2,
        seen: Arc::clone(&seen),
    };
    let sys = DsmSystem::new(net, DsmConfig::test_small(), Arc::new(runner));
    let mut master = sys.start_master(HostId(0));
    let mut workers = Vec::new();
    for i in 1..n {
        let hello: Vec<Gpid> = workers.clone();
        workers.push(sys.spawn_worker(HostId(i as u16), master.gpid(), hello));
    }
    master.alloc("w", 32, ElemKind::F64);
    master.init_team(&workers);
    for region in 0..3 {
        master.parallel(region, &[]);
    }
    let team = master.team();
    let mut out: Vec<(usize, usize, Vec<u64>, Vec<usize>)> = seen
        .lock()
        .drain(..)
        .map(|(rank, words)| {
            let core = sys.core_of(team.gpid(rank as u16)).expect("a live rank");
            let core = core.lock();
            let served_by = core.pages[0].owner;
            let served_by = team.pid_of(served_by).expect("a team rank") as usize;
            let subscribed = (0..n)
                .filter(|&w| core.push_after.contains_key(&(0, w as u16)))
                .collect();
            (rank, served_by, words, subscribed)
        })
        .collect();
    out.sort_by_key(|(rank, ..)| *rank);
    let stats = sys.stats().snapshot();
    assert_eq!((stats.stale_dropped, stats.malformed_dropped), (0, 0));
    master.shutdown();
    out
}

/// Two concurrent writers of one page: their intervals tie at the
/// newest vcsum, so the four readers with no copy split their
/// `PageReq`s between them by rank, and ask the other writer for its
/// diff in the same round — every reader ends with the same page,
/// subscribed to both writers.
#[test]
fn cold_readers_spread_over_the_newest_concurrent_writers() {
    let read = cold_readers(7, vec![1, 2], vec![]);
    let served: Vec<(usize, usize)> = read.iter().map(|(r, s, ..)| (*r, *s)).collect();
    assert_eq!(
        served,
        vec![(3, 2), (4, 1), (5, 2), (6, 1)],
        "readers split by rank over writers 1 and 2"
    );
    let expect: Vec<u64> = (0..32).map(|i| (1 + i) as f64).map(f64::to_bits).collect();
    for (rank, _, words, subscribed) in &read {
        assert_eq!(words, &expect, "rank {rank}");
        assert_eq!(subscribed, &vec![1, 2], "rank {rank}");
    }
}

/// Writers in causal order (region 1's writer wrote after region 0's
/// fork-join): the newest writer's copy covers the older one, so every
/// cold reader asks it alone.
#[test]
fn cold_readers_ask_the_newest_of_causally_ordered_writers() {
    let read = cold_readers(6, vec![1], vec![2]);
    assert_eq!(read.len(), 3);
    let expect: Vec<u64> = (0..32)
        .map(|i| (101 + i) as f64)
        .map(f64::to_bits)
        .collect();
    for (rank, served_by, words, _) in &read {
        assert_eq!(*served_by, 2, "rank {rank} asked the newest writer");
        assert_eq!(words, &expect, "rank {rank}");
    }
}

/// The clock's ledger closes on every thread of every process: over a
/// region of barriers on the paper models, each application thread's
/// and each service thread's rows add up, in integer nanoseconds, to
/// the region's virtual time, and the barriers are booked as barriers.
#[test]
fn the_ledger_closes_on_every_thread_of_every_process() {
    use nowmp_tmk::ProcLedger;
    use nowmp_util::Cause;

    let clock = nowmp_util::Clock::new_virtual();
    let (sys, mut master) = paper_team_on(8, clock.clone(), Arc::new(Barriers));
    let (t0, before) = (clock.now(), sys.ledger());
    master.parallel(3, &[]);
    let span = clock.now().as_nanos() - t0.as_nanos();
    let region = ProcLedger::since(&sys.ledger(), &before);
    assert_eq!(region.len(), 8, "one split per process");
    for p in &region {
        assert_eq!(p.app.iter().sum::<u64>(), span, "{p:?}");
        assert_eq!(p.svc.iter().sum::<u64>(), span, "{p:?}");
        assert!(p.app(Cause::Barrier) > 0, "{p:?}");
    }
    master.shutdown();
}
