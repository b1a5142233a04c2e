//! Protocol stress and hardening tests: lock contention, barrier
//! ordering, mixed sync domains, GC under load, message-decoder
//! fuzzing, push-plane liveness, ownership redirect chains.

use nowmp_net::{Gpid, HostId, NetModel, Network};
use nowmp_tmk::msg::Msg;
use nowmp_tmk::shared::SharedF64Vec;
use nowmp_tmk::system::{DsmSystem, MasterCtl, RegionRunner};
use nowmp_tmk::{DsmConfig, TmkCtx};
use nowmp_util::wire::Wire;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

const R_LOCK_ADD: u32 = 0;
const R_BARRIER_PHASES: u32 = 1;
const R_MIXED: u32 = 2;
const R_WRITE_MINE: u32 = 3;

struct Stress {
    n: usize,
    rounds: usize,
}

impl RegionRunner for Stress {
    fn run(&self, region: u32, ctx: &mut TmkCtx) {
        let v = SharedF64Vec::lookup(ctx, "v");
        match region {
            // Every process increments the same counter `rounds` times
            // under a lock: the canonical contention test.
            R_LOCK_ADD => {
                for _ in 0..self.rounds {
                    ctx.critical(1, |c| {
                        let cur = v.get(c, 0);
                        v.set(c, 0, cur + 1.0);
                    });
                }
            }
            // Phased pipeline over barriers: phase p writes slot p+1
            // from slot p; ordering errors corrupt the chain.
            R_BARRIER_PHASES => {
                for p in 0..self.rounds {
                    if ctx.pid() as usize == p % ctx.nprocs() {
                        let cur = v.get(ctx, p);
                        v.set(ctx, p + 1, cur + 1.0);
                    }
                    ctx.barrier();
                }
            }
            // Mixed synchronization domains touching the same pages:
            // barrier-partitioned block writes + lock-protected counter
            // on the same array (page-level false sharing on purpose).
            R_MIXED => {
                let n = self.n;
                let per = n.div_ceil(ctx.nprocs());
                let pid = ctx.pid() as usize;
                let (lo, hi) = ((pid * per).min(n), ((pid + 1) * per).min(n));
                for round in 0..self.rounds {
                    for i in lo.max(8)..hi {
                        let cur = v.get(ctx, i);
                        v.set(ctx, i, cur + 1.0);
                    }
                    ctx.critical(2, |c| {
                        let cur = v.get(c, round % 4);
                        v.set(c, round % 4, cur + 1.0);
                    });
                    ctx.barrier();
                }
            }
            R_WRITE_MINE => {
                let n = self.n;
                let per = n.div_ceil(ctx.nprocs());
                let pid = ctx.pid() as usize;
                let (lo, hi) = ((pid * per).min(n), ((pid + 1) * per).min(n));
                for i in lo..hi {
                    let cur = v.get(ctx, i);
                    v.set(ctx, i, cur + 1.0);
                }
            }
            _ => unreachable!(),
        }
    }
}

fn system(procs: usize, n: usize, rounds: usize) -> MasterCtl {
    let net = Network::new(procs, NetModel::disabled());
    let cfg = DsmConfig {
        page_size: 256,
        ..DsmConfig::test_small()
    };
    let sys = DsmSystem::new(net, cfg, Arc::new(Stress { n, rounds }));
    let mut master = sys.start_master(HostId(0));
    let mut workers = Vec::new();
    for i in 1..procs {
        workers.push(sys.spawn_worker(HostId(i as u16), master.gpid(), workers.clone()));
    }
    master.alloc("v", n as u64, nowmp_tmk::ElemKind::F64);
    master.init_team(&workers);
    master
}

fn read0(master: &mut MasterCtl, i: usize) -> f64 {
    let v = SharedF64Vec::lookup(master.ctx(), "v");
    v.get(master.ctx(), i)
}

#[test]
fn lock_contention_counts_exactly() {
    for procs in [2usize, 4, 6] {
        let rounds = 25;
        let mut master = system(procs, 64, rounds);
        master.parallel(R_LOCK_ADD, &[]);
        let got = read0(&mut master, 0);
        assert_eq!(got, (procs * rounds) as f64, "procs={procs}");
        master.shutdown();
    }
}

#[test]
fn barrier_phase_chain() {
    let rounds = 12;
    let mut master = system(4, 64, rounds);
    {
        let v = SharedF64Vec::lookup(master.ctx(), "v");
        v.set(master.ctx(), 0, 5.0);
    }
    master.parallel(R_BARRIER_PHASES, &[]);
    // Slot p+1 = slot p + 1 for each phase: final = 5 + rounds.
    assert_eq!(read0(&mut master, rounds), 5.0 + rounds as f64);
    master.shutdown();
}

#[test]
fn mixed_sync_domains_on_shared_pages() {
    let procs = 4;
    let n = 64;
    let rounds = 10;
    let mut master = system(procs, n, rounds);
    master.parallel(R_MIXED, &[]);
    // Block region: each slot >= 8 incremented `rounds` times.
    for i in 8..n {
        assert_eq!(read0(&mut master, i), rounds as f64, "slot {i}");
    }
    // Lock-protected slots 0..4: counted across all procs.
    let mut total = 0.0;
    for i in 0..4 {
        total += read0(&mut master, i);
    }
    assert_eq!(total, (procs * rounds) as f64);
    master.shutdown();
}

#[test]
fn repeated_gc_under_load_preserves_state() {
    let procs = 4;
    let n = 256;
    let mut master = system(procs, n, 0);
    for round in 0..6 {
        master.parallel(R_WRITE_MINE, &[]);
        if round % 2 == 1 {
            let outcome = master.run_gc(&HashSet::new());
            let members = master.team().members.clone();
            master.commit_team(members, &outcome);
        }
    }
    for i in 0..n {
        assert_eq!(read0(&mut master, i), 6.0, "slot {i}");
    }
    // GC postcondition: no consistency metadata survives.
    let core = master.ctx().core().clone();
    {
        let c = core.lock();
        // records may exist from post-GC rounds; force one more GC:
        drop(c);
        let outcome = master.run_gc(&HashSet::new());
        let members = master.team().members.clone();
        master.commit_team(members, &outcome);
        let c = core.lock();
        assert!(c.records.is_empty(), "records cleared");
        assert!(c.diffs.is_empty(), "diffs cleared");
        assert_eq!(c.consistency_bytes, 0);
        for (i, m) in c.pages.iter() {
            assert!(m.twin.is_none(), "page {i} twin");
            assert!(m.pending.is_empty(), "page {i} pending");
        }
    }
    master.shutdown();
}

#[test]
fn gc_threshold_triggers_automatically() {
    // Tiny GC threshold: the runtime must GC on its own at adaptation
    // points once diffs accumulate (TreadMarks' memory exhaustion).
    let net = Network::new(3, NetModel::disabled());
    let mut cfg = DsmConfig {
        page_size: 256,
        ..DsmConfig::test_small()
    };
    cfg.gc_diff_threshold = 512; // bytes — absurdly small
    let sys = DsmSystem::new(net, cfg, Arc::new(Stress { n: 64, rounds: 4 }));
    let mut master = sys.start_master(HostId(0));
    let w1 = sys.spawn_worker(HostId(1), master.gpid(), vec![]);
    let w2 = sys.spawn_worker(HostId(2), master.gpid(), vec![w1]);
    master.alloc("v", 64, nowmp_tmk::ElemKind::F64);
    master.init_team(&[w1, w2]);
    for _ in 0..4 {
        master.parallel(R_MIXED, &[]);
        if master.gc_due() {
            let outcome = master.run_gc(&HashSet::new());
            let members = master.team().members.clone();
            master.commit_team(members, &outcome);
        }
    }
    assert!(sys.stats().snapshot().gcs > 0, "GC must have triggered");
    master.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn msg_decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Msg::from_wire(&bytes);
    }

    #[test]
    fn msg_roundtrip_fuzzed_pagerep(
        applied in proptest::collection::vec((any::<u16>(), any::<u32>()), 0..8),
        words in proptest::collection::vec(any::<u64>(), 0..64),
        redirect in proptest::option::of(any::<u32>()),
        push_after in proptest::option::of(any::<u32>()),
        fresh in 0u32..4,
    ) {
        // A lease rides only with an acknowledgement.
        let fresh = if push_after.is_some() { fresh } else { 0 };
        let m = Msg::PageRep {
            applied,
            words,
            redirect: redirect.map(Gpid),
            push_after,
            fresh,
        };
        let b = m.to_bytes();
        prop_assert_eq!(Msg::from_wire(&b).unwrap(), m);
    }

    #[test]
    fn msg_roundtrip_fuzzed_fork(
        epoch in any::<u32>(),
        region in any::<u32>(),
        params in proptest::collection::vec(any::<u8>(), 0..64),
        alloc in any::<u64>(),
    ) {
        let m = Msg::Fork {
            epoch,
            fork_no: 1,
            region,
            params,
            vc: nowmp_tmk::Vc::new(3),
            records: vec![],
            registry_delta: vec![],
            alloc_slots: alloc,
        };
        let b = m.to_bytes();
        prop_assert_eq!(Msg::from_wire(&b).unwrap(), m);
    }

    #[test]
    fn msg_roundtrip_fuzzed_join_arrive(
        pid in any::<u16>(),
        bits in proptest::collection::vec(any::<u64>(), 0..16),
    ) {
        // Any bit pattern rides, NaNs included: compare the partials'
        // bits, which `PartialEq` on `f64` would not.
        let m = Msg::JoinArrive {
            epoch: 2,
            pid,
            vc: nowmp_tmk::Vc::new(3),
            records: vec![],
            partials: bits.iter().copied().map(f64::from_bits).collect(),
        };
        let b = m.to_bytes();
        let Msg::JoinArrive { pid: back, partials, .. } = Msg::from_wire(&b).unwrap() else {
            panic!("decoded to another kind");
        };
        prop_assert_eq!(back, pid);
        let back_bits: Vec<u64> = partials.iter().map(|p| p.to_bits()).collect();
        prop_assert_eq!(back_bits, bits);
    }
}

// --- ownership redirect chains ---

/// A rank that has joined keeps serving its records: a lock it released
/// hands the next holder the notice of the interval its *join* closed.
struct LockAfterJoin {
    clock: nowmp_util::Clock,
}

impl RegionRunner for LockAfterJoin {
    fn run(&self, region: u32, ctx: &mut TmkCtx) {
        let counter = SharedF64Vec::lookup(ctx, "counter");
        let y = SharedF64Vec::lookup(ctx, "y");
        let seen = SharedF64Vec::lookup(ctx, "seen");
        let bump = |c: &mut TmkCtx, v: &SharedF64Vec| {
            let cur = v.get(c, 0);
            v.set(c, 0, cur + 1.0);
        };
        match (ctx.pid(), region) {
            // Rank 2 — rank 3's parent in the join tree — takes the
            // lock, then writes `y` outside it: that write is closed by
            // the join, where rank 2 then waits for rank 3.
            (2, _) => {
                ctx.critical(1, |c| bump(c, &counter));
                bump(ctx, &y);
            }
            // Warm-up: rank 3 reads `y` fork after fork, so its region
            // fault subscribes it to rank 2's pushes.
            (3, 0) => {
                let v = y.get(ctx, 0);
                seen.set(ctx, 0, v);
            }
            // Then it takes the lock long after rank 2 has joined, and
            // reads `y` on the strength of the records that came with
            // the lock.
            (3, _) => {
                self.clock.sleep(std::time::Duration::from_millis(50));
                ctx.critical(1, |c| bump(c, &counter));
                let v = y.get(ctx, 0);
                seen.set(ctx, 0, v);
            }
            _ => {}
        }
    }
}

#[test]
fn a_joined_aggregator_pushes_what_its_records_announce() {
    // Liveness of the push plane under the tree join reduce. After the
    // warm-up rank 3 *expects* rank 2's diffs of `y` (rule R) and parks
    // for the one the lock transfer told it about. That diff sits in
    // rank 2's outbox, held by the close of rank 2's arrival until that
    // arrival is on the link — and rank 2's application thread is
    // blocked collecting its subtree: rank 3. What keeps the two
    // moving is that a `RecordsRep` releases the held pushes, so the
    // `RecordsReq` that hands out the notice is followed by the push it
    // announces. A service loop that pushed only when woken would
    // deadlock here (and the fault path's guard would say so: "pushed
    // diff lost: page .., writer pid 2, ..").
    let clock = nowmp_util::Clock::new_virtual();
    let net = Network::with_clock(
        4,
        1,
        NetModel::disabled(),
        nowmp_net::CostModel::disabled(),
        clock.clone(),
    );
    let cfg = DsmConfig {
        call_timeout: std::time::Duration::from_secs(10),
        ..DsmConfig::test_small()
    };
    let sys = DsmSystem::new(
        net,
        cfg,
        Arc::new(LockAfterJoin {
            clock: clock.clone(),
        }),
    );
    let mut master = sys.start_master(HostId(0));
    let mut workers = Vec::new();
    for i in 1..4 {
        workers.push(sys.spawn_worker(HostId(i), master.gpid(), workers.clone()));
    }
    for name in ["counter", "y", "seen"] {
        master.alloc(name, 4, nowmp_tmk::ElemKind::F64);
    }
    master.init_team(&workers);
    const WARM: usize = 4;
    const LATE: usize = 3;
    for fork in 0..WARM + LATE {
        master.parallel((fork >= WARM) as u32, &[]);
    }
    let read = |m: &mut MasterCtl, name: &str| {
        let v = SharedF64Vec::lookup(m.ctx(), name);
        v.get(m.ctx(), 0)
    };
    assert_eq!(read(&mut master, "counter"), (WARM + 2 * LATE) as f64);
    assert_eq!(read(&mut master, "y"), (WARM + LATE) as f64);
    assert_eq!(
        read(&mut master, "seen"),
        (WARM + LATE) as f64,
        "the lock carried the join-closed interval to rank 3"
    );
    let stats = sys.stats().snapshot();
    assert!(
        stats.push_hits > 0,
        "rank 3 must have been served by pushes"
    );
    master.shutdown();
    assert_eq!(clock.forced_advances(), 0);
}

#[test]
fn stale_owner_hints_redirect_to_current_owner() {
    // After a leave, pages the leaver owned re-home; a process that
    // slept through the change (kept the old owner hint) must chase the
    // redirect chain instead of failing.
    let procs = 4;
    let n = 256;
    let mut master = system(procs, n, 0);
    master.parallel(R_WRITE_MINE, &[]);
    // Leave of the last worker: its pages re-home via the master.
    let leaver = *master.team().members.last().unwrap();
    let avoid: HashSet<_> = [leaver].into_iter().collect();
    let outcome = master.run_gc(&avoid);
    let mut members = master.team().members.clone();
    members.retain(|&g| g != leaver);
    master.commit_team(members, &outcome);
    // Master reads everything, including pages whose directory entry
    // changed; every fetch resolves (possibly via redirects).
    for i in 0..n {
        let got = read0(&mut master, i);
        assert_eq!(got, 1.0, "slot {i}");
    }
    master.shutdown();
}

#[test]
fn team_of_one_supports_all_sync_ops() {
    // Degenerate team: locks and barriers must be local no-ops.
    let mut master = system(1, 32, 3);
    master.parallel(R_LOCK_ADD, &[]);
    master.parallel(R_BARRIER_PHASES, &[]);
    assert_eq!(read0(&mut master, 0), 3.0);
    master.shutdown();
}
