//! End-to-end tests of the adaptive runtime: joins, normal leaves,
//! urgent leaves (migration + multiplexing), checkpoint/recovery — all
//! with a live workload verifying data integrity across adaptations.

use nowmp_core::{AdaptError, Cluster, ClusterConfig, EventKind, LeaveSel, ReassignPolicy};
use nowmp_tmk::shared::{SharedF64Mat, SharedF64Vec};
use nowmp_tmk::system::RegionRunner;
use nowmp_tmk::{ElemKind, TmkCtx};
use std::sync::Arc;
use std::time::Duration;

const R_FILL: u32 = 0;
const R_SCALE: u32 = 1;

struct App {
    n: usize,
}

impl RegionRunner for App {
    fn run(&self, region: u32, ctx: &mut TmkCtx) {
        let n = self.n;
        let per = n.div_ceil(ctx.nprocs());
        let pid = ctx.pid() as usize;
        let (lo, hi) = ((pid * per).min(n), ((pid + 1) * per).min(n));
        let v = SharedF64Vec::lookup(ctx, "v");
        match region {
            R_FILL => {
                for i in lo..hi {
                    v.set(ctx, i, i as f64);
                }
            }
            R_SCALE => {
                for i in lo..hi {
                    let x = v.get(ctx, i);
                    v.set(ctx, i, 2.0 * x);
                }
            }
            other => panic!("unknown region {other}"),
        }
    }
}

fn cluster(hosts: usize, procs: usize, n: usize) -> Cluster {
    let mut c = Cluster::new(ClusterConfig::test(hosts, procs), Arc::new(App { n }));
    c.alloc("v", n as u64, ElemKind::F64);
    c
}

fn read_v(c: &mut Cluster, n: usize) -> Vec<f64> {
    let v = SharedF64Vec::lookup(c.ctx(), "v");
    let mut out = vec![0.0; n];
    v.read_into(c.ctx(), 0, &mut out);
    out
}

fn expect_scaled(n: usize, times: u32) -> Vec<f64> {
    (0..n)
        .map(|i| i as f64 * f64::powi(2.0, times as i32))
        .collect()
}

#[test]
fn steady_state_computation() {
    let n = 300;
    let mut c = cluster(4, 4, n);
    c.parallel(R_FILL, &[]);
    for _ in 0..3 {
        c.parallel(R_SCALE, &[]);
    }
    assert_eq!(read_v(&mut c, n), expect_scaled(n, 3));
    assert_eq!(c.nprocs(), 4);
    c.shutdown();
}

#[test]
fn normal_leave_end_process() {
    let n = 400;
    let mut c = cluster(4, 4, n);
    c.parallel(R_FILL, &[]);
    // "End" leave: highest pid.
    let leaver = c.adapt().leave(LeaveSel::Pid(3), None).unwrap();
    c.parallel(R_SCALE, &[]); // adaptation happens before this fork
    assert_eq!(c.nprocs(), 3);
    assert!(!c.team().contains(&leaver));
    assert_eq!(read_v(&mut c, n), expect_scaled(n, 1));
    // Log recorded the leave.
    let kinds: Vec<_> = c.log().entries().into_iter().map(|e| e.kind).collect();
    assert!(kinds
        .iter()
        .any(|k| matches!(k, EventKind::NormalLeave { gpid } if *gpid == leaver)));
    assert!(kinds
        .iter()
        .any(|k| matches!(k, EventKind::Adaptation { leaves: 1, .. })));
    c.shutdown();
}

#[test]
fn normal_leave_middle_process() {
    let n = 400;
    let mut c = cluster(4, 4, n);
    c.parallel(R_FILL, &[]);
    c.adapt().leave(LeaveSel::Pid(1), None).unwrap();
    c.parallel(R_SCALE, &[]);
    assert_eq!(c.nprocs(), 3);
    assert_eq!(read_v(&mut c, n), expect_scaled(n, 1));
    c.shutdown();
}

#[test]
fn join_grows_team() {
    let n = 400;
    let mut c = cluster(4, 2, n);
    c.parallel(R_FILL, &[]);
    let (joiner, _) = c.join_ready().unwrap();
    c.parallel(R_SCALE, &[]);
    assert_eq!(c.nprocs(), 3);
    assert!(c.team().contains(&joiner));
    assert_eq!(read_v(&mut c, n), expect_scaled(n, 1));
    c.shutdown();
}

#[test]
fn join_without_free_host_fails() {
    let n = 100;
    let c = cluster(2, 2, n);
    assert_eq!(c.adapt().join().unwrap_err(), AdaptError::NoFreeHost);
    c.shutdown();
}

#[test]
fn master_cannot_leave() {
    let n = 100;
    let c = cluster(2, 2, n);
    assert_eq!(
        c.adapt().leave(LeaveSel::Pid(0), None).unwrap_err(),
        AdaptError::MasterCannotLeave
    );
    c.shutdown();
}

#[test]
fn double_leave_rejected() {
    let n = 100;
    let c = cluster(3, 3, n);
    let g = c.adapt().leave(LeaveSel::Pid(2), None).unwrap();
    assert_eq!(
        c.adapt().leave(LeaveSel::Gpid(g), None).unwrap_err(),
        AdaptError::AlreadyLeaving(g)
    );
    c.shutdown();
}

#[test]
fn alternating_leave_join_preserves_results() {
    let n = 512;
    let mut c = cluster(5, 4, n);
    c.parallel(R_FILL, &[]);
    let mut scales = 0;
    for round in 0..6 {
        if round % 2 == 0 {
            let pid = (c.nprocs() - 1) as u16;
            c.adapt().leave(LeaveSel::Pid(pid), None).unwrap();
        } else {
            c.join_ready().unwrap();
        }
        c.parallel(R_SCALE, &[]);
        scales += 1;
        assert_eq!(read_v(&mut c, n), expect_scaled(n, scales), "round {round}");
    }
    c.shutdown();
}

#[test]
fn multiple_simultaneous_leaves() {
    let n = 400;
    let mut c = cluster(6, 6, n);
    c.parallel(R_FILL, &[]);
    c.adapt().leave(LeaveSel::Pid(5), None).unwrap();
    c.adapt().leave(LeaveSel::Pid(4), None).unwrap();
    c.adapt().leave(LeaveSel::Pid(3), None).unwrap();
    c.parallel(R_SCALE, &[]);
    assert_eq!(c.nprocs(), 3);
    assert_eq!(read_v(&mut c, n), expect_scaled(n, 1));
    // All three left in ONE adaptation.
    let adapts = c.log().adaptations();
    assert_eq!(adapts.len(), 1);
    assert_eq!(adapts[0].3, 3, "three leaves in one adaptation");
    c.shutdown();
}

#[test]
fn simultaneous_join_and_leave_fill_gaps() {
    let n = 400;
    let cfg = ClusterConfig::test(5, 4).with_reassign(ReassignPolicy::FillGaps);
    let mut c = Cluster::new(cfg, Arc::new(App { n }));
    c.alloc("v", n as u64, ElemKind::F64);
    c.parallel(R_FILL, &[]);
    let leaver = c.adapt().leave(LeaveSel::Pid(2), None).unwrap();
    let (joiner, _) = c.join_ready().unwrap();
    c.parallel(R_SCALE, &[]);
    assert_eq!(c.nprocs(), 4);
    let team = c.team();
    assert_eq!(team[2], joiner, "joiner adopted the leaver's slot");
    assert!(!team.contains(&leaver));
    assert_eq!(read_v(&mut c, n), expect_scaled(n, 1));
    c.shutdown();
}

#[test]
fn urgent_leave_migrates_and_then_leaves() {
    let n = 400;
    let mut c = cluster(4, 3, n);
    c.parallel(R_FILL, &[]);
    // Unbounded grace, then force the urgent path deterministically.
    let g = c.adapt().leave(LeaveSel::Pid(2), None).unwrap();
    assert!(c.shared().force_urgent(g));
    // The process is migrated (multiplexed) but still a team member.
    assert_eq!(c.nprocs(), 3);
    // Next adaptation point removes it.
    c.parallel(R_SCALE, &[]);
    assert_eq!(c.nprocs(), 2);
    assert_eq!(read_v(&mut c, n), expect_scaled(n, 1));
    let kinds: Vec<_> = c.log().entries().into_iter().map(|e| e.kind).collect();
    assert!(kinds
        .iter()
        .any(|k| matches!(k, EventKind::UrgentMigrationStart { gpid, .. } if *gpid == g)));
    assert!(kinds
        .iter()
        .any(|k| matches!(k, EventKind::UrgentMigrationDone { gpid, .. } if *gpid == g)));
    c.shutdown();
}

#[test]
fn urgent_leave_via_grace_timer() {
    let n = 200;
    let mut c = cluster(4, 3, n);
    c.parallel(R_FILL, &[]);
    // Tiny grace; don't reach an adaptation point until it expires.
    let g = c
        .adapt()
        .leave(LeaveSel::Pid(2), Some(Duration::from_millis(30)))
        .unwrap();
    // Poll for the timer-driven migration instead of one fixed sleep:
    // bounded wall-clock wait, immune to scheduler stalls well past
    // the 30ms grace period.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let migrated = loop {
        let kinds: Vec<_> = c.log().entries().into_iter().map(|e| e.kind).collect();
        if kinds
            .iter()
            .any(|k| matches!(k, EventKind::UrgentMigrationDone { gpid, .. } if *gpid == g))
        {
            break true;
        }
        if std::time::Instant::now() > deadline {
            break false;
        }
        // On the cluster clock, so that a virtual one sees the master
        // parked and lets the grace period pass.
        c.clock().sleep(Duration::from_millis(10));
    };
    assert!(migrated, "grace timer must trigger migration");
    c.parallel(R_SCALE, &[]);
    assert_eq!(c.nprocs(), 2);
    assert_eq!(read_v(&mut c, n), expect_scaled(n, 1));
    c.shutdown();
}

/// `join_ready` waits for the spawner thread and the new process's
/// handshake, nothing else: its simulated cost is the process-creation
/// delay plus the connection setup, whatever the host's scheduler does
/// with the spawner thread.
#[test]
fn join_ready_costs_spawn_plus_handshake_exactly() {
    use nowmp_net::{CostModel, NetModel};
    let took = || {
        let n = 64;
        let cfg = ClusterConfig::test(4, 2)
            .with_net_model(NetModel::paper_1999())
            .with_cost_model(CostModel::paper_1999())
            .with_clock(nowmp_util::Clock::new_virtual());
        let mut c = Cluster::new(cfg, Arc::new(App { n }));
        c.alloc("v", n as u64, ElemKind::F64);
        let t0 = c.clock().now();
        c.join_ready().unwrap();
        let took = c.clock().elapsed_since(t0);
        c.parallel(R_FILL, &[]); // commit the join so shutdown reaches it
        assert_eq!(c.nprocs(), 3);
        assert_eq!(c.clock().forced_advances(), 0);
        c.shutdown();
        took
    };
    let (a, b) = (took(), took());
    assert_eq!(a, b, "two fresh systems must agree bit for bit");
    let spawn = CostModel::paper_1999().spawn_time();
    assert!(
        a > spawn && a < spawn + Duration::from_millis(5),
        "0.7 s of process creation plus a three-message handshake, got {a:?}"
    );
}

#[test]
fn virtual_clock_grace_timer_fires_in_simulated_time() {
    // The paper-scale scenario the real clock can't afford in a unit
    // test: a full 3 s grace period expires and triggers the urgent
    // migration — in simulated time, at (near-)zero wall cost, with an
    // exact timestamp.
    let n = 200;
    let cfg = ClusterConfig::test(4, 3).with_clock(nowmp_util::Clock::new_virtual());
    let mut c = Cluster::new(cfg, Arc::new(App { n }));
    c.alloc("v", n as u64, ElemKind::F64);
    c.parallel(R_FILL, &[]);
    let wall = std::time::Instant::now();
    let g = c
        .adapt()
        .leave(LeaveSel::Pid(2), Some(Duration::from_secs(3)))
        .unwrap();
    // Park the master on the simulation clock: the cluster is then
    // quiescent and virtual time advances straight to the grace
    // deadline. By the time this sleep returns (at t=4 s simulated),
    // the timer thread has finished the migration.
    c.clock().sleep(Duration::from_secs(4));
    let entries = c.log().entries();
    let start = entries
        .iter()
        .find(|e| matches!(e.kind, EventKind::UrgentMigrationStart { gpid, .. } if gpid == g))
        .expect("grace timer must trigger migration");
    assert_eq!(
        start.at,
        Duration::from_secs(3),
        "migration starts exactly at grace expiry on the virtual timeline"
    );
    c.parallel(R_SCALE, &[]);
    assert_eq!(c.nprocs(), 2);
    assert_eq!(read_v(&mut c, n), expect_scaled(n, 1));
    assert!(
        wall.elapsed() < Duration::from_secs(2),
        "3 s grace must not cost wall time: {:?}",
        wall.elapsed()
    );
    c.shutdown();
}

/// 8 processes on 9 hosts under the paper's wire and host models — the
/// models the collective shapes are derived from — on a virtual clock.
fn paper_tree_cfg() -> ClusterConfig {
    ClusterConfig::test(9, 8)
        .with_net_model(nowmp_net::NetModel::paper_1999())
        .with_cost_model(nowmp_net::CostModel::paper_1999())
        .with_clock(nowmp_util::Clock::new_virtual())
}

/// The collective shapes `cfg`'s initial team runs on.
fn shapes_of(cfg: &ClusterConfig) -> nowmp_tmk::tree::Shapes {
    nowmp_tmk::tree::Shapes::for_team(cfg.initial_procs, &cfg.net_model, &cfg.cost_model)
}

#[test]
fn interior_tree_relay_killed_mid_fork_still_completes() {
    // ISSUE 5 regression: kill an *interior relay* of the fork shape
    // (the root's first child, which forwards forks to its own subtree)
    // mid-fork through the grace-timer path: a grace so short it can
    // only expire while the next parallel region is in flight. The urgent migration freezes the computation
    // mid-region and moves the relay's process — the fork must still
    // complete and verify, the leave must commit at the next
    // adaptation point, and the compacted 7-rank tree must keep
    // delivering forks (survivor order is stable, so interior edges
    // only shrink).
    // 64 Ki slots = 128 × 4 KB pages: under the paper wire model the
    // fill region spans tens of simulated milliseconds, so a leave
    // requested at t = 2 ms with a 100 µs grace *provably* expires
    // while the fork is in flight.
    let n = 64 * 1024;
    let cfg = paper_tree_cfg();
    assert_eq!(
        cfg.dsm.collectives.fork,
        nowmp_tmk::Broadcast::Tree,
        "tree broadcast is the default under test"
    );
    let fork = shapes_of(&cfg).fork;
    let relay = fork.children(0)[0];
    assert!(
        !fork.children(relay).is_empty(),
        "rank {relay} must be an interior relay of the 8-rank fork shape"
    );
    let mut c = Cluster::new(cfg, Arc::new(App { n }));
    c.alloc("v", n as u64, ElemKind::F64);
    let g = c.team()[relay];
    let shared = c.shared();
    let killer = c.clock().clone().spawn("killer", move || {
        // Lands mid-region on the virtual timeline (the fill fork has
        // barely started moving its first pages by t = 2 ms).
        shared.clock().sleep(Duration::from_millis(2));
        shared
            .adapt()
            .leave(LeaveSel::Gpid(g), Some(Duration::from_micros(100)))
            .expect("interior relay can leave");
    });
    c.parallel(R_FILL, &[]); // the kill and its grace expiry happen in here
    killer.join().unwrap();
    // If the region somehow outran the timer, parking the master makes
    // the simulation idle and the alarm fires now.
    c.clock().sleep(Duration::from_millis(1));
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let kinds: Vec<_> = c.log().entries().into_iter().map(|e| e.kind).collect();
        if kinds
            .iter()
            .any(|k| matches!(k, EventKind::UrgentMigrationDone { gpid, .. } if *gpid == g))
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "grace timer never migrated the interior relay"
        );
        // A clock-visible poll: the migration's charged transfer time
        // passes while the master is parked here.
        c.clock().sleep(Duration::from_millis(5));
    }
    // Next adaptation point commits the leave; the fork tree compacts
    // to 7 ranks and further forks must still reach everyone.
    c.parallel(R_SCALE, &[]);
    assert_eq!(c.nprocs(), 7);
    c.parallel(R_SCALE, &[]);
    assert_eq!(read_v(&mut c, n), expect_scaled(n, 2));
    c.shutdown();
}

#[test]
fn interior_tree_aggregator_killed_mid_join_still_completes() {
    // ISSUE 6 regression, the collection-side mirror of
    // `interior_tree_relay_killed_mid_fork_still_completes`: an
    // interior rank of the reduce shape *aggregates* the JoinArrives of
    // its subtree before forwarding one merged message to its parent.
    // Kill it at the tail of the region: the fill
    // spans ~3.2 ms -> ~110.8 ms on the paper-model virtual timeline,
    // so a leave requested at t = 109 ms with a 100 us grace expires
    // in the join/collection window. The join must still complete
    // (escalation past the frozen aggregator, or its migrated
    // incarnation finishing the reduce), the leave must commit at the
    // next adaptation point, and the compacted 7-rank reduce tree must
    // keep collecting joins.
    let n = 64 * 1024;
    let cfg = paper_tree_cfg();
    assert_eq!(
        cfg.dsm.collectives.join_reduce,
        nowmp_tmk::Broadcast::Tree,
        "tree join reduce is the default under test"
    );
    let reduce = shapes_of(&cfg).reduce;
    let aggregator = reduce.children(0)[0];
    assert!(
        !reduce.children(aggregator).is_empty(),
        "rank {aggregator} must be an interior aggregator of the 8-rank reduce shape"
    );
    let mut c = Cluster::new(cfg, Arc::new(App { n }));
    c.alloc("v", n as u64, ElemKind::F64);
    let g = c.team()[aggregator];
    let shared = c.shared();
    let killer = c.clock().clone().spawn("killer", move || {
        // Lands in the last ~2 ms of the region, where workers drain
        // their intervals and the reduce tree collects upward.
        shared.clock().sleep(Duration::from_millis(109));
        shared
            .adapt()
            .leave(LeaveSel::Gpid(g), Some(Duration::from_micros(100)))
            .expect("interior aggregator can leave");
    });
    c.parallel(R_FILL, &[]); // the kill and its grace expiry happen in here
    killer.join().unwrap();
    c.clock().sleep(Duration::from_millis(1));
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let kinds: Vec<_> = c.log().entries().into_iter().map(|e| e.kind).collect();
        if kinds
            .iter()
            .any(|k| matches!(k, EventKind::UrgentMigrationDone { gpid, .. } if *gpid == g))
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "grace timer never migrated the interior aggregator"
        );
        c.clock().sleep(Duration::from_millis(5));
    }
    // Next adaptation point commits the leave; the reduce tree
    // compacts to 7 ranks and further joins must still reach rank 0.
    c.parallel(R_SCALE, &[]);
    assert_eq!(c.nprocs(), 7);
    c.parallel(R_SCALE, &[]);
    assert_eq!(read_v(&mut c, n), expect_scaled(n, 2));
    c.shutdown();
}

#[test]
fn normal_leave_wins_grace_race_at_adaptation_point() {
    let n = 200;
    let mut c = cluster(4, 3, n);
    c.parallel(R_FILL, &[]);
    // Long grace: the adaptation point arrives first -> normal leave.
    let g = c
        .adapt()
        .leave(LeaveSel::Pid(2), Some(Duration::from_secs(30)))
        .unwrap();
    c.parallel(R_SCALE, &[]);
    assert_eq!(c.nprocs(), 2);
    let kinds: Vec<_> = c.log().entries().into_iter().map(|e| e.kind).collect();
    assert!(kinds
        .iter()
        .any(|k| matches!(k, EventKind::NormalLeave { gpid } if *gpid == g)));
    assert!(!kinds
        .iter()
        .any(|k| matches!(k, EventKind::UrgentMigrationStart { .. })));
    c.shutdown();
}

#[test]
fn checkpoint_and_recover() {
    let n = 300;
    let dir = std::env::temp_dir().join("nowmp-core-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("adaptive.ckpt");

    let cfg = ClusterConfig::test(3, 3)
        .with_master_state_provider(|| b"iteration=2".to_vec())
        .with_ckpt_path(path.clone());
    let mut c = Cluster::new(cfg.clone(), Arc::new(App { n }));
    c.alloc("v", n as u64, ElemKind::F64);
    c.parallel(R_FILL, &[]);
    c.parallel(R_SCALE, &[]);
    c.adapt().checkpoint();
    c.parallel(R_SCALE, &[]); // checkpoint happens at the adaptation point before this fork
    let expect_at_ckpt = expect_scaled(n, 1);
    c.shutdown();

    // Crash! Recover from the checkpoint.
    let (mut c2, blob) = Cluster::recover(cfg, Arc::new(App { n }), &path).unwrap();
    assert_eq!(blob, b"iteration=2".to_vec());
    assert_eq!(c2.fork_no(), 2, "two forks had completed at the checkpoint");
    let v = read_v(&mut c2, n);
    assert_eq!(
        v, expect_at_ckpt,
        "restored memory reflects the checkpoint moment"
    );
    // The recovered cluster computes onward.
    c2.parallel(R_SCALE, &[]);
    assert_eq!(read_v(&mut c2, n), expect_scaled(n, 2));
    c2.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn periodic_checkpoint_policy() {
    let n = 100;
    let cfg = ClusterConfig::test(2, 2).with_ckpt_every_forks(2);
    let mut c = Cluster::new(cfg, Arc::new(App { n }));
    c.alloc("v", n as u64, ElemKind::F64);
    c.parallel(R_FILL, &[]);
    for _ in 0..5 {
        c.parallel(R_SCALE, &[]);
    }
    let ckpts = c
        .log()
        .entries()
        .into_iter()
        .filter(|e| matches!(e.kind, EventKind::Checkpoint { .. }))
        .count();
    assert!(ckpts >= 2, "expected periodic checkpoints, saw {ckpts}");
    c.shutdown();
}

#[test]
fn shrink_to_master_only_and_grow_back() {
    let n = 200;
    let mut c = cluster(3, 3, n);
    c.parallel(R_FILL, &[]);
    c.adapt().leave(LeaveSel::Pid(2), None).unwrap();
    c.adapt().leave(LeaveSel::Pid(1), None).unwrap();
    c.parallel(R_SCALE, &[]);
    assert_eq!(c.nprocs(), 1, "master-only team");
    assert_eq!(read_v(&mut c, n), expect_scaled(n, 1));
    // Grow back.
    c.join_ready().unwrap();
    c.join_ready().unwrap();
    c.parallel(R_SCALE, &[]);
    assert_eq!(c.nprocs(), 3);
    assert_eq!(read_v(&mut c, n), expect_scaled(n, 2));
    c.shutdown();
}

#[test]
fn adaptation_records_have_traffic() {
    let n = 1024; // multiple pages -> measurable movement
    let mut c = cluster(4, 4, n);
    c.parallel(R_FILL, &[]);
    c.adapt().leave(LeaveSel::Pid(3), None).unwrap();
    c.parallel(R_SCALE, &[]);
    let adapts = c.log().adaptations();
    assert_eq!(adapts.len(), 1);
    let (_, _, _joins, leaves, _took, bytes, max_link) = adapts[0];
    assert_eq!(leaves, 1);
    assert!(bytes > 0, "adaptation moved bytes");
    assert!(max_link > 0 && max_link <= bytes);
    c.shutdown();
}

// --- a leaver's pages leave whole ------------------------------------

/// Rows and columns of [`Stencil`]'s two grids: one 4 KB page per row.
const JROWS: usize = 64;
const JCOLS: usize = 512;
const R_JACOBI_INIT: u32 = 0;
const R_JACOBI_STEP: u32 = 1;
const R_SPARSE_WRITE: u32 = 2;

/// Jacobi relaxation over row blocks: each step reads grid
/// `params[0] % 2` and writes the other, so a rank rewrites nearly every
/// word of its pages each step. `R_SPARSE_WRITE` instead bumps one word
/// per row of the first grid: a few words per page per step.
struct Stencil;

impl Stencil {
    fn grids(ctx: &TmkCtx) -> [SharedF64Mat; 2] {
        ["a", "b"].map(|name| SharedF64Mat::lookup(ctx, name, JROWS as u64, JCOLS as u64))
    }
}

impl RegionRunner for Stencil {
    fn run(&self, region: u32, ctx: &mut TmkCtx) {
        let per = JROWS.div_ceil(ctx.nprocs());
        let pid = ctx.pid() as usize;
        let rows = (pid * per).min(JROWS)..((pid + 1) * per).min(JROWS);
        let [a, b] = Stencil::grids(ctx);
        let mut row = vec![0.0; JCOLS];
        match region {
            R_JACOBI_INIT => {
                for r in rows {
                    for (c, x) in row.iter_mut().enumerate() {
                        *x = ((r * 131 + c * 71) * (r + 3 * c + 1) % 1009) as f64;
                    }
                    a.write_row(ctx, r, &row);
                    b.write_row(ctx, r, &row);
                }
            }
            R_JACOBI_STEP => {
                let (src, dst) = if ctx.params()[0].is_multiple_of(2) {
                    (a, b)
                } else {
                    (b, a)
                };
                let (mut up, mut mid, mut down) = (row.clone(), row.clone(), row.clone());
                for r in rows {
                    src.read_row(ctx, r, &mut mid);
                    if r > 0 && r < JROWS - 1 {
                        src.read_row(ctx, r - 1, &mut up);
                        src.read_row(ctx, r + 1, &mut down);
                        for c in 1..JCOLS - 1 {
                            row[c] = 0.25 * (up[c] + down[c] + mid[c - 1] + mid[c + 1]);
                        }
                        row[0] = mid[0];
                        row[JCOLS - 1] = mid[JCOLS - 1];
                    } else {
                        row.copy_from_slice(&mid);
                    }
                    dst.write_row(ctx, r, &row);
                }
            }
            R_SPARSE_WRITE => {
                let step = ctx.params()[0] as usize;
                for r in rows {
                    let x = a.get(ctx, r, step);
                    a.set(ctx, r, step, x + 1.0);
                }
            }
            other => panic!("unknown region {other}"),
        }
    }
}

/// 8 ranks on 9 hosts, current generation, 4 KB pages, virtual clock.
fn stencil_cluster() -> Cluster {
    let mut cfg = ClusterConfig::test(9, 8).with_clock(nowmp_util::Clock::new_virtual());
    cfg.dsm = nowmp_tmk::DsmConfig::default_4k();
    let mut c = Cluster::new(cfg, Arc::new(Stencil));
    for name in ["a", "b"] {
        c.alloc(name, (JROWS * JCOLS) as u64, ElemKind::F64);
    }
    c.parallel(R_JACOBI_INIT, &[]);
    c
}

/// Both grids as the master reads them, bit for bit.
fn stencil_image(c: &mut Cluster) -> Vec<u64> {
    let grids = Stencil::grids(c.ctx());
    let mut row = vec![0.0; JCOLS];
    let mut image = Vec::with_capacity(2 * JROWS * JCOLS);
    for g in grids {
        for r in 0..JROWS {
            g.read_row(c.ctx(), r, &mut row);
            image.extend(row.iter().map(|x| x.to_bits()));
        }
    }
    image
}

/// Checkpoint (a GC, after which the master holds every page
/// complete), run `steps` of `region`, then — when `leaver` is set —
/// let that rank leave at the adaptation point before one more step.
/// Returns the final image, the leave's `max_link_bytes` and the DSM
/// counters it moved.
fn run_then_leave(
    region: u32,
    steps: u8,
    leaver: Option<u16>,
) -> (Vec<u64>, Option<u64>, nowmp_tmk::DsmSnapshot) {
    let mut c = stencil_cluster();
    c.checkpoint_now();
    for step in 0..steps {
        c.parallel(region, &[step]);
    }
    if let Some(pid) = leaver {
        c.adapt().leave(LeaveSel::Pid(pid), None).unwrap();
    }
    let before = c.dsm_stats();
    c.adaptation_point();
    let moved = c.dsm_stats().since(&before);
    c.parallel(region, &[steps]);
    let leave = c
        .log()
        .adaptations()
        .into_iter()
        .find(|a| a.3 == 1)
        .map(|(.., max_link)| max_link);
    let image = stencil_image(&mut c);
    c.shutdown();
    (image, leave, moved)
}

#[test]
fn a_leavers_jacobi_pages_leave_whole() {
    // Three steps after the last GC, the master's copies of the
    // leaver's pages lack a chain of one or two near-full-page diffs.
    // Each page only the leaver holds complete crosses the busiest link
    // once, whole or as a one-diff chain, never as the chain of two.
    let (image, max_link, moved) = run_then_leave(R_JACOBI_STEP, 3, Some(4));
    let max_link = max_link.expect("the leave committed");
    // A page a survivor holds complete needs no fetch, so every page
    // the leave completes is one only the leaver held complete.
    let only_leaver = moved.gc_fetch_pages;
    assert!(only_leaver > 0, "the leave completed pages from the leaver");
    assert!(moved.gc_whole_pages > 0, "some pages moved whole");
    let bound = only_leaver * (4096 + 64) * 11 / 10;
    assert!(
        max_link <= bound,
        "max link {max_link} B over {only_leaver} pages' bound {bound} B"
    );
    let (stayed, none, _) = run_then_leave(R_JACOBI_STEP, 3, None);
    assert!(none.is_none());
    assert!(image == stayed, "the leave changed the final image");
}

#[test]
fn a_sparse_writers_pages_leave_as_chains() {
    // A few words per page per step: every chain is far smaller than
    // its page, so no page moves whole.
    let (image, leave, moved) = run_then_leave(R_SPARSE_WRITE, 3, Some(4));
    assert!(leave.is_some());
    assert!(moved.gc_fetch_pages > 0 && moved.diffs_fetched > 0);
    assert_eq!(moved.gc_whole_pages, 0);
    let (stayed, ..) = run_then_leave(R_SPARSE_WRITE, 3, None);
    assert!(image == stayed, "the leave changed the final image");
}
