//! Flat-vs-tree collective parity and win checks under `VirtualClock`.
//!
//! The acceptance bar for the treed collectives — the ISSUE 5 fork
//! broadcast *and* the ISSUE 6 join reduce / barrier release — is that
//! they must be *semantically invisible*: identical results and
//! identical adaptation event orderings against the flat 1999
//! baseline, while measurably unloading the master's link (outbound
//! for the fork tree, inbound for the reduce tree). The flat side runs
//! the legacy wire (flat fan-out, flat collection, flat notices); the
//! tree side runs the redesign; both on the unscaled paper network
//! model at zero wall cost. The adaptive parity runs also charge the
//! paper's host costs: the collective shapes are derived from them, and
//! with a free relay overhead the reduce shape is a star.

use nowmp_apps::jacobi::Jacobi;
use nowmp_bench::{measure, shape, RunResult};
use nowmp_core::{ClusterConfig, LeaveSel};
use nowmp_net::{CostModel, NetModel};
use nowmp_omp::OmpSystem;
use nowmp_tmk::msg::Msg;
use nowmp_tmk::records::Record;
use nowmp_tmk::tree::Shapes;
use nowmp_tmk::{Broadcast, CollectiveConfig, DsmConfig, Pid, Vc};
use nowmp_util::Clock;
use std::time::Duration;

/// Wire payload of a steady-state `JoinArrive` of the 8-process Jacobi
/// 128² run, as rank `from` sends it: one record for each of the
/// `covers` ranks of its subtree, every clock the team's clock at the
/// fork plus the author's new interval, every notice that rank's
/// contiguous 4-page block. Encoded with the shipped codec, so the
/// model below follows the wire format instead of a measured literal.
fn join_arrive_bytes(from: usize, covers: usize) -> usize {
    let (n, seq) = (8usize, 8u32);
    let mut vc = Vc::new(n);
    for q in 0..n {
        vc.set(q as Pid, seq - 1);
    }
    let records = (from..from + covers)
        .map(|r| {
            let mut vc = vc.clone();
            vc.set(r as Pid, seq);
            Record {
                pid: r as Pid,
                seq,
                vc,
                pages: (4 * r as u32..4 * r as u32 + 4).collect(),
            }
        })
        .collect();
    for r in from..from + covers {
        vc.set(r as Pid, seq);
    }
    let msg = Msg::JoinArrive {
        epoch: 1,
        pid: from as Pid,
        vc,
        records,
        partials: vec![],
    };
    msg.to_bytes().len()
}

fn cfg(hosts: usize, procs: usize, collectives: CollectiveConfig) -> ClusterConfig {
    ClusterConfig::test(hosts, procs)
        .with_net_model(NetModel::paper_1999())
        .with_dsm(DsmConfig::default_4k())
        .with_collectives(collectives)
        .with_clock(Clock::new_virtual())
}

/// Team sizes of [`adaptive_run`]: it starts with `PROCS`, a join
/// makes it `PROCS + 1`, a leave brings it back.
const PROCS: usize = 8;

/// The shapes a team of `n` runs [`adaptive_run`] on. The shapes come
/// from the models, and at 4 or 5 ranks both are stars under the paper
/// costs, so the run uses teams big enough to have interior ranks.
fn adaptive_shapes(n: usize) -> Shapes {
    Shapes::for_team(n, &NetModel::paper_1999(), &CostModel::paper_1999())
}

/// Assert that both of `n`'s shapes have an interior rank, so the tree
/// side of a parity run really relays and aggregates.
fn assert_interior(n: usize) {
    let s = adaptive_shapes(n);
    assert!(s.fork.depth() > 1, "the {n}-rank fork shape is a star");
    assert!(s.reduce.depth() > 1, "the {n}-rank reduce shape is a star");
}

/// One adaptive run (join mid-flight, then a normal leave of the
/// joined team's deepest reduce aggregator) under the given collective
/// configuration and the paper cost models, with verification on.
fn adaptive_run(collectives: CollectiveConfig) -> RunResult {
    let app = Jacobi::new(48);
    let joined = adaptive_shapes(PROCS + 1).reduce;
    let leaver = (1..=PROCS).rev().find(|&p| !joined.children(p).is_empty());
    let leaver = leaver.expect("the joined team has an interior aggregator") as u16;
    let events = |sys: &mut OmpSystem, it: usize| {
        if it == 2 {
            sys.join_ready().expect("free host available");
        }
        if it == 5 {
            sys.adapt()
                .leave(LeaveSel::Pid(leaver), Some(Duration::from_secs(30)))
                .expect("slave can leave");
        }
    };
    let cfg = cfg(PROCS + 2, PROCS, collectives).with_cost_model(CostModel::paper_1999());
    measure(&app, cfg, 8, true, events, true)
}

#[test]
fn flat_and_tree_broadcasts_order_events_identically() {
    assert_interior(PROCS);
    assert_interior(PROCS + 1);
    let flat = adaptive_run(CollectiveConfig::all_flat());
    let tree = adaptive_run(CollectiveConfig::all_tree());
    assert_eq!(flat.err, 0.0, "flat run must verify bit-exact");
    assert_eq!(tree.err, 0.0, "tree run must verify bit-exact");
    assert_eq!(
        shape(&flat.log),
        shape(&tree.log),
        "collective shape must not change adaptation event ordering"
    );
    assert!(
        !shape(&tree.log).is_empty(),
        "the schedule must actually adapt"
    );
    assert!(tree.dsm.bcast_relays > 0, "no interior rank relayed a fork");
    assert_eq!(flat.dsm.malformed_dropped + tree.dsm.malformed_dropped, 0);
    assert_eq!(flat.dsm.stale_dropped + tree.dsm.stale_dropped, 0);
}

#[test]
fn flat_and_tree_reduce_order_events_identically() {
    // The ISSUE 6 collection-side parity: with the fork tree held
    // fixed, flat collection (every slave straight to the master) and
    // the shaped join reduce + tree barrier release must produce
    // bit-exact results and the same adaptation event ordering.
    assert_interior(PROCS);
    assert_interior(PROCS + 1);
    let base = CollectiveConfig::default().with_fork(Broadcast::Tree);
    let flat = adaptive_run(base.with_join_reduce(Broadcast::Flat));
    let tree = adaptive_run(base.with_join_reduce(Broadcast::Tree));
    assert_eq!(flat.err, 0.0, "flat-reduce run must verify bit-exact");
    assert_eq!(tree.err, 0.0, "tree-reduce run must verify bit-exact");
    assert_eq!(
        shape(&flat.log),
        shape(&tree.log),
        "reduce shape must not change adaptation event ordering"
    );
    assert!(
        !shape(&tree.log).is_empty(),
        "the schedule must actually adapt"
    );
    assert!(tree.dsm.reduce_relays > 0, "no interior rank aggregated");
}

#[test]
fn tree_broadcast_unloads_the_master_link() {
    // Steady state (no adaptation), 8 processes: the flat fork
    // broadcast serializes n-1 notice-bearing sends on the master's
    // link every region; the tree sends O(log n) and the interval-run
    // notices shrink each payload.
    let app = Jacobi::new(128);
    let reduce_flat = CollectiveConfig::all_flat();
    let flat = measure(&app, cfg(8, 8, reduce_flat), 4, false, |_, _| {}, false);
    let tree = measure(
        &app,
        cfg(8, 8, reduce_flat.with_fork(Broadcast::Tree)),
        4,
        false,
        |_, _| {},
        false,
    );

    let master_out = |r: &RunResult| r.net.links[0].bytes_out;
    let master_msgs = |r: &RunResult| r.net.links[0].msgs_out;
    assert!(
        master_out(&tree) < master_out(&flat),
        "tree master link {} bytes must undercut flat {} bytes",
        master_out(&tree),
        master_out(&flat)
    );
    assert!(
        master_msgs(&tree) < master_msgs(&flat),
        "tree master link {} msgs must undercut flat {} msgs",
        master_msgs(&tree),
        master_msgs(&flat)
    );
    // And the virtual timeline must not get slower for it (the relay
    // hops cost, but off the master's serialized link they overlap).
    assert!(
        tree.secs <= flat.secs * 1.02,
        "tree {:.6}s vs flat {:.6}s",
        tree.secs,
        flat.secs
    );
}

#[test]
fn tree_reduce_unloads_the_master_inbound() {
    // Steady state, 8 processes, fork tree on both sides: flat
    // collection converges n-1 JoinArrive streams (join and barrier) on the
    // master's inbound wire every region; the reduce tree delivers the
    // same records in fewer aggregates. The host model charges the
    // relay overhead an aggregator pays per absorbed aggregate, which
    // the reduce shape is derived from (without it absorbing is free
    // and the shape is a star: flat collection).
    let app = Jacobi::new(128);
    let base = CollectiveConfig::default().with_fork(Broadcast::Tree);
    let run = |join_reduce| {
        let cfg =
            cfg(8, 8, base.with_join_reduce(join_reduce)).with_cost_model(CostModel::paper_1999());
        measure(&app, cfg, 4, false, |_, _| {}, false)
    };
    let (flat, tree) = (run(Broadcast::Flat), run(Broadcast::Tree));

    let master_in = |r: &RunResult| r.net.links[0].msgs_in;
    assert!(
        master_in(&tree) < master_in(&flat),
        "tree reduce master inbound {} msgs must undercut flat {} msgs",
        master_in(&tree),
        master_in(&flat)
    );
    // What the reduce tree may cost or save here follows from the wire
    // model (derivation: docs/BROADCAST.md, "What the reduce tree costs
    // at 8 hosts"). Per join, the slowest rank's arrival travels up to
    // `depth` hops of the reduce shape instead of one; each extra hop
    // is one more absorption (`relay_time`) and send of an aggregate
    // (`latency + sender_time`) that can also hold up, or wait behind,
    // one converging message at the aggregator's inbound port
    // (`receive_time`). In exchange the tree removes at most the
    // master-inbound queue of the flat collection: the last of `n - 1`
    // converging arrivals waits behind `n - 2` others. On top of either
    // bound sits the run-to-run spread of a timeline (same-tick ties at
    // a shared link, <= 2 %).
    let (model, cost) = (NetModel::paper_1999(), CostModel::paper_1999());
    // Two regions per Jacobi iteration. The largest aggregate is the
    // one covering the biggest subtree under the root; a leaf sends its
    // own record alone.
    let (n, joins) = (8usize, 2.0 * 4.0);
    let reduce = Shapes::for_team(n, &model, &cost).reduce;
    let depth = reduce.depth();
    assert!(
        depth > 1,
        "the 8-rank reduce shape has an interior aggregator"
    );
    let big = reduce
        .children(0)
        .iter()
        .copied()
        .max_by_key(|&c| reduce.subtree_size(c));
    let big = big.expect("the root has children");
    let agg = join_arrive_bytes(big, reduce.subtree_size(big));
    let leaf = join_arrive_bytes(n - 1, 1);
    let hop =
        model.latency() + model.sender_time(agg) + model.receive_time(agg) + cost.relay_time();
    let max_cost = joins * (depth - 1) as f64 * hop.as_secs_f64();
    let max_gain = joins * (n - 2) as f64 * model.receive_time(leaf).as_secs_f64();
    let spread = 0.02 * flat.secs;
    let delta = tree.secs - flat.secs;
    println!(
        "reduce tree at {n} hosts: flat {:.6}s tree {:.6}s delta {:+.6}s, model [{:+.6}, {:+.6}] +/- {spread:.6} \
         (aggregate {agg} B, leaf {leaf} B)",
        flat.secs, tree.secs, delta, -max_gain, max_cost
    );
    assert!(
        delta <= max_cost + spread,
        "tree {:.6}s vs flat {:.6}s: the reduce tree costs {delta:.6}s, more than \
         {} extra hops per join can ({max_cost:.6}s)",
        tree.secs,
        flat.secs,
        depth - 1
    );
    assert!(
        delta >= -(max_gain + spread),
        "tree {:.6}s vs flat {:.6}s: the reduce tree saves {:.6}s, more than the \
         master-inbound queue it removes ({max_gain:.6}s)",
        tree.secs,
        flat.secs,
        -delta
    );
}
