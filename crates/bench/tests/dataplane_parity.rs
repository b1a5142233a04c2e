//! Demand-vs-overlap data-plane parity checks under `VirtualClock`.
//!
//! The acceptance bar for the overlapped data plane — pipelined
//! requests, the writer push a region's faults subscribe to, and
//! whole-page completion — is that it must be *semantically
//! invisible*: identical computed
//! results, identical adaptation event orderings, and an identical
//! final DSM memory image against the faithful 1999 demand-paging
//! baseline. Overlap may only move fetches earlier in time, never
//! change what they install.

use nowmp_apps::jacobi::Jacobi;
use nowmp_apps::Kernel;
use nowmp_bench::shape;
use nowmp_core::{ClusterConfig, LeaveSel};
use nowmp_net::NetModel;
use nowmp_omp::OmpSystem;
use nowmp_tmk::{DataPlaneConfig, DsmConfig};
use nowmp_util::Clock;
use std::time::Duration;

fn cfg(hosts: usize, procs: usize, dataplane: DataPlaneConfig) -> ClusterConfig {
    ClusterConfig::test(hosts, procs)
        .with_net_model(NetModel::paper_1999())
        .with_dsm(DsmConfig::default_4k())
        .with_dataplane(dataplane)
        .with_clock(Clock::new_virtual())
}

/// One adaptive run (join mid-flight, then a normal leave) under the
/// given data plane, verified against the serial reference, ending in
/// a checkpoint whose bytes capture the final DSM memory image.
fn adaptive_run(
    dataplane: DataPlaneConfig,
    ckpt: &std::path::Path,
) -> (f64, Vec<String>, Vec<u8>, nowmp_tmk::DsmSnapshot) {
    let app = Jacobi::new(48);
    let c = cfg(6, 4, dataplane)
        .with_adaptive(true)
        .with_ckpt_path(ckpt.to_path_buf());
    let program = nowmp_apps::build_program(&[&app as &dyn Kernel]);
    let mut sys = OmpSystem::new(c, program);
    app.setup(&mut sys);
    for it in 0..8 {
        if it == 2 {
            sys.join_ready().expect("free host available");
        }
        if it == 5 {
            sys.adapt()
                .leave(LeaveSel::Pid(3), Some(Duration::from_secs(30)))
                .expect("slave can leave");
        }
        app.step(&mut sys, it);
    }
    let err = app.verify(&mut sys, 8);
    // Checkpoint = GC + collect_all_pages + export_image: the on-disk
    // bytes are the canonical final DSM page state.
    sys.checkpoint_now();
    let log = shape(&sys.log().entries());
    let dsm = sys.dsm_stats();
    let clock = sys.clock().clone();
    sys.shutdown();
    assert_eq!(clock.forced_advances(), 0, "a wait escaped the clock");
    let image = std::fs::read(ckpt).expect("checkpoint written");
    (err, log, image, dsm)
}

#[test]
fn demand_and_overlap_dataplanes_agree_bit_exactly() {
    let dir = std::env::temp_dir();
    let demand_path = dir.join("nowmp_parity_demand.ckpt");
    let overlap_path = dir.join("nowmp_parity_overlap.ckpt");
    let (derr, dshape, dimage, ddsm) = adaptive_run(DataPlaneConfig::demand(), &demand_path);
    let (oerr, oshape, oimage, odsm) = adaptive_run(DataPlaneConfig::overlap(), &overlap_path);
    let _ = std::fs::remove_file(&demand_path);
    let _ = std::fs::remove_file(&overlap_path);
    assert_eq!(derr, 0.0, "demand run must verify bit-exact");
    assert_eq!(oerr, 0.0, "overlap run must verify bit-exact");
    assert_eq!(
        dshape, oshape,
        "the data plane must not change adaptation event ordering"
    );
    assert!(!oshape.is_empty(), "the schedule must actually adapt");
    assert_eq!(
        dimage, oimage,
        "final DSM memory images must be byte-identical: overlap may move \
         fetches earlier, never change what they install"
    );
    // ... and that held with writers pushing, which only the overlap
    // plane's region faults can make them do.
    assert!(odsm.push_sent > 0, "the overlap run must exercise pushes");
    assert_eq!(ddsm.push_sent, 0, "the demand plane never subscribes");
    assert_push_ledger(&odsm);
    assert_eq!(ddsm.malformed_dropped + odsm.malformed_dropped, 0);
    assert_eq!(ddsm.stale_dropped + odsm.stale_dropped, 0);
}

/// Steady-state run (no adaptation) with calibrated compute charged —
/// the regime overlap is for: the push can only win by moving
/// round-trips off the critical path into the compute the worker was
/// doing anyway. Every push pays full modeled wire/CPU cost.
fn costed_run(
    kernel: &dyn Kernel,
    procs: usize,
    iters: usize,
    dataplane: DataPlaneConfig,
) -> nowmp_bench::RunResult {
    let c = costed_cfg(kernel, procs, dataplane);
    nowmp_bench::measure(kernel, c, iters, false, |_, _| {}, false)
}

/// [`cfg`] on `procs` hosts with `kernel`'s calibrated compute charged.
fn costed_cfg(kernel: &dyn Kernel, procs: usize, dataplane: DataPlaneConfig) -> ClusterConfig {
    use nowmp_apps::with_kernel_costs;
    use nowmp_net::CostModel;
    cfg(procs, procs, dataplane).with_cost_model(with_kernel_costs(CostModel::paper_1999(), kernel))
}

/// The overlap lane must push, and honestly.
fn assert_ledger(d: &nowmp_tmk::DsmSnapshot) {
    assert!(d.push_sent > 0, "the overlap lane must actually push");
    assert_push_ledger(d);
}

/// The no-silent-waste ledger: every pushed diff ends as at most one
/// of hit or wasted, so together they cannot exceed what was sent.
fn assert_push_ledger(d: &nowmp_tmk::DsmSnapshot) {
    assert!(
        d.push_hits + d.push_wasted <= d.push_sent,
        "push hits {} + wasted {} must not exceed sent {}",
        d.push_hits,
        d.push_wasted,
        d.push_sent
    );
}

#[test]
fn overlap_never_slows_the_virtual_timeline() {
    // Regular nearest-neighbour Jacobi at the paper's 8-process scale:
    // few faults, single-creator, collective-dominated. Overlap has
    // little to move here — the assertion is that its admission
    // overhead never costs more than noise, and that the push ledger
    // stays honest.
    let app = Jacobi::new(384);
    let demand = costed_run(&app, 8, 6, DataPlaneConfig::demand());
    let overlap = costed_run(&app, 8, 6, DataPlaneConfig::overlap());
    assert!(
        overlap.secs <= demand.secs * 1.05,
        "overlap {:.6}s vs demand {:.6}s on Jacobi/8",
        overlap.secs,
        demand.secs
    );
    assert_ledger(&overlap.dsm);
}

#[test]
fn overlap_beats_demand_on_the_irregular_kernel() {
    // NBF reads 16 scattered partner positions per atom, so every rank
    // re-faults the whole multi-writer position array every iteration
    // — the data plane *is* the critical path. Pipelined multi-creator
    // faults and the writer push must beat demand paging
    // outright here (paper scale --smoke measures 1.5x+ at 32 hosts;
    // this CI-sized point asserts a conservative slice of that win).
    let app = nowmp_apps::nbf::Nbf::new(2048, 16);
    let demand = costed_run(&app, 8, 4, DataPlaneConfig::demand());
    let overlap = costed_run(&app, 8, 4, DataPlaneConfig::overlap());
    assert!(
        overlap.secs < demand.secs * 0.97,
        "the overlapped data plane must outrun demand paging on NBF: \
         overlap {:.6}s vs demand {:.6}s",
        overlap.secs,
        demand.secs
    );
    assert_ledger(&overlap.dsm);
    assert_eq!(demand.dsm.stale_dropped + overlap.dsm.stale_dropped, 0);
}

/// Messages in each of iterations 1 to `iters - 1`, after the cold
/// iteration 0 (paper models, kernel compute charged, adaptive off —
/// the shape of the scaling benchmarks).
fn iteration_msgs(kernel: &dyn Kernel, procs: usize, iters: usize) -> Vec<u64> {
    let c = costed_cfg(kernel, procs, DataPlaneConfig::overlap()).with_adaptive(false);
    let mut sys = OmpSystem::new(c, nowmp_apps::build_program(&[kernel]));
    kernel.setup(&mut sys);
    kernel.step(&mut sys, 0);
    let mut msgs = Vec::new();
    for it in 1..iters {
        let (net0, dsm0) = (sys.net_stats(), sys.dsm_stats());
        kernel.step(&mut sys, it);
        msgs.push(sys.net_stats().total_msgs - net0.total_msgs);
        let dsm = sys.dsm_stats().since(&dsm0);
        assert!(dsm.push_hits > 0, "iteration {it} is fed by pushes");
        eprintln!(
            "{}/{procs}, iteration {it}: {} msgs; pushed {} diffs ({} hit, {} wasted), \
             {} diffs applied",
            kernel.name(),
            msgs[it - 1],
            dsm.push_sent,
            dsm.push_hits,
            dsm.push_wasted,
            dsm.diffs_fetched
        );
    }
    assert_eq!(kernel.verify(&mut sys, iters), 0.0);
    assert_eq!(sys.dsm_stats().stale_dropped, 0);
    let clock = sys.clock().clone();
    sys.shutdown();
    assert_eq!(clock.forced_advances(), 0, "a wait escaped the clock");
    msgs
}

#[test]
fn steady_state_sends_no_requests() {
    // Cold (every region fault asks, and subscribes; every reply
    // acknowledges), then pushed: every writer sends its new diffs to
    // this epoch's readers when it closes the interval, every reader
    // finds them stored or expects them from the acknowledgement, and
    // nothing is left to ask for. What remains on the wire is the
    // collectives and one `DiffPush` per (writer, reader) pair per
    // close; the request leg (one `DiffReq` per pair per release) is
    // gone from the first iteration after the cold one.
    let nbf = iteration_msgs(&nowmp_apps::nbf::Nbf::new(2048, 16), 16, 3);
    let jacobi = iteration_msgs(&Jacobi::new(384), 32, 3);
    // Iteration 1, the first after the cold one: its first pushes are
    // expected, and what is left to ask is the diffs of pages the cold
    // iteration fetched whole from a rank that does not write them.
    // Request-reply until the first push arrived: NBF/16 1034-1063,
    // Jacobi/32 435. Acknowledged subscriptions: 757-785 and 286-308.
    // With NBF's energy riding the join instead of the scratch page
    // (no barriers, no scratch diffs): 504-513.
    assert!(nbf[0] <= 560, "NBF/16: {} messages in iteration 1", nbf[0]);
    assert!(
        jacobi[0] <= 340,
        "Jacobi/32: {} messages in iteration 1",
        jacobi[0]
    );
    // Iteration 2 is steady. 1080-1126 (NBF/16) and 372 (Jacobi/32)
    // with request-reply; 650 and 248 when the reader waited for a
    // first push before it expected more; 600 and 248 with
    // acknowledged subscriptions; 311-324 and 248 now that NBF's
    // reduction rides the join.
    assert!(nbf[1] <= 360, "NBF/16: {} messages in iteration 2", nbf[1]);
    assert!(
        jacobi[1] <= 270,
        "Jacobi/32: {} messages in iteration 2",
        jacobi[1]
    );
}

/// Six Jacobi iterations on 4 ranks with a checkpoint at the start of
/// iteration 3: per iteration, the simulated seconds it took and, at
/// its end, how many `(page, server)` pairs have acknowledged a
/// subscription of the master this epoch — each one a subscription the
/// master's `PageReq` or `DiffReq` made. The checkpoint's commit starts
/// a new epoch, so the count after iteration 2 covers iterations 0–2
/// and the count after 5 covers 3–5.
fn iterations_around_a_checkpoint() -> Vec<(f64, usize)> {
    let app = Jacobi::new(192);
    let ckpt = std::env::temp_dir().join("nowmp_parity_subscribers.ckpt");
    let c = costed_cfg(&app, 4, DataPlaneConfig::overlap())
        .with_adaptive(true)
        .with_ckpt_path(ckpt.clone());
    let mut sys = OmpSystem::new(c, nowmp_apps::build_program(&[&app as &dyn Kernel]));
    app.setup(&mut sys);
    let clock = sys.clock().clone();
    let mut per_iteration = Vec::new();
    for it in 0..6 {
        if it == 3 {
            sys.adapt().checkpoint();
        }
        let t0 = clock.now();
        app.step(&mut sys, it);
        let took = clock.elapsed_since(t0).as_secs_f64();
        let subscribed_pairs = sys.cluster().ctx().core().lock().push_after.len();
        per_iteration.push((took, subscribed_pairs));
    }
    assert_eq!(app.verify(&mut sys, 6), 0.0);
    sys.shutdown();
    assert!(
        std::fs::remove_file(&ckpt).is_ok(),
        "iteration 3 checkpointed"
    );
    per_iteration
}

#[test]
fn a_checkpoint_subscribes_nobody() {
    // The checkpoint's page collection walks every page of the heap
    // through the master's fault path, after the commit that emptied
    // every reader set. Had its requests subscribed, every writer
    // would push the master every page it writes from then on, and the
    // iterations after a checkpoint would cost several times a normal
    // one. Only a region's fault subscribes, so the master is subscribed
    // after the checkpoint to what its own region share reads, as it
    // was before: in iterations 3-5 no more (page, server) pairs
    // acknowledge a subscription of the master than in 0-2, in every
    // run.
    let mut runs = Vec::new();
    for run in 0..3 {
        let its = iterations_around_a_checkpoint();
        let (before, after) = (its[2].1, its[5].1);
        assert!(
            before > 0,
            "run {run}: the master's region faults must subscribe it ({its:?})"
        );
        assert!(
            after <= before,
            "run {run}: {after} (page, server) pairs subscribed the master in iterations 3-5, \
             {before} in 0-2 ({its:?})"
        );
        let took = |from: usize| its[from].0 + its[from + 1].0;
        runs.push(took(4) / took(1));
    }
    // The time it buys, in the median run: iterations 4-5 against 1-2.
    runs.sort_by(f64::total_cmp);
    let ratio = runs[1];
    assert!(
        ratio <= 1.3,
        "iterations 4-5 took {ratio:.3}x the time of 1-2 in the median run ({runs:?})"
    );
}

#[test]
fn small_fft_teams_never_wait_for_a_diff_nobody_pushes() {
    // Regression for the "lower than" in rule R. 3D-FFT's transpose
    // makes a rank subscribe to a writer that has already closed a
    // later interval of the same page; that diff is never pushed. A
    // reader that expected *every* unapplied notice of a subscribed
    // (page, writer) parked on it forever — at 3 and 5 processes, in a
    // third of the runs. A hang here ends in the fault path's
    // real-time guard, which names the page, writer and seq.
    let app = nowmp_apps::fft3d::Fft3d::new(4, 4, 4);
    for procs in [3usize, 5] {
        for run in 0..25 {
            let c = ClusterConfig::test(procs + 1, procs).with_dsm(DsmConfig {
                call_timeout: Duration::from_secs(20),
                ..DsmConfig::test_small()
            });
            let (sys, err) = nowmp_apps::run_kernel(&app, c, 2);
            assert_eq!(err, 0.0, "3D-FFT on {procs} processes, run {run}");
            sys.shutdown();
        }
    }
}
