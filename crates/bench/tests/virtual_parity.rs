//! Real-vs-virtual clock parity for the Figure 2 scenarios.
//!
//! The acceptance bar for the virtual-time refactor: the three
//! adaptation shapes of `fig2_timeline` (join, normal leave, urgent
//! leave) must produce *identical event orderings* under the wall-clock
//! backend and the discrete-event backend. The real side runs the paper
//! model time-scaled (so the test stays fast); the virtual side runs
//! the *unscaled* paper model — 0.7 s spawns and all — at zero wall
//! cost.

use nowmp_apps::jacobi::Jacobi;
use nowmp_bench::{measure, shape};
use nowmp_core::{ClusterConfig, LeaveSel};
use nowmp_net::NetModel;
use nowmp_omp::OmpSystem;
use nowmp_tmk::DsmConfig;
use nowmp_util::Clock;
use std::time::Duration;

fn cfg(hosts: usize, procs: usize, model: NetModel, clock: Clock) -> ClusterConfig {
    ClusterConfig::test(hosts, procs)
        .with_net_model(model)
        .with_dsm(DsmConfig::default_4k())
        .with_clock(clock)
}

/// Run the three Figure 2 scenarios on the given model/clock factory and
/// return each scenario's event-ordering fingerprint.
fn fig2_shapes(model: &NetModel, mk_clock: impl Fn() -> Clock) -> Vec<Vec<String>> {
    let app = Jacobi::new(48);
    let iters = 8;
    let mut shapes = Vec::new();

    // (a) Join: requested mid-run, committed at the next adaptation point.
    let join = |sys: &mut OmpSystem, it: usize| {
        if it == 3 {
            sys.join_ready().expect("free host available");
        }
    };
    let run = measure(
        &app,
        cfg(5, 4, model.clone(), mk_clock()),
        iters,
        true,
        join,
        false,
    );
    shapes.push(shape(&run.log));

    // (b) Normal leave: generous grace, the adaptation point wins.
    let leave = |sys: &mut OmpSystem, it: usize| {
        if it == 3 {
            sys.adapt()
                .leave(LeaveSel::Pid(3), Some(Duration::from_secs(30)))
                .expect("slave can leave");
        }
    };
    let run = measure(
        &app,
        cfg(4, 4, model.clone(), mk_clock()),
        iters,
        true,
        leave,
        false,
    );
    shapes.push(shape(&run.log));

    // (c) Urgent leave: the grace period deterministically expires first.
    let urgent = |sys: &mut OmpSystem, it: usize| {
        if it == 3 {
            let g = sys
                .adapt()
                .leave(LeaveSel::Pid(3), None)
                .expect("slave can leave");
            assert!(sys.shared().force_urgent(g));
        }
    };
    let run = measure(
        &app,
        cfg(4, 4, model.clone(), mk_clock()),
        iters,
        true,
        urgent,
        false,
    );
    shapes.push(shape(&run.log));

    shapes
}

#[test]
fn fig2_event_ordering_matches_across_backends() {
    // Real backend: paper constants scaled 50× down so the wall cost
    // stays test-sized (spawn 14 ms instead of 0.7 s).
    let real = fig2_shapes(&NetModel::paper_scaled(0.02), Clock::real);
    // Virtual backend: the full 1999 constants, free of wall time.
    let wall = std::time::Instant::now();
    let virt = fig2_shapes(&NetModel::paper_1999(), Clock::new_virtual);
    assert_eq!(
        real, virt,
        "event ordering must be identical under real and virtual clocks"
    );
    // And the virtual side must not have paid for its 0.7 s spawns.
    assert!(
        wall.elapsed() < Duration::from_secs(30),
        "virtual fig2 scenarios took {:?}",
        wall.elapsed()
    );
    for (i, s) in virt.iter().enumerate() {
        assert!(!s.is_empty(), "scenario {i} logged nothing");
    }
}

#[test]
fn virtual_run_reports_simulated_seconds() {
    // A run under the unscaled paper model reports `secs` on the
    // virtual timeline: it includes the modeled delays (so ratios are
    // paper-faithful) while the wall cost stays test-sized.
    let app = Jacobi::new(32);
    let wall = std::time::Instant::now();
    let run = measure(
        &app,
        cfg(3, 3, NetModel::paper_1999(), Clock::new_virtual()),
        4,
        true,
        |_, _| {},
        true,
    );
    assert_eq!(run.err, 0.0);
    assert!(run.secs > 0.0, "simulated time must accumulate");
    assert!(
        wall.elapsed().as_secs_f64() < run.secs + 30.0,
        "sanity: wall {:?} vs simulated {:.3}s",
        wall.elapsed(),
        run.secs
    );
}
