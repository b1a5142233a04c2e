//! Real-vs-virtual clock parity for the Figure 2 scenarios.
//!
//! The acceptance bar for the virtual-time refactor: the three
//! adaptation shapes of Figure 2 (join, normal leave, urgent leave)
//! must produce *identical event orderings* under the wall-clock
//! backend and the discrete-event backend. The real side runs the paper
//! model time-scaled (so the test stays fast); the virtual side runs
//! the *unscaled* paper model — 0.7 s spawns and all — at zero wall
//! cost.

use nowmp_apps::jacobi::Jacobi;
use nowmp_bench::paper::fig2_scenarios;
use nowmp_bench::{measure, shape};
use nowmp_core::ClusterConfig;
use nowmp_net::NetModel;
use nowmp_tmk::DsmConfig;
use nowmp_util::Clock;
use std::time::Duration;

fn cfg(hosts: usize, procs: usize, model: NetModel, clock: Clock) -> ClusterConfig {
    ClusterConfig::test(hosts, procs)
        .with_net_model(model)
        .with_dsm(DsmConfig::default_4k())
        .with_clock(clock)
}

/// Run the three Figure 2 scenarios (`nowmp_bench::paper`'s
/// definitions) on the given model/clock factory and return each
/// scenario's event-ordering fingerprint, after checking that it shows
/// the panel's event order.
fn fig2_shapes(model: &NetModel, mk_clock: impl Fn() -> Clock) -> Vec<Vec<String>> {
    let app = Jacobi::new(48);
    fig2_scenarios()
        .into_iter()
        .map(|sc| {
            let cfg = cfg(sc.hosts, sc.procs, model.clone(), mk_clock());
            let s = shape(&measure(&app, cfg, 8, true, sc.events(), false).log);
            assert!(sc.shows(&s), "{}: {s:?}, expected {:?}", sc.name, sc.order);
            s
        })
        .collect()
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
