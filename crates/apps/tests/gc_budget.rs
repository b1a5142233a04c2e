//! The diff budget bounds every process's consistency memory, with the
//! dynamic-adjustment switch on or off: a worker whose diffs pass it
//! makes the master collect at the next fork, and a collection that
//! runs with the switch off leaves queued adapt events queued.

use nowmp_apps::jacobi::Jacobi;
use nowmp_apps::{build_program, Kernel};
use nowmp_core::{ClusterConfig, LeaveSel};
use nowmp_omp::OmpSystem;
use nowmp_util::Clock;

/// Jacobi 32² on 4 ranks with a 16-page budget, the switch off and a
/// leave queued from the start; then the switch goes on.
fn collects_with_the_switch_off(cfg: ClusterConfig) {
    let mut cfg = cfg.with_clock(Clock::new_virtual()).with_adaptive(false);
    cfg.dsm.gc_diff_threshold = 16 * cfg.dsm.page_size;
    let j = Jacobi::new(32);
    let mut sys = OmpSystem::new(cfg, build_program(&[&j]));
    j.setup(&mut sys);
    sys.adapt().leave(LeaveSel::Pid(3), None).unwrap();
    for it in 0..6 {
        j.step(&mut sys, it);
    }
    assert!(
        sys.dsm_stats().gcs > 0,
        "the workers' diffs passed the budget, so the master collected"
    );
    assert_eq!(sys.nprocs(), 4, "the leave waits for the switch");
    sys.cluster().set_adaptive(true);
    for it in 6..8 {
        j.step(&mut sys, it);
    }
    assert_eq!(sys.nprocs(), 3, "switch on: the queued leave takes effect");
    assert_eq!(j.verify(&mut sys, 8), 0.0, "collections keep Jacobi exact");
    sys.shutdown();
}

#[test]
fn a_workers_diffs_are_collected_with_the_switch_off_on_the_current_generation() {
    collects_with_the_switch_off(ClusterConfig::test(5, 4));
}

#[test]
fn a_workers_diffs_are_collected_with_the_switch_off_on_the_1999_generation() {
    collects_with_the_switch_off(ClusterConfig::test(5, 4).generation_1999());
}
