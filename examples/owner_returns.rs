//! The grace period in action (paper §3, Figure 2b vs 2c), with the
//! paper's real network cost model running in real time.
//!
//! Scenario: a workstation owner returns to her desk. The leave request
//! carries a grace period:
//!
//! * first she is patient (3 s grace, like the paper's experiments):
//!   the computation reaches an adaptation point within the grace
//!   period — a cheap **normal leave**;
//! * then an impatient owner (0 grace): the runtime cannot wait, so the
//!   process is **urgently migrated** — a new process is created on
//!   another workstation (0.7 s), the image streams at 8.1 MB/s, and
//!   the migrated process multiplexes until the next adaptation point.
//!
//! Run with: `cargo run --release --example owner_returns`

use nowmp_apps::{build_program, jacobi::Jacobi, Kernel};
use nowmp_core::{ClusterConfig, EventKind, LeaveSel};
use nowmp_net::{CostModel, NetModel};
use nowmp_omp::OmpSystem;
use std::time::Duration;

fn main() {
    let app = Jacobi::new(96);
    let cfg = ClusterConfig::test(4, 4)
        .with_net_model(NetModel::paper_scaled(0.25)) // paper constants, 4x fast-forward
        .with_cost_model(CostModel::paper_scaled(0.25)) // host side: 0.7 s spawn, 8.1 MB/s stream
        .with_dsm(nowmp_tmk::DsmConfig::default_4k());
    let mut sys = OmpSystem::new(cfg, build_program(&[&app]));
    app.setup(&mut sys);

    println!("Jacobi on 4 workstations with the 1999 network model (0.25x time)...");

    // Patient owner: plenty of grace, adaptation point arrives first.
    for it in 0..6 {
        if it == 2 {
            println!("[iter {it}] owner returns, grants 3s grace");
            sys.adapt()
                .leave(LeaveSel::Pid(3), Some(Duration::from_secs(3)))
                .unwrap();
        }
        app.step(&mut sys, it);
    }
    assert_eq!(sys.nprocs(), 3);

    // Impatient owner: zero grace — the timer fires before any
    // adaptation point, forcing migration + multiplexing.
    println!("[iter 6] another owner returns and wants the machine NOW (0 grace)");
    sys.adapt()
        .leave(LeaveSel::Pid(2), Some(Duration::ZERO))
        .unwrap();
    // Give the grace timer a moment to claim the leave and migrate
    // (on the cluster clock: a virtual one must see the master parked).
    sys.clock().sleep(Duration::from_millis(600));
    for it in 6..10 {
        app.step(&mut sys, it);
    }
    assert_eq!(sys.nprocs(), 2);

    let err = app.verify(&mut sys, 10);
    assert_eq!(err, 0.0, "results stay exact through both leave flavors");

    println!("\n--- timeline ---");
    let mut normal = 0;
    let mut urgent = 0;
    for e in sys.log().entries() {
        match &e.kind {
            EventKind::NormalLeave { .. } => normal += 1,
            EventKind::UrgentMigrationDone { .. } => urgent += 1,
            _ => {}
        }
        println!("[{:8.3}s] {:?}", e.at.as_secs_f64(), e.kind);
    }
    assert_eq!(
        normal, 2,
        "both leaves finish as normal leaves at adaptation points"
    );
    assert_eq!(
        urgent, 1,
        "the impatient owner's machine was vacated by migration"
    );
    sys.shutdown();
    println!("\nOK — one graceful leave, one urgent migration, results exact.");
}
