//! Thread-backed vs task-backed engine parity under `VirtualClock`.
//!
//! ISSUE 9's acceptance bar for the event-driven engine: with the same
//! adaptation script, the task engine must be **event-order-identical**
//! to the faithful thread-per-host engine and must produce a
//! **byte-identical** final checkpoint image. The worker pool, the
//! resumable-state parking, and the simulated data plane may change
//! *when* things execute on the wall clock — never what the simulated
//! run observes.
//!
//! Two scripts:
//! * Jacobi at 32 processes / 34 workstations (the scale the thread
//!   engine tops out at — the whole point of the refactor);
//! * NBF at 8 processes, exercising the reduction scratch protocol so
//!   even the `__omp_red` residue in the image must match.

use nowmp_apps::jacobi::Jacobi;
use nowmp_apps::nbf::Nbf;
use nowmp_apps::tasks::{TaskJacobi, TaskNbf};
use nowmp_apps::Kernel;
use nowmp_core::{ClusterConfig, EventKind, LeaveSel, LogEntry, TaskApp, TaskSystem};
use nowmp_net::NetModel;
use nowmp_omp::OmpSystem;
use nowmp_tmk::DsmConfig;
use nowmp_util::Clock;
use std::path::Path;
use std::time::Duration;

fn cfg(hosts: usize, procs: usize) -> ClusterConfig {
    ClusterConfig::test(hosts, procs)
        .with_net_model(NetModel::paper_1999())
        .with_dsm(DsmConfig::default_4k())
        .with_clock(Clock::new_virtual())
        .with_adaptive(true)
}

/// Ordering-relevant fingerprint: event kinds plus team-shape fields,
/// durations/timestamps dropped (virtual time legitimately differs —
/// the task engine charges an approximate data-plane cost).
fn shape(log: &[LogEntry]) -> Vec<String> {
    log.iter()
        .map(|e| match &e.kind {
            EventKind::JoinRequested { host } => format!("join_requested@{host}"),
            EventKind::JoinReady { .. } => "join_ready".into(),
            EventKind::JoinCommitted { pid, .. } => format!("join_committed:pid{pid}"),
            EventKind::LeaveRequested { .. } => "leave_requested".into(),
            EventKind::NormalLeave { .. } => "normal_leave".into(),
            EventKind::UrgentMigrationStart { from, to, .. } => {
                format!("urgent_start:{from}->{to}")
            }
            EventKind::UrgentMigrationDone { .. } => "urgent_done".into(),
            EventKind::Adaptation {
                joins,
                leaves,
                nprocs,
                ..
            } => format!("adapt:+{joins}-{leaves}->{nprocs}"),
            EventKind::Checkpoint { .. } => "checkpoint".into(),
            // Scheduler events never appear in a single-job run.
            other => format!("{other:?}"),
        })
        .collect()
}

/// Adaptation script shared by both engines: join before iteration
/// `join_at`, graceful leave of `leave_pid` before `leave_at`, then a
/// final checkpoint capturing the full DSM image.
struct Script {
    iters: usize,
    join_at: usize,
    leave_at: usize,
    leave_pid: usize,
}

fn thread_run(
    kernel: &dyn Kernel,
    c: ClusterConfig,
    s: &Script,
    ckpt: &Path,
) -> (f64, Vec<String>, Vec<u8>) {
    let c = c.with_ckpt_path(ckpt.to_path_buf());
    let program = nowmp_apps::build_program(&[kernel]);
    let mut sys = OmpSystem::new(c, program);
    kernel.setup(&mut sys);
    for it in 0..s.iters {
        if it == s.join_at {
            sys.join_ready().expect("free host available");
        }
        if it == s.leave_at {
            sys.adapt()
                .leave(
                    LeaveSel::Pid(s.leave_pid as u16),
                    Some(Duration::from_secs(30)),
                )
                .expect("slave can leave");
        }
        kernel.step(&mut sys, it);
    }
    let err = kernel.verify(&mut sys, s.iters);
    sys.checkpoint_now();
    let log = shape(&sys.log().entries());
    let clock = sys.clock().clone();
    sys.shutdown();
    assert_eq!(clock.forced_advances(), 0, "a wait escaped the clock");
    let image = std::fs::read(ckpt).expect("checkpoint written");
    (err, log, image)
}

fn task_run(
    app: &dyn TaskApp,
    c: ClusterConfig,
    s: &Script,
    ckpt: &Path,
) -> (f64, Vec<String>, Vec<u8>, usize, usize) {
    let c = c.with_ckpt_path(ckpt.to_path_buf());
    let mut sys = TaskSystem::new(c);
    app.setup(&mut sys);
    for it in 0..s.iters {
        if it == s.join_at {
            sys.adapt().join_ready().expect("free host available");
        }
        if it == s.leave_at {
            sys.adapt()
                .leave(
                    LeaveSel::Pid(s.leave_pid as u16),
                    Some(Duration::from_secs(30)),
                )
                .expect("slave can leave");
        }
        app.step(&mut sys, it);
    }
    let err = app.verify(&sys, s.iters);
    sys.checkpoint_now();
    let log = shape(&sys.log().entries());
    let image = std::fs::read(ckpt).expect("checkpoint written");
    (err, log, image, sys.peak_workers(), sys.pool())
}

#[test]
fn task_engine_matches_thread_engine_at_32_hosts_jacobi() {
    let dir = std::env::temp_dir();
    let tpath = dir.join("nowmp_engine_parity_thread_j.ckpt");
    let kpath = dir.join("nowmp_engine_parity_task_j.ckpt");
    let script = Script {
        iters: 6,
        join_at: 2,
        leave_at: 4,
        leave_pid: 3,
    };
    let (terr, tshape, timage) = thread_run(&Jacobi::new(96), cfg(34, 32), &script, &tpath);
    let (kerr, kshape, kimage, peak, pool) =
        task_run(&TaskJacobi::new(96), cfg(34, 32), &script, &kpath);
    let _ = std::fs::remove_file(&tpath);
    let _ = std::fs::remove_file(&kpath);
    assert_eq!(terr, 0.0, "thread engine must verify bit-exact");
    assert_eq!(kerr, 0.0, "task engine must verify bit-exact");
    assert!(!tshape.is_empty(), "the schedule must actually adapt");
    assert_eq!(
        tshape, kshape,
        "task engine must be event-order-identical to the thread engine"
    );
    assert_eq!(
        timage, kimage,
        "final checkpoint images must be byte-identical across engines"
    );
    assert!(
        peak <= pool,
        "task engine workers ({peak}) must stay within the pool ({pool})"
    );
}

#[test]
fn task_engine_matches_thread_engine_on_nbf_reduction() {
    let dir = std::env::temp_dir();
    let tpath = dir.join("nowmp_engine_parity_thread_n.ckpt");
    let kpath = dir.join("nowmp_engine_parity_task_n.ckpt");
    let script = Script {
        iters: 4,
        join_at: 1,
        leave_at: 2,
        leave_pid: 5,
    };
    let (terr, tshape, timage) = thread_run(&Nbf::new(256, 8), cfg(10, 8), &script, &tpath);
    let (kerr, kshape, kimage, _, _) = task_run(&TaskNbf::new(256, 8), cfg(10, 8), &script, &kpath);
    let _ = std::fs::remove_file(&tpath);
    let _ = std::fs::remove_file(&kpath);
    assert_eq!(terr, 0.0, "thread engine must verify bit-exact");
    assert_eq!(kerr, 0.0, "task engine must verify bit-exact");
    assert_eq!(
        tshape, kshape,
        "reduction protocol must not change adaptation event ordering"
    );
    assert_eq!(
        timage, kimage,
        "images (including __omp_red scratch residue) must be byte-identical"
    );
}
