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
//! Two scripts, which between them take every path through the
//! adaptation books (`nowmp_core::adapt`) on both engines — a graceful
//! leave, an expired grace period (urgent migration, retirement at the
//! next point), a join and a leave committed at the same point, two
//! leaves in one point and periodic checkpoints:
//! * Jacobi at 32 processes / 34 workstations (the scale the thread
//!   engine tops out at — the whole point of the refactor);
//! * NBF at 8 processes under `ReassignPolicy::FillGaps`, exercising
//!   both lowerings of its `reduction` clause: on the current
//!   generation the partials ride the join and the `__omp_red` page
//!   stays zero on both engines; on the 1999 one the scratch protocol
//!   runs, so even its residue in the image must match.
//!
//! Gauss and 3D-FFT run the same comparison at 8 processes (a leave, a
//! join, a periodic checkpoint): every region body is one function both
//! engines run (`nowmp_omp::portable!`), so they reach the task engine
//! through `TaskKernel::of` with no task code of their own, and their
//! in-region FLOP charges ride the task engine's timeline.
//!
//! A last test holds the engines to the same `AdaptError` for every
//! request the books refuse.

use nowmp_apps::fft3d::Fft3d;
use nowmp_apps::gauss::Gauss;
use nowmp_apps::jacobi::Jacobi;
use nowmp_apps::nbf::Nbf;
use nowmp_apps::tasks::{TaskJacobi, TaskKernel, TaskNbf};
use nowmp_apps::Kernel;
use nowmp_bench::shape;
use nowmp_core::{AdaptError, ClusterConfig, LeaveSel, ReassignPolicy, TaskApp, TaskSystem};
use nowmp_net::{Gpid, NetModel};
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

/// One scripted adaptation request, made before the iteration it is
/// listed under.
#[derive(Clone, Copy)]
enum Act {
    /// A workstation joins; the next adaptation point seats it.
    Join,
    /// Rank leaves with a 30 s grace period: the next point, one
    /// iteration away, wins the race (Figure 2b).
    Leave(u16),
    /// Rank leaves with a 1 us grace period and the iteration runs with
    /// adaptivity off, so no point can claim the leave before the
    /// period runs out mid-region: urgent migration (Figure 2c), then
    /// retirement at the next iteration's point.
    LeaveExpiring(u16),
}

/// Adaptation script shared by both engines; a final checkpoint
/// captures the full DSM image.
struct Script {
    iters: usize,
    acts: &'static [(usize, Act)],
}

/// A request the script makes of an engine.
enum Request {
    Join,
    Leave(u16, Duration),
    Adaptive(bool),
}

fn play<S>(
    sys: &mut S,
    s: &Script,
    mut request: impl FnMut(&mut S, Request),
    mut step: impl FnMut(&mut S, usize),
) {
    for it in 0..s.iters {
        let mut adaptive = true;
        for &(_, act) in s.acts.iter().filter(|(at, _)| *at == it) {
            match act {
                Act::Join => request(sys, Request::Join),
                Act::Leave(pid) => request(sys, Request::Leave(pid, Duration::from_secs(30))),
                Act::LeaveExpiring(pid) => {
                    request(sys, Request::Leave(pid, Duration::from_micros(1)));
                    adaptive = false;
                }
            }
        }
        request(sys, Request::Adaptive(adaptive));
        step(sys, it);
    }
    request(sys, Request::Adaptive(true));
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
    let request = |sys: &mut OmpSystem, r| match r {
        Request::Join => drop(sys.join_ready().expect("free host available")),
        Request::Leave(pid, grace) => {
            let leave = sys.adapt().leave(LeaveSel::Pid(pid), Some(grace));
            leave.map(drop).expect("slave can leave")
        }
        Request::Adaptive(on) => sys.cluster().set_adaptive(on),
    };
    play(&mut sys, s, request, |sys, it| kernel.step(sys, it));
    let err = kernel.verify(&mut sys, s.iters);
    sys.checkpoint_now();
    assert_eq!(sys.dsm_stats().stale_dropped, 0, "no request went stale");
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
    let request = |sys: &mut TaskSystem, r| match r {
        Request::Join => drop(sys.adapt().join_ready().expect("free host available")),
        Request::Leave(pid, grace) => {
            let leave = sys.adapt().leave(LeaveSel::Pid(pid), Some(grace));
            leave.map(drop).expect("slave can leave")
        }
        Request::Adaptive(on) => sys.set_adaptive(on),
    };
    play(&mut sys, s, request, |sys, it| app.step(sys, it));
    let err = app.verify(&sys, s.iters);
    sys.checkpoint_now();
    let log = shape(&sys.log().entries());
    let image = std::fs::read(ckpt).expect("checkpoint written");
    (err, log, image, sys.peak_workers(), sys.pool())
}

fn count(shape: &[String], prefix: &str) -> usize {
    shape.iter().filter(|e| e.starts_with(prefix)).count()
}

#[test]
fn task_engine_matches_thread_engine_at_32_hosts_jacobi() {
    let dir = std::env::temp_dir();
    let tpath = dir.join("nowmp_engine_parity_thread_j.ckpt");
    let kpath = dir.join("nowmp_engine_parity_task_j.ckpt");
    let script = Script {
        iters: 9,
        acts: &[
            (2, Act::Join),
            (4, Act::Leave(3)),
            (5, Act::LeaveExpiring(7)),
            (7, Act::Leave(30)),
            (7, Act::Leave(2)),
        ],
    };
    let c = || cfg(34, 32).with_ckpt_every_forks(7);
    let (terr, tshape, timage) = thread_run(&Jacobi::new(96), c(), &script, &tpath);
    let (kerr, kshape, kimage, peak, pool) = task_run(&TaskJacobi::new(96), c(), &script, &kpath);
    let _ = std::fs::remove_file(&tpath);
    let _ = std::fs::remove_file(&kpath);
    assert_eq!(terr, 0.0, "thread engine must verify bit-exact");
    assert_eq!(kerr, 0.0, "task engine must verify bit-exact");
    assert_eq!(
        tshape, kshape,
        "task engine must be event-order-identical to the thread engine"
    );
    // The script did what it says, on both engines alike.
    assert_eq!(count(&tshape, "urgent_start"), 1, "{tshape:?}");
    assert_eq!(count(&tshape, "normal_leave"), 4, "{tshape:?}");
    assert!(tshape.contains(&"adapt:+0-2->29".to_owned()), "{tshape:?}");
    assert!(count(&tshape, "checkpoint") >= 3, "{tshape:?}");
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
        iters: 5,
        acts: &[
            (1, Act::Join),
            (2, Act::Leave(5)),
            (3, Act::Leave(2)),
            (3, Act::Join),
        ],
    };
    for dsm in [
        DsmConfig::default_4k(),
        DsmConfig::default_4k().generation_1999(),
    ] {
        let c = || {
            cfg(10, 8)
                .with_dsm(dsm.clone())
                .with_reassign(ReassignPolicy::FillGaps)
        };
        let (terr, tshape, timage) = thread_run(&Nbf::new(256, 8), c(), &script, &tpath);
        let (kerr, kshape, kimage, _, _) = task_run(&TaskNbf::new(256, 8), c(), &script, &kpath);
        let _ = std::fs::remove_file(&tpath);
        let _ = std::fs::remove_file(&kpath);
        let gen = dsm.collectives;
        assert_eq!(terr, 0.0, "{gen:?}: thread engine must verify bit-exact");
        assert_eq!(kerr, 0.0, "{gen:?}: task engine must verify bit-exact");
        assert_eq!(
            tshape, kshape,
            "{gen:?}: reduction protocol must not change adaptation event ordering"
        );
        // The joiner fills the gap the leaver of the same point opens.
        let gap_fill = ["normal_leave", "join_committed:pid2", "adapt:+1-1->8"];
        assert!(
            tshape.windows(3).any(|w| w == gap_fill),
            "{gen:?}: no same-point join + leave in {tshape:?}"
        );
        assert_eq!(
            timage, kimage,
            "{gen:?}: images (including the __omp_red page) must be byte-identical"
        );
    }
}

/// Run `kernel` under `script` on both engines at 8 of 9 hosts with a
/// checkpoint every `ckpt_every` forks, hold them to the assertions of
/// the two cases above, and return the event shape they share.
fn parity_at_8<K: Kernel + Clone>(kernel: K, script: &Script, ckpt_every: u64) -> Vec<String> {
    let dir = std::env::temp_dir();
    let tpath = dir.join(format!("nowmp_engine_parity_thread_{}.ckpt", kernel.name()));
    let kpath = dir.join(format!("nowmp_engine_parity_task_{}.ckpt", kernel.name()));
    let c = || cfg(9, 8).with_ckpt_every_forks(ckpt_every);
    let (terr, tshape, timage) = thread_run(&kernel, c(), script, &tpath);
    let (kerr, kshape, kimage, _, _) = task_run(&TaskKernel::of(kernel), c(), script, &kpath);
    let _ = std::fs::remove_file(&tpath);
    let _ = std::fs::remove_file(&kpath);
    assert_eq!(terr, 0.0, "thread engine must verify bit-exact");
    assert_eq!(kerr, 0.0, "task engine must verify bit-exact");
    assert_eq!(
        tshape, kshape,
        "task engine must be event-order-identical to the thread engine"
    );
    assert_eq!(count(&tshape, "normal_leave"), 1, "{tshape:?}");
    assert_eq!(count(&tshape, "join_committed"), 1, "{tshape:?}");
    assert!(count(&tshape, "checkpoint") >= 2, "{tshape:?}");
    assert_eq!(
        timage, kimage,
        "final checkpoint images must be byte-identical across engines"
    );
    tshape
}

#[test]
fn task_engine_matches_thread_engine_on_gauss() {
    // 23 pivot steps, one fork each, one page per padded row.
    let script = Script {
        iters: 23,
        acts: &[(5, Act::Leave(3)), (12, Act::Join)],
    };
    let shape = parity_at_8(Gauss::new(24), &script, 10);
    assert!(shape.contains(&"adapt:+0-1->7".to_owned()), "{shape:?}");
}

#[test]
fn task_engine_matches_thread_engine_on_fft3d() {
    // Six forks an iteration; at 4 KB pages every array spans two
    // pages, so all eight ranks write into shared pages.
    let script = Script {
        iters: 4,
        acts: &[(1, Act::Leave(5)), (2, Act::Join)],
    };
    let shape = parity_at_8(Fft3d::new(16, 8, 8), &script, 9);
    assert!(shape.contains(&"adapt:+1-0->8".to_owned()), "{shape:?}");
}

/// The requests the books refuse, made of a 3-process team that fills
/// its pool.
fn refusals(
    mut leave: impl FnMut(LeaveSel) -> Result<Gpid, AdaptError>,
    join: impl FnOnce() -> Result<(), AdaptError>,
) -> Vec<AdaptError> {
    let mut refused = vec![join().unwrap_err()];
    let mut expect_err = |r: Result<Gpid, AdaptError>| refused.push(r.unwrap_err());
    expect_err(leave(LeaveSel::Pid(3)));
    expect_err(leave(LeaveSel::Gpid(Gpid(40))));
    expect_err(leave(LeaveSel::Pid(0)));
    expect_err(leave(LeaveSel::Gpid(Gpid(1))));
    let leaver = leave(LeaveSel::Pid(2)).expect("a slave can leave");
    expect_err(leave(LeaveSel::Pid(2)));
    expect_err(leave(LeaveSel::Gpid(leaver)));
    refused
}

#[test]
fn both_engines_refuse_with_the_same_errors() {
    let kernel = Jacobi::new(24);
    let sys = OmpSystem::new(cfg(3, 3), nowmp_apps::build_program(&[&kernel]));
    let adapt = sys.adapt();
    let thread = refusals(|sel| adapt.leave(sel, None), || adapt.join().map(drop));
    sys.shutdown();

    let sys = std::cell::RefCell::new(TaskSystem::new(cfg(3, 3)));
    let task = refusals(
        |sel| sys.borrow_mut().adapt().leave(sel, None),
        || sys.borrow_mut().adapt().join().map(drop),
    );

    assert_eq!(thread, task);
    assert_eq!(
        thread,
        [
            AdaptError::NoFreeHost,
            AdaptError::NoSuchRank(3),
            AdaptError::NotInTeam(Gpid(40)),
            AdaptError::MasterCannotLeave,
            AdaptError::MasterCannotLeave,
            AdaptError::AlreadyLeaving(Gpid(3)),
            AdaptError::AlreadyLeaving(Gpid(3)),
        ]
    );
}
