//! Workspace-level end-to-end tests: the whole stack (net → tmk → core
//! → omp → apps) through the facade crate, exercising every paper
//! mechanism on every kernel.

use nowmp::apps::{build_program, fft3d::Fft3d, gauss::Gauss, jacobi::Jacobi, nbf::Nbf, Kernel};
use nowmp::prelude::*;

fn kernels() -> Vec<Box<dyn Kernel>> {
    vec![
        Box::new(Jacobi::new(24)),
        Box::new(Gauss::new(16)),
        Box::new(Fft3d::new(4, 4, 4)),
        Box::new(Nbf::new(48, 6)),
    ]
}

fn iters_for(k: &dyn Kernel) -> usize {
    match k.name() {
        "Gauss" => 15,
        "3D-FFT" => 2,
        "NBF" => 3,
        _ => 6,
    }
}

#[test]
fn every_kernel_exact_on_every_team_size() {
    for k in kernels() {
        for procs in [1usize, 2, 3, 5] {
            let (sys, err) = nowmp::apps::run_kernel(
                k.as_ref(),
                ClusterConfig::test(procs + 1, procs),
                iters_for(k.as_ref()),
            );
            assert_eq!(err, 0.0, "{} on {procs} procs", k.name());
            sys.shutdown();
        }
    }
}

#[test]
fn every_kernel_survives_leave_and_join() {
    for k in kernels() {
        let iters = iters_for(k.as_ref());
        let mut sys = OmpSystem::new(ClusterConfig::test(6, 4), build_program(&[k.as_ref()]));
        k.setup(&mut sys);
        for it in 0..iters {
            if it == 1 {
                sys.adapt().leave(LeaveSel::Pid(3), None).unwrap();
            }
            if it == 2 {
                sys.join_ready().unwrap();
            }
            k.step(&mut sys, it);
        }
        let err = k.verify(&mut sys, iters);
        assert_eq!(err, 0.0, "{} under adaptation", k.name());
        sys.shutdown();
    }
}

#[test]
fn every_kernel_survives_urgent_leave() {
    for k in kernels() {
        let iters = iters_for(k.as_ref());
        let mut sys = OmpSystem::new(ClusterConfig::test(5, 4), build_program(&[k.as_ref()]));
        k.setup(&mut sys);
        for it in 0..iters {
            if it == 1 {
                let g = sys.adapt().leave(LeaveSel::Pid(3), None).unwrap();
                assert!(sys.shared().force_urgent(g), "urgent path must engage");
            }
            k.step(&mut sys, it);
        }
        let err = k.verify(&mut sys, iters);
        assert_eq!(err, 0.0, "{} under urgent leave", k.name());
        assert_eq!(sys.nprocs(), 3);
        sys.shutdown();
    }
}

#[test]
fn mixed_program_runs_all_kernels_in_one_system() {
    // All four kernels registered in one program, interleaved steps —
    // the DSM hosts all shared arrays side by side.
    let j = Jacobi::new(16);
    let g = Gauss::new(12);
    let f = Fft3d::new(4, 4, 4);
    let n = Nbf::new(32, 4);
    let program = build_program(&[&j, &g, &f, &n]);
    let mut sys = OmpSystem::new(ClusterConfig::test(4, 3), program);
    j.setup(&mut sys);
    g.setup(&mut sys);
    f.setup(&mut sys);
    n.setup(&mut sys);
    for it in 0..4 {
        j.step(&mut sys, it);
        g.step(&mut sys, it);
        f.step(&mut sys, it);
        n.step(&mut sys, it);
    }
    assert_eq!(j.verify(&mut sys, 4), 0.0);
    assert_eq!(g.verify(&mut sys, 4), 0.0);
    assert_eq!(f.verify(&mut sys, 4), 0.0);
    assert_eq!(n.verify(&mut sys, 4), 0.0);
    sys.shutdown();
}

#[test]
fn checkpoint_recover_mid_run_all_kernels() {
    let dir = std::env::temp_dir().join("nowmp-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    for k in kernels() {
        let iters = iters_for(k.as_ref());
        let path = dir.join(format!("{}.ckpt", k.name().replace('/', "_")));
        let cfg = ClusterConfig::test(4, 3).with_ckpt_path(path.clone());

        // Uninterrupted run for the expected outcome.
        let (sys, err) = nowmp::apps::run_kernel(k.as_ref(), cfg.clone(), iters);
        assert_eq!(err, 0.0);
        sys.shutdown();

        // Checkpointed run, crash after the checkpoint iteration.
        let mut sys = OmpSystem::new(cfg.clone(), build_program(&[k.as_ref()]));
        k.setup(&mut sys);
        let half = (iters / 2).max(1);
        for it in 0..half {
            k.step(&mut sys, it);
        }
        sys.adapt().checkpoint();
        k.step(&mut sys, half);
        drop(sys); // crash

        // Recover and replay the identical main loop.
        let (mut sys, _blob) =
            OmpSystem::recover(cfg, build_program(&[k.as_ref()]), &path).unwrap();
        k.setup(&mut sys);
        for it in 0..iters {
            k.step(&mut sys, it);
        }
        let err = k.verify(&mut sys, iters);
        assert_eq!(
            err,
            0.0,
            "{} recovery must converge to the same result",
            k.name()
        );
        sys.shutdown();
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn grow_shrink_stress_sequence() {
    // Aggressive schedule: the team size walks 4→2→5→1→3 while Jacobi
    // iterates; results stay exact the whole way.
    let app = Jacobi::new(32);
    let mut sys = OmpSystem::new(ClusterConfig::test(6, 4), build_program(&[&app]));
    app.setup(&mut sys);
    let schedule: Vec<(usize, i32)> = vec![
        (1, -1),
        (2, -1), // down to 2
        (3, 1),
        (4, 1),
        (5, 1), // up to 5
        (6, -1),
        (7, -1),
        (8, -1),
        (9, -1), // down to 1 (master only)
        (10, 1),
        (11, 1), // back to 3
    ];
    let mut si = 0;
    for it in 0..14 {
        while si < schedule.len() && schedule[si].0 == it {
            if schedule[si].1 < 0 {
                let pid = (sys.nprocs() - 1) as u16;
                sys.adapt().leave(LeaveSel::Pid(pid), None).unwrap();
            } else {
                sys.join_ready().unwrap();
            }
            si += 1;
        }
        app.step(&mut sys, it);
    }
    assert_eq!(sys.nprocs(), 3);
    assert_eq!(app.verify(&mut sys, 14), 0.0);
    sys.shutdown();
}

/// One six-iteration Jacobi run on four processes; returns
/// `(pages_fetched, diffs_fetched, total_msgs)`.
fn jacobi_traffic(cfg: ClusterConfig) -> (u64, u64, u64) {
    let app = Jacobi::new(32);
    let mut sys = OmpSystem::new(cfg, build_program(&[&app]));
    app.setup(&mut sys);
    for it in 0..6 {
        app.step(&mut sys, it);
    }
    let d = sys.dsm_stats();
    let n = sys.net_stats();
    sys.shutdown();
    (d.pages_fetched, d.diffs_fetched, n.total_msgs)
}

#[test]
fn paper_claim_no_overhead_without_adaptation() {
    // Table 1's headline: the adaptive system with zero adapt events
    // produces the same protocol traffic as the non-adaptive system.
    // The claim is about the 1999 system, so pin its generation: on
    // the demand plane every message is decided by the data, none by
    // timing.
    let run = |adaptive: bool| {
        jacobi_traffic(
            ClusterConfig::test(4, 4)
                .generation_1999()
                .with_adaptive(adaptive),
        )
    };
    assert_eq!(
        run(false),
        run(true),
        "identical protocol traffic (Table 1)"
    );
}

/// The constructor named after the paper's testbed runs the paper's
/// protocol generation: nothing relays a fork or pushes.
#[test]
fn paper_1999_testbed_runs_the_1999_generation() {
    let app = Jacobi::new(32);
    let cfg = ClusterConfig::paper_1999().with_clock(Clock::new_virtual());
    let mut sys = OmpSystem::new(cfg, build_program(&[&app]));
    app.setup(&mut sys);
    for it in 0..4 {
        app.step(&mut sys, it);
    }
    let d = sys.dsm_stats();
    assert_eq!(sys.nprocs(), 8);
    assert_eq!(app.verify(&mut sys, 4), 0.0);
    sys.shutdown();
    assert!(d.forks > 0 && d.pages_fetched + d.diffs_fetched > 0);
    assert_eq!((d.bcast_relays, d.push_sent, d.piggyback_bytes), (0, 0, 0));
}

#[test]
fn no_overhead_without_adaptation_on_the_current_generation() {
    // The current plane's message count depends on timing — a warm-up
    // push can cross the request for the same diff — but what is
    // fetched is decided by the data alone. The grid is allocated
    // after the team is founded, so every first touch is made where
    // it faults, from zeros and the diffs its notices name: no page is
    // fetched whole (0 pages and 39 diffs here). When such a page came
    // whole from its owner, a worker's request could race the owner's
    // own first touch of it, and the pages fetched read 13–15 in
    // some runs.
    let run = |adaptive: bool| {
        let (pages, diffs, _msgs) =
            jacobi_traffic(ClusterConfig::test(4, 4).with_adaptive(adaptive));
        (pages, diffs)
    };
    assert_eq!(run(false), run(true), "identical pages and diffs fetched");
}

#[test]
fn dsm_stats_expose_protocol_shape() {
    let app = Gauss::new(24);
    let stats = |cfg: ClusterConfig| {
        let mut sys = OmpSystem::new(cfg, build_program(&[&app]));
        app.setup(&mut sys);
        for it in 0..app.default_iters() {
            app.step(&mut sys, it);
        }
        let s = sys.dsm_stats();
        assert!(s.forks as usize >= app.default_iters());
        assert!(s.twins_created > 0);
        sys.shutdown();
        s
    };
    // Table 1's Gauss signature on the 1999 protocol: pages, no diffs.
    let s = stats(ClusterConfig::test(4, 4).generation_1999());
    assert!(s.pages_fetched > 0);
    assert_eq!(s.diffs_fetched, 0, "Gauss signature");
    // The current generation makes a page allocated this epoch from
    // zeros and its writer's diffs: no page is asked for whole, and
    // one comes whole only in place of a longer diff chain.
    let s = stats(ClusterConfig::test(4, 4));
    assert_eq!(s.pages_fetched, s.gc_whole_pages, "current Gauss signature");
    assert!(s.diffs_fetched > 0);
}
