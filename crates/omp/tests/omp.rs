//! OpenMP-layer integration tests: every directive over the live DSM,
//! with and without adaptation.

use nowmp_core::{ClusterConfig, LeaveSel};
use nowmp_omp::{OmpProgram, OmpSystem, Params};

fn axpy_program() -> OmpProgram {
    OmpProgram::new()
        .region("fill", |ctx| {
            let mut p = ctx.params();
            let n = p.u64();
            let x = ctx.f64vec("x");
            ctx.for_static(0..n, |c, i| x.set(c.dsm(), i as usize, i as f64));
        })
        .region("axpy", |ctx| {
            let mut p = ctx.params();
            let n = p.u64();
            let a = p.f64();
            let x = ctx.f64vec("x");
            let y = ctx.f64vec("y");
            ctx.for_static(0..n, |c, i| {
                let v = a * x.get(c.dsm(), i as usize) + y.get(c.dsm(), i as usize);
                y.set(c.dsm(), i as usize, v);
            });
        })
        .region("sum", |ctx| {
            let mut p = ctx.params();
            let n = p.u64();
            let x = ctx.f64vec("x");
            let out = ctx.f64vec("out");
            let mut local = 0.0;
            ctx.for_static(0..n, |c, i| local += x.get(c.dsm(), i as usize));
            let total = ctx.reduce_sum_f64(local);
            ctx.master(|c| {
                let o = out;
                o.set(c.dsm(), 0, total);
            });
        })
        .region("minmax", |ctx| {
            let mut p = ctx.params();
            let n = p.u64();
            let x = ctx.f64vec("x");
            let out = ctx.f64vec("out");
            let mut lmax = f64::NEG_INFINITY;
            let mut lmin = f64::INFINITY;
            ctx.for_static(0..n, |c, i| {
                let v = x.get(c.dsm(), i as usize);
                lmax = lmax.max(v);
                lmin = lmin.min(v);
            });
            let gmax = ctx.reduce_max_f64(lmax);
            let gmin = ctx.reduce_min_f64(lmin);
            ctx.master(|c| {
                out.set(c.dsm(), 1, gmax);
                out.set(c.dsm(), 2, gmin);
            });
        })
        .region("dyn_square", |ctx| {
            let mut p = ctx.params();
            let n = p.u64();
            let x = ctx.f64vec("x");
            ctx.for_dynamic(0..n, 7, |c, i| {
                let v = c.dsm();
                let cur = x.get(v, i as usize);
                x.set(v, i as usize, cur * cur);
            });
        })
        .region("guided_inc", |ctx| {
            let mut p = ctx.params();
            let n = p.u64();
            let x = ctx.f64vec("x");
            ctx.for_guided(0..n, 4, |c, i| {
                let cur = x.get(c.dsm(), i as usize);
                x.set(c.dsm(), i as usize, cur + 1.0);
            });
        })
        .region("chunked_inc", |ctx| {
            let mut p = ctx.params();
            let n = p.u64();
            let x = ctx.f64vec("x");
            ctx.for_static_chunk(0..n, 3, |c, i| {
                let cur = x.get(c.dsm(), i as usize);
                x.set(c.dsm(), i as usize, cur + 1.0);
            });
        })
        .region("crit_count", |ctx| {
            let out = ctx.f64vec("out");
            // every process increments under a critical section
            ctx.critical(1, |c| {
                let cur = out.get(c.dsm(), 3);
                out.set(c.dsm(), 3, cur + 1.0);
            });
        })
        .region("single_mark", |ctx| {
            let out = ctx.f64vec("out");
            ctx.single(|c| {
                let cur = out.get(c.dsm(), 4);
                out.set(c.dsm(), 4, cur + 1.0);
            });
        })
        .region("sections_mark", |ctx| {
            let out = ctx.f64vec("out");
            ctx.sections(vec![
                Box::new(|c: &mut nowmp_omp::OmpCtx<'_>| {
                    let o = c.f64vec("out");
                    o.set(c.dsm(), 5, 11.0);
                }),
                Box::new(|c: &mut nowmp_omp::OmpCtx<'_>| {
                    let o = c.f64vec("out");
                    o.set(c.dsm(), 6, 22.0);
                }),
                Box::new(|c: &mut nowmp_omp::OmpCtx<'_>| {
                    let o = c.f64vec("out");
                    o.set(c.dsm(), 7, 33.0);
                }),
            ]);
            let _ = out;
        })
}

fn sys(procs: usize, n: u64) -> OmpSystem {
    let mut s = OmpSystem::new(ClusterConfig::test(procs + 1, procs), axpy_program());
    s.alloc_f64("x", n);
    s.alloc_f64("y", n);
    s.alloc_f64("out", 8);
    s
}

fn read_vec(s: &mut OmpSystem, name: &str, n: usize) -> Vec<f64> {
    s.seq(|ctx| {
        let v = ctx.f64vec(name);
        let mut out = vec![0.0; n];
        v.read_into(ctx.dsm(), 0, &mut out);
        out
    })
}

#[test]
fn static_schedule_axpy() {
    let n = 500u64;
    for procs in [1, 2, 4] {
        let mut s = sys(procs, n);
        s.parallel("fill", &Params::new().u64(n).build());
        s.parallel("axpy", &Params::new().u64(n).f64(3.0).build());
        let y = read_vec(&mut s, "y", n as usize);
        for i in 0..n as usize {
            assert_eq!(y[i], 3.0 * i as f64, "procs={procs} i={i}");
        }
        s.shutdown();
    }
}

#[test]
fn reduction_sum() {
    let n = 300u64;
    let mut s = sys(4, n);
    s.parallel("fill", &Params::new().u64(n).build());
    s.parallel("sum", &Params::new().u64(n).build());
    let out = read_vec(&mut s, "out", 1);
    let expect: f64 = (0..n).map(|i| i as f64).sum();
    assert_eq!(out[0], expect);
    s.shutdown();
}

#[test]
fn reduction_min_max() {
    let n = 100u64;
    let mut s = sys(3, n);
    s.parallel("fill", &Params::new().u64(n).build());
    s.parallel("minmax", &Params::new().u64(n).build());
    let out = read_vec(&mut s, "out", 3);
    assert_eq!(out[1], 99.0);
    assert_eq!(out[2], 0.0);
    s.shutdown();
}

#[test]
fn dynamic_schedule_covers_all() {
    let n = 200u64;
    let mut s = sys(4, n);
    s.parallel("fill", &Params::new().u64(n).build());
    s.parallel("dyn_square", &Params::new().u64(n).build());
    let x = read_vec(&mut s, "x", n as usize);
    for i in 0..n as usize {
        assert_eq!(x[i], (i * i) as f64, "i={i}");
    }
    s.shutdown();
}

#[test]
fn guided_schedule_covers_all() {
    let n = 150u64;
    let mut s = sys(3, n);
    s.parallel("fill", &Params::new().u64(n).build());
    s.parallel("guided_inc", &Params::new().u64(n).build());
    let x = read_vec(&mut s, "x", n as usize);
    for i in 0..n as usize {
        assert_eq!(x[i], i as f64 + 1.0, "i={i}");
    }
    s.shutdown();
}

#[test]
fn static_chunk_covers_all() {
    let n = 100u64;
    let mut s = sys(4, n);
    s.parallel("fill", &Params::new().u64(n).build());
    s.parallel("chunked_inc", &Params::new().u64(n).build());
    let x = read_vec(&mut s, "x", n as usize);
    for i in 0..n as usize {
        assert_eq!(x[i], i as f64 + 1.0, "i={i}");
    }
    s.shutdown();
}

#[test]
fn critical_counts_every_process() {
    let mut s = sys(4, 10);
    s.parallel("crit_count", &[]);
    let out = read_vec(&mut s, "out", 4);
    assert_eq!(out[3], 4.0, "each of the 4 processes incremented once");
    s.shutdown();
}

#[test]
fn single_runs_once() {
    let mut s = sys(4, 10);
    s.parallel("single_mark", &[]);
    s.parallel("single_mark", &[]);
    let out = read_vec(&mut s, "out", 5);
    assert_eq!(out[4], 2.0, "single body ran once per region execution");
    s.shutdown();
}

#[test]
fn sections_distribute() {
    let mut s = sys(2, 10);
    s.parallel("sections_mark", &[]);
    let out = read_vec(&mut s, "out", 8);
    assert_eq!(&out[5..8], &[11.0, 22.0, 33.0]);
    s.shutdown();
}

#[test]
fn adaptation_between_constructs() {
    let n = 400u64;
    let mut s = sys(4, n);
    s.parallel("fill", &Params::new().u64(n).build());
    // Shrink by one, grow by one, keep computing; results must be exact.
    s.adapt().leave(LeaveSel::Pid(3), None).unwrap();
    s.parallel("axpy", &Params::new().u64(n).f64(1.0).build()); // y = x
    assert_eq!(s.nprocs(), 3);
    s.join_ready().unwrap();
    s.parallel("axpy", &Params::new().u64(n).f64(1.0).build()); // y = x + y = 2x
    assert_eq!(s.nprocs(), 4);
    let y = read_vec(&mut s, "y", n as usize);
    for i in 0..n as usize {
        assert_eq!(y[i], 2.0 * i as f64);
    }
    s.shutdown();
}

#[test]
fn adaptivity_switch_defers_events() {
    let n = 100u64;
    let mut s = sys(3, n);
    s.parallel("fill", &Params::new().u64(n).build());
    s.cluster().set_adaptive(false);
    s.adapt().leave(LeaveSel::Pid(2), None).unwrap();
    s.parallel("axpy", &Params::new().u64(n).f64(1.0).build());
    assert_eq!(s.nprocs(), 3, "switch off: nobody leaves");
    s.cluster().set_adaptive(true);
    s.parallel("axpy", &Params::new().u64(n).f64(1.0).build());
    assert_eq!(s.nprocs(), 2, "switch on: the queued leave takes effect");
    s.shutdown();
}

#[test]
fn dynamic_schedule_with_adaptation() {
    let n = 120u64;
    let mut s = sys(4, n);
    s.parallel("fill", &Params::new().u64(n).build());
    s.adapt().leave(LeaveSel::Pid(2), None).unwrap();
    s.parallel("dyn_square", &Params::new().u64(n).build());
    let x = read_vec(&mut s, "x", n as usize);
    for i in 0..n as usize {
        assert_eq!(x[i], (i * i) as f64);
    }
    s.shutdown();
}

#[test]
fn recovery_replays_forks() {
    let dir = std::env::temp_dir().join("nowmp-omp-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("omp.ckpt");

    let n = 200u64;
    let cfg = ClusterConfig::test(4, 3).with_ckpt_path(path.clone());
    let mut s = OmpSystem::new(cfg.clone(), axpy_program());
    s.alloc_f64("x", n);
    s.alloc_f64("y", n);
    s.alloc_f64("out", 8);

    // Main loop: fill, then 3 axpy steps; checkpoint after step 1.
    s.parallel("fill", &Params::new().u64(n).build());
    s.parallel("axpy", &Params::new().u64(n).f64(1.0).build()); // y = x
    s.adapt().checkpoint();
    s.parallel("axpy", &Params::new().u64(n).f64(1.0).build()); // ckpt taken before this fork; then y = 2x
    s.parallel("axpy", &Params::new().u64(n).f64(1.0).build()); // y = 3x
    let y_final = read_vec(&mut s, "y", n as usize);
    s.shutdown();

    // Recover and replay the same main loop; skipped forks fast-forward.
    let (mut s2, _blob) = OmpSystem::recover(cfg, axpy_program(), &path).unwrap();
    assert_eq!(s2.replaying(), 2, "fill + first axpy were checkpointed");
    s2.parallel("fill", &Params::new().u64(n).build()); // skipped
    s2.parallel("axpy", &Params::new().u64(n).f64(1.0).build()); // skipped
    assert_eq!(s2.replaying(), 0);
    s2.parallel("axpy", &Params::new().u64(n).f64(1.0).build()); // executes: y = 2x
    s2.parallel("axpy", &Params::new().u64(n).f64(1.0).build()); // y = 3x
    let y_recovered = read_vec(&mut s2, "y", n as usize);
    assert_eq!(
        y_recovered, y_final,
        "recovered run converges to the same result"
    );
    s2.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn compute_charge_is_time_visible_on_virtual_clock() {
    use nowmp_net::CostModel;
    use nowmp_util::Clock;
    use std::time::Duration;

    let n = 100u64;
    let per_iter = Duration::from_millis(1);
    let cfg = ClusterConfig::test(3, 2)
        .with_clock(Clock::new_virtual())
        .with_cost_model(CostModel::disabled().with_region_cost("axpy", per_iter));
    let mut s = OmpSystem::new(cfg, axpy_program());
    s.alloc_f64("x", n);
    s.alloc_f64("y", n);
    s.alloc_f64("out", 8);
    s.parallel("fill", &Params::new().u64(n).build()); // unprofiled: free
    let clock = s.clock().clone();
    let t0 = clock.now();
    s.parallel("axpy", &Params::new().u64(n).f64(2.0).build());
    let took = clock.elapsed_since(t0);
    // Two procs × 50 iterations × 1 ms each, charged in parallel: the
    // construct takes (at least) one proc's 50 ms share of virtual
    // time, and nowhere near the serial 100 ms (communication is free
    // under the disabled wire model).
    assert!(took >= Duration::from_millis(50), "took {took:?}");
    assert!(took < Duration::from_millis(100), "took {took:?}");
    s.shutdown();
}

#[test]
fn slow_host_gates_the_join_under_heterogeneous_speeds() {
    use nowmp_net::{CostModel, HostId};
    use nowmp_util::Clock;
    use std::time::Duration;

    let n = 100u64;
    let per_iter = Duration::from_millis(1);
    // Worker host h1 runs at half speed: its 50-iteration block costs
    // 100 ms while the master's costs 50 ms, so the fork/join round
    // stretches to the straggler.
    let cfg = ClusterConfig::test(3, 2)
        .with_clock(Clock::new_virtual())
        .with_cost_model(
            CostModel::disabled()
                .with_region_cost("axpy", per_iter)
                .with_host_speed(HostId(1), 0.5),
        );
    let mut s = OmpSystem::new(cfg, axpy_program());
    s.alloc_f64("x", n);
    s.alloc_f64("y", n);
    s.alloc_f64("out", 8);
    s.parallel("fill", &Params::new().u64(n).build());
    let clock = s.clock().clone();
    let t0 = clock.now();
    s.parallel("axpy", &Params::new().u64(n).f64(2.0).build());
    let took = clock.elapsed_since(t0);
    assert!(
        took >= Duration::from_millis(100),
        "join must wait for the half-speed host: {took:?}"
    );
    assert!(took < Duration::from_millis(200), "took {took:?}");
    s.shutdown();
}

/// Shutdown is a chain of clock-visible waits — `Terminate` deliveries,
/// then thread joins — so under a virtual clock it needs no wall time
/// to speak of and never meets the stall watchdog.
#[test]
fn shutdown_is_prompt_under_the_virtual_clock() {
    use nowmp_net::{CostModel, NetModel};
    use nowmp_util::Clock;
    use std::time::{Duration, Instant};

    let clock = Clock::new_virtual();
    let cfg = ClusterConfig::test(8, 8)
        .with_clock(clock.clone())
        .with_net_model(NetModel::paper_1999())
        .with_cost_model(CostModel::paper_1999());
    let mut s = OmpSystem::new(cfg, axpy_program());
    s.alloc_f64("x", 64);
    s.parallel("fill", &Params::new().u64(64).build());
    let wall = Instant::now();
    s.shutdown();
    let took = wall.elapsed();
    assert!(
        took < Duration::from_millis(50),
        "shutdown of 8 processes took {took:?}"
    );
    assert_eq!(clock.forced_advances(), 0);
}
