//! Workspace smoke test: the facade crate's re-exports resolve, the
//! prelude is usable, and the `quickstart` example's programming-model
//! logic runs end-to-end under `cargo test`.
//!
//! This is the canary CI relies on: if a crate is dropped from the
//! workspace, a re-export is renamed, or the fork-join path breaks,
//! this fails before any deeper suite runs.

use nowmp::prelude::*;

/// Every facade module path must resolve and expose its headline type.
/// (A compile-time check: if any of these paths break, the test file
/// no longer builds.)
#[test]
fn facade_reexports_resolve() {
    // util
    let crc = nowmp::util::crc::crc32(b"nowmp");
    assert_eq!(crc, nowmp::util::crc::crc32(b"nowmp"));
    let _ = nowmp::util::fmt_bytes(1024);
    // net
    let _gpid: nowmp::net::Gpid = Gpid(7);
    let _host: nowmp::net::HostId = HostId(0);
    let _model: nowmp::net::NetModel = NetModel::disabled();
    // tmk
    let _cfg: nowmp::tmk::DsmConfig = DsmConfig::test_small();
    let _kind: nowmp::tmk::ElemKind = ElemKind::F64;
    // ckpt
    let _ = std::any::type_name::<nowmp::ckpt::CkptError>();
    // core
    let _cc: nowmp::core::ClusterConfig = ClusterConfig::test(2, 2);
    let _ = std::any::type_name::<nowmp::core::Cluster>();
    let _ = std::any::type_name::<LeaveSel>();
    let _ = std::any::type_name::<ReassignPolicy>();
    // omp
    let _ = std::any::type_name::<OmpSystem>();
    let _ = std::any::type_name::<OmpProgram>();
    let _ = std::any::type_name::<OmpCtx<'_>>();
    let _params = Params::new().u64(1).build();
    // apps
    let _ = std::any::type_name::<nowmp::apps::jacobi::Jacobi>();
}

/// The quickstart example's logic (AXPY + reduction on a 4-process
/// simulated NOW), kept in sync with `examples/quickstart.rs` but
/// sized down for the test suite.
#[test]
fn quickstart_logic_runs() {
    let n = 1_000u64;

    let program = OmpProgram::new()
        .region("init", |ctx| {
            let mut p = ctx.params();
            let n = p.u64();
            let x = ctx.f64vec("x");
            let y = ctx.f64vec("y");
            ctx.for_static(0..n, |c, i| {
                x.set(c.dsm(), i as usize, i as f64);
                y.set(c.dsm(), i as usize, 1.0);
            });
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
            let y = ctx.f64vec("y");
            let out = ctx.f64vec("out");
            let mut local = 0.0;
            ctx.for_static(0..n, |c, i| local += y.get(c.dsm(), i as usize));
            let total = ctx.reduce_sum_f64(local);
            ctx.master(|c| out.set(c.dsm(), 0, total));
        });

    let mut sys = OmpSystem::new(ClusterConfig::test(4, 4), program);
    sys.alloc_f64("x", n);
    sys.alloc_f64("y", n);
    sys.alloc_f64("out", 1);

    sys.parallel("init", &Params::new().u64(n).build());
    sys.parallel("axpy", &Params::new().u64(n).f64(2.0).build());
    sys.parallel("sum", &Params::new().u64(n).build());

    let total = sys.seq(|ctx| {
        let out = ctx.f64vec("out");
        out.get(ctx.dsm(), 0)
    });
    let expect: f64 = (0..n).map(|i| 2.0 * i as f64 + 1.0).sum();
    assert_eq!(total, expect, "distributed result must match serial");

    let stats = sys.net_stats();
    assert!(
        stats.total_msgs > 0,
        "a 4-process run must exchange messages"
    );
    sys.shutdown();
}
