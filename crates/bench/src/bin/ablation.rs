//! **Ablations** — the design choices DESIGN.md calls out:
//!
//! 1. **eager vs lazy diffing** (TreadMarks is lazy; our default is
//!    eager): traffic and runtime on Jacobi;
//! 2. **leaver-page sink**: `ViaMaster` (the paper) vs `Scatter` (the
//!    paper's §7 future-work idea) — max per-link bytes during the
//!    adaptation;
//! 3. **pid reassignment**: `CompactKeepOrder` vs `FillGaps` on a
//!    simultaneous join+leave — post-adaptation redistribution traffic;
//! 4. **grace period sweep**: how the normal/urgent mix changes.

use nowmp_apps::jacobi::Jacobi;
use nowmp_bench::{bench_cfg, measure, print_table};
use nowmp_core::{EventKind, LeaveSel, LeaveStrategy, ReassignPolicy};
use std::time::Duration;

fn main() {
    nowmp_bench::smoke_from_args();
    let n_grid = if nowmp_bench::quick() { 96 } else { 192 };
    let iters = 8;
    let app = Jacobi::new(n_grid);

    // 1. Eager vs lazy diffing.
    let mut rows = Vec::new();
    for (label, lazy) in [("eager (ours)", false), ("lazy (TreadMarks)", true)] {
        let cfg = bench_cfg(4, 4).tune_dsm(|d| d.lazy_diffs = lazy);
        let run = measure(&app, cfg, iters, true, |_, _| {}, true);
        assert_eq!(run.err, 0.0, "{label} run must verify");
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", run.secs),
            run.dsm.diffs_fetched.to_string(),
            nowmp_util::fmt_bytes(run.net.total_bytes),
            run.dsm.twins_created.to_string(),
        ]);
    }
    print_table(
        "Ablation 1: eager vs lazy diff creation (Jacobi, 4 procs)",
        &["mode", "Time(s)", "Diffs", "Bytes", "Twins"],
        &rows,
    );
    println!("Shape: identical diff counts (demand is identical); lazy defers the\ncompute but must retain twins longer.");

    // 2. Leaver-page sink. The leaver's own uplink bottlenecks the
    // adaptation either way; the §7 win is that ViaMaster parks the
    // pages on the master, which must then re-serve them during the
    // lazy redistribution — so measure the MASTER's link (host 0) from
    // the leave to the end of the run.
    let mut rows = Vec::new();
    for (label, strat) in [
        ("ViaMaster (paper)", LeaveStrategy::ViaMaster),
        ("Scatter (§7)", LeaveStrategy::Scatter),
    ] {
        let cfg = bench_cfg(8, 8).with_leave_strategy(strat);
        let mut at_leave = None;
        let mut at_end = None;
        let run = measure(
            &app,
            cfg,
            iters,
            true,
            |sys, it| {
                if it == 4 {
                    at_leave = Some(sys.net_stats());
                    let _ = sys.adapt().leave(LeaveSel::Pid(4), None);
                }
                if it == iters - 1 {
                    at_end = Some(sys.net_stats());
                }
            },
            false,
        );
        let before = at_leave.expect("leave happened");
        let end = at_end.expect("end snapshot");
        let master_from_leave = end.links[0]
            .bytes_total()
            .saturating_sub(before.links[0].bytes_total());
        let (took, bytes) = run
            .log
            .iter()
            .find_map(|e| match e.kind {
                EventKind::Adaptation {
                    took, bytes_moved, ..
                } => Some((took.as_secs_f64(), bytes_moved)),
                _ => None,
            })
            .expect("one adaptation");
        rows.push(vec![
            label.to_string(),
            format!("{took:.3}"),
            nowmp_util::fmt_bytes(bytes),
            nowmp_util::fmt_bytes(master_from_leave),
        ]);
    }
    print_table(
        "Ablation 2: leaver-page sink (Jacobi middle-leave, 8 procs)",
        &[
            "strategy",
            "AdaptTime(s)",
            "AdaptBytes",
            "MasterLinkFromLeave",
        ],
        &rows,
    );
    println!("Shape: ViaMaster funnels the leaver's pages through the master, which then\nre-serves them during redistribution; Scatter cuts the master-link load,\nconfirming the paper's §7 improvement hypothesis.");

    // 3. Pid reassignment on simultaneous join+leave.
    let mut rows = Vec::new();
    for (label, policy) in [
        ("CompactKeepOrder (paper)", ReassignPolicy::CompactKeepOrder),
        ("FillGaps (ablation)", ReassignPolicy::FillGaps),
    ] {
        let cfg = bench_cfg(9, 8).with_reassign(policy);
        let mut post_adapt_net = None;
        let run = measure(
            &app,
            cfg,
            iters,
            true,
            |sys, it| {
                if it == 3 {
                    // middle leave + join, committed at the same point
                    let _ = sys.adapt().leave(LeaveSel::Pid(4), None);
                    let _ = sys.join_ready();
                }
                if it == 5 {
                    post_adapt_net = Some(sys.net_stats());
                }
            },
            true,
        );
        assert_eq!(run.err, 0.0);
        // Redistribution = traffic between adaptation and iteration 5.
        let adapt_at = run
            .log
            .iter()
            .find_map(|e| match e.kind {
                EventKind::Adaptation { bytes_moved, .. } => Some(bytes_moved),
                _ => None,
            })
            .unwrap_or(0);
        let total_to_5 = post_adapt_net.map(|s| s.total_bytes).unwrap_or(0);
        rows.push(vec![
            label.to_string(),
            nowmp_util::fmt_bytes(adapt_at),
            nowmp_util::fmt_bytes(total_to_5),
        ]);
    }
    print_table(
        "Ablation 3: pid reassignment under simultaneous join+leave (Jacobi, 8 procs)",
        &["policy", "AdaptBytes", "BytesThruIter5"],
        &rows,
    );
    println!("Shape: FillGaps slots the joiner into the leaver's position, so the other\nprocesses' blocks stay put and redistribution shrinks.");

    // 4. Grace period sweep.
    let mut rows = Vec::new();
    for (label, grace) in [
        ("0 ms (always urgent)", Some(Duration::ZERO)),
        ("50 ms", Some(Duration::from_millis(50))),
        ("unbounded (always normal)", None),
    ] {
        let run = measure(
            &app,
            bench_cfg(8, 8),
            iters,
            true,
            |sys, it| {
                if it == 4 {
                    let _ = sys.adapt().leave(LeaveSel::Pid(7), grace);
                    // The owner's return lands mid-computation: give the
                    // grace timer its chance before the next adaptation
                    // point (otherwise the point always wins instantly).
                    // Slept on the cluster clock, so a virtual one sees
                    // the master parked and lets the grace period pass.
                    if let Some(g) = grace {
                        sys.clock().sleep(g + Duration::from_millis(60));
                    }
                }
            },
            true,
        );
        assert_eq!(run.err, 0.0);
        let urgent = run
            .log
            .iter()
            .filter(|e| matches!(e.kind, EventKind::UrgentMigrationDone { .. }))
            .count();
        let normal = run
            .log
            .iter()
            .filter(|e| matches!(e.kind, EventKind::NormalLeave { .. }))
            .count();
        rows.push(vec![
            label.to_string(),
            urgent.to_string(),
            normal.to_string(),
            format!("{:.2}", run.secs),
        ]);
    }
    print_table(
        "Ablation 4: grace period sweep (Jacobi end-leave, 8 procs)",
        &["grace", "UrgentMigrations", "NormalLeaves", "Time(s)"],
        &rows,
    );
    println!(
        "Shape: with zero grace the leave migrates (urgent); with adaptation points\n\
         arriving every fraction of a second, even small grace periods make leaves\n\
         normal — the paper's 'urgent leaves are typically not needed'."
    );
}
