//! # nowmp-bench — harness library behind the table/figure binaries
//!
//! One binary per paper artifact, plus two beyond the paper:
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table 1 — no-adaptation overhead + traffic |
//! | `table2` | Table 2 — average adaptation cost, end/middle leaver |
//! | `fig2_timeline` | Figure 2 — join / normal leave / urgent leave timelines |
//! | `fig3_redistribution` | Figure 3 — data moved vs leaving pid |
//! | `micro_env` | §5.1 — network/lock/diff/page micro-costs |
//! | `migration_whatif` | §5.3 — migration-only adaptation costs |
//! | `micro_adapt` | §5.4 — adaptation cost micro-analysis series |
//! | `whatif_scale` | 2–32 hosts, heterogeneous and loaded, across protocol generations (`docs/BROADCAST.md`, `docs/DATAPLANE.md`) |
//! | `hotpath` | real-clock data-plane throughput floors (`docs/HOTPATH.md`) |
//!
//! Sizes are scaled down from the paper's 1999 testbed (laptop-scale;
//! [`BenchApps`] gives each kernel's paper size beside its own); the
//! network cost model defaults to the paper's measured constants.
//! Environment knobs:
//!
//! * `NOWMP_QUICK=1` — smaller sizes / fewer iterations;
//! * `NOWMP_TIME_SCALE=x` — scale every emulated delay (default 1.0);
//! * `NOWMP_NO_EMULATE=1` — disable the time emulation (counters only).

#![warn(missing_docs)]

use nowmp_apps::{fft3d::Fft3d, gauss::Gauss, jacobi::Jacobi, nbf::Nbf, Kernel};
use nowmp_core::{ClusterConfig, EventKind, LogEntry};
use nowmp_net::{CostModel, NetModel};
use nowmp_omp::OmpSystem;
use nowmp_tmk::DsmConfig;
use std::time::Duration;

/// Scaled-down benchmark instances of the four kernels.
pub struct BenchApps;

impl BenchApps {
    /// Jacobi instance (paper: 2500², 1000 iters).
    pub fn jacobi() -> Jacobi {
        if quick() {
            Jacobi::new(96)
        } else {
            Jacobi::new(256)
        }
    }

    /// Jacobi iteration count for benches.
    pub fn jacobi_iters() -> usize {
        if quick() {
            10
        } else {
            40
        }
    }

    /// Gauss instance (paper: 3072², 3072 iters).
    pub fn gauss() -> Gauss {
        if quick() {
            Gauss::new(64)
        } else {
            Gauss::new(160)
        }
    }

    /// Gauss iteration count (full elimination).
    pub fn gauss_iters() -> usize {
        Self::gauss().default_iters()
    }

    /// 3D-FFT instance (paper: 128×64×64, 100 iters).
    pub fn fft() -> Fft3d {
        if quick() {
            Fft3d::new(8, 8, 8)
        } else {
            Fft3d::new(16, 16, 16)
        }
    }

    /// FFT iteration count.
    pub fn fft_iters() -> usize {
        if quick() {
            2
        } else {
            5
        }
    }

    /// NBF instance (paper: 131072 atoms × 80 partners).
    pub fn nbf() -> Nbf {
        if quick() {
            Nbf::new(512, 8)
        } else {
            Nbf::new(2048, 16)
        }
    }

    /// NBF iteration count.
    pub fn nbf_iters() -> usize {
        if quick() {
            3
        } else {
            8
        }
    }
}

/// `NOWMP_QUICK=1`?
pub fn quick() -> bool {
    std::env::var("NOWMP_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Is the simulation clock virtual (`NOWMP_CLOCK=virtual`)?
pub fn virtual_mode() -> bool {
    std::env::var("NOWMP_CLOCK")
        .map(|v| v == "virtual")
        .unwrap_or(false)
}

/// Handle a `--virtual` command-line flag: force the virtual clock
/// (equivalent to `NOWMP_CLOCK=virtual`), under which the reproducers
/// charge calibrated per-iteration compute costs and report *simulated*
/// seconds — the quantitative Table 1/2 mode. Call at the top of a
/// bin's `main`, before any system is constructed.
pub fn virtual_from_args() {
    if std::env::args().any(|a| a == "--virtual") {
        std::env::set_var("NOWMP_CLOCK", "virtual");
    }
}

/// Handle a `--smoke` command-line flag: force quick mode (equivalent
/// to `NOWMP_QUICK=1`) so CI can exercise a reproducer binary in a
/// couple of seconds. Call at the top of every bin's `main`.
pub fn smoke_from_args() {
    if std::env::args().any(|a| a == "--smoke") {
        std::env::set_var("NOWMP_QUICK", "1");
    }
}

/// `NOWMP_NO_EMULATE=1`? (counters only, no modeled delays)
fn no_emulate() -> bool {
    std::env::var("NOWMP_NO_EMULATE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The `NOWMP_TIME_SCALE` knob (default 1.0 = paper speed).
fn env_time_scale() -> f64 {
    std::env::var("NOWMP_TIME_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0)
}

/// The benchmark network model (paper constants, env-scaled).
pub fn bench_net_model() -> NetModel {
    if no_emulate() {
        return NetModel::disabled();
    }
    NetModel::paper_scaled(env_time_scale())
}

/// The benchmark host cost model (paper constants, env-scaled; no
/// kernel compute profile yet — see [`bench_cfg_for`]).
pub fn bench_cost_model() -> CostModel {
    if no_emulate() {
        return CostModel::disabled();
    }
    CostModel::paper_scaled(env_time_scale())
}

/// Cluster configuration for benches: paper network + host cost
/// models, 4 KB pages.
///
/// The paper reproducers model the *1999 system*
/// ([`DsmConfig::generation_1999`]: flat collectives with flat
/// write-notice payloads, sequential demand paging — what the Table 1/2
/// calibration pins assume). The tree/RLE broadcast redesign and the
/// overlapped data plane are A/B'd explicitly by `whatif_scale
/// --broadcast` / `--dataplane` against this baseline.
pub fn bench_cfg(hosts: usize, procs: usize) -> ClusterConfig {
    ClusterConfig::test(hosts, procs)
        .with_net_model(bench_net_model())
        .with_cost_model(bench_cost_model())
        .with_dsm(DsmConfig::default_4k().generation_1999())
}

/// [`bench_cfg`] specialized to `kernel`: under the virtual clock
/// ([`virtual_mode`]) the kernel's calibrated per-iteration compute
/// costs are installed, so worksharing loops charge modeled compute to
/// the simulated timeline and reported seconds become quantitative
/// Table 1/2 predictions. On the real clock the profile is left out —
/// charging modeled FLOPs as wall sleeps would only slow the bench.
pub fn bench_cfg_for(kernel: &dyn Kernel, hosts: usize, procs: usize) -> ClusterConfig {
    let cfg = bench_cfg(hosts, procs);
    if virtual_mode() {
        let cost = nowmp_apps::with_kernel_costs(cfg.cost_model.clone(), kernel);
        cfg.with_cost_model(cost)
    } else {
        cfg
    }
}

/// Serialize `(nprocs, secs)` samples per app into the machine-readable
/// `BENCH_table1.json` artifact: speedup per nprocs, seeding the perf
/// trajectory CI tracks across PRs. Hand-rolled JSON (no serde in the
/// offline vendor set).
pub fn table1_json(apps: &[(String, Vec<(usize, f64)>)]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"clock\": \"{}\",\n  \"quick\": {},\n  \"apps\": [\n",
        if virtual_mode() { "virtual" } else { "real" },
        quick()
    ));
    for (ai, (name, samples)) in apps.iter().enumerate() {
        let t1 = samples
            .iter()
            .find(|(p, _)| *p == 1)
            .map(|&(_, s)| s)
            .unwrap_or(f64::NAN);
        out.push_str(&format!("    {{\"name\": \"{name}\", \"secs\": {{"));
        for (i, (p, s)) in samples.iter().enumerate() {
            out.push_str(&format!(
                "\"{p}\": {s:.6}{}",
                if i + 1 < samples.len() { ", " } else { "" }
            ));
        }
        out.push_str("}, \"speedup\": {");
        for (i, (p, s)) in samples.iter().enumerate() {
            // Degenerate samples (zero-length runs, missing 1-proc
            // baseline) must not leak a bare NaN into the artifact —
            // that is not valid JSON.
            let sp = if *s > 0.0 { t1 / s } else { f64::NAN };
            let cell = if sp.is_finite() {
                format!("{sp:.4}")
            } else {
                "null".to_owned()
            };
            out.push_str(&format!(
                "\"{p}\": {cell}{}",
                if i + 1 < samples.len() { ", " } else { "" }
            ));
        }
        out.push_str(&format!(
            "}}}}{}\n",
            if ai + 1 < apps.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// One lane of the `whatif_scale` sweep: a scenario × collective ×
/// data-plane combination with its serial baseline and the
/// `(nprocs, simulated seconds)` samples measured along it. Lanes from
/// different kernels (the Jacobi generation sweep, the NBF data-plane
/// A/B) carry their own `t1`, so every speedup in the artifact is
/// against the right serial run.
pub struct WhatifLane {
    /// Scenario label (e.g. `homogeneous`, `nbf-homogeneous`).
    pub scenario: String,
    /// Fork dissemination (`flat` / `tree`).
    pub broadcast: String,
    /// Join/barrier collection (`flat` / `tree`).
    pub reduce: String,
    /// Data plane (`demand` / `overlap`).
    pub dataplane: String,
    /// Serial baseline for this lane's kernel, simulated seconds.
    pub t1: f64,
    /// `(nprocs, simulated seconds)` along the lane.
    pub samples: Vec<(usize, f64)>,
}

/// Serialize the `whatif_scale` sweep into the machine-readable
/// `BENCH_whatif.json` artifact: simulated seconds and speedup per
/// `scenario × broadcast × reduce × dataplane × nprocs`, plus each
/// lane's serial baseline. The CI scaling gate reads the same numbers
/// in-process (see [`load_baselines`]); the artifact preserves them
/// across PRs.
pub fn whatif_json(t1: f64, lanes: &[WhatifLane]) -> String {
    let cell = |v: f64| {
        if v.is_finite() {
            format!("{v:.4}")
        } else {
            "null".to_owned()
        }
    };
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"clock\": \"virtual\",\n  \"quick\": {},\n  \"t1_secs\": {},\n  \"results\": [\n",
        quick(),
        cell(t1)
    ));
    for (gi, lane) in lanes.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"broadcast\": \"{}\", \"reduce\": \"{}\", \"dataplane\": \"{}\", \"t1_secs\": {}, \"secs\": {{",
            lane.scenario,
            lane.broadcast,
            lane.reduce,
            lane.dataplane,
            cell(lane.t1)
        ));
        for (i, (p, s)) in lane.samples.iter().enumerate() {
            out.push_str(&format!(
                "\"{p}\": {}{}",
                cell(*s),
                if i + 1 < lane.samples.len() { ", " } else { "" }
            ));
        }
        out.push_str("}, \"speedup\": {");
        for (i, (p, s)) in lane.samples.iter().enumerate() {
            let sp = if *s > 0.0 { lane.t1 / s } else { f64::NAN };
            out.push_str(&format!(
                "\"{p}\": {}{}",
                cell(sp),
                if i + 1 < lane.samples.len() { ", " } else { "" }
            ));
        }
        out.push_str(&format!(
            "}}}}{}\n",
            if gi + 1 < lanes.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parse the miniature `key = number` dialect of
/// `crates/bench/baselines.toml` (no TOML crate in the offline vendor
/// set): `#` comments and `[section]` headers are skipped; everything
/// else must be `name = <f64>`.
pub fn parse_baselines(text: &str) -> std::collections::HashMap<String, f64> {
    let mut out = std::collections::HashMap::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() || line.starts_with('[') {
            continue;
        }
        if let Some((k, v)) = line.split_once('=') {
            if let Ok(v) = v.trim().parse::<f64>() {
                out.insert(k.trim().to_owned(), v);
            }
        }
    }
    out
}

/// Load the checked-in CI gate floors from `crates/bench/baselines.toml`.
/// The default path is baked at compile time (`CARGO_MANIFEST_DIR`),
/// which covers CI and any unmoved checkout; a relocated binary can
/// point elsewhere with `NOWMP_BASELINES=/path/to/baselines.toml`.
pub fn load_baselines() -> std::collections::HashMap<String, f64> {
    let path = std::env::var("NOWMP_BASELINES")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/baselines.toml").to_owned());
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read CI baselines at {path}: {e}"));
    parse_baselines(&text)
}

/// Result of one measured run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Runtime of the iteration loop on the system clock: wall seconds
    /// on the real backend, simulated seconds under a virtual clock.
    pub secs: f64,
    /// DSM counters over the loop (setup excluded).
    pub dsm: nowmp_tmk::DsmSnapshot,
    /// Network counters over the loop (setup excluded).
    pub net: nowmp_net::StatsSnapshot,
    /// Event log entries.
    pub log: Vec<LogEntry>,
    /// Verification error vs the serial reference.
    pub err: f64,
}

/// Run `kernel` for `iters` iterations on a fresh system built from
/// `cfg`. `adaptive` toggles the §4.4 switch; `events(sys, iter)` is
/// called before every iteration to inject adapt events; `verify`
/// controls whether the (traffic-polluting) verification runs.
/// Panics if the run met the virtual clock's stall watchdog: its
/// simulated seconds would then depend on the host.
pub fn measure(
    kernel: &dyn Kernel,
    cfg: ClusterConfig,
    iters: usize,
    adaptive: bool,
    mut events: impl FnMut(&mut OmpSystem, usize),
    verify: bool,
) -> RunResult {
    let program = nowmp_apps::build_program(&[kernel]);
    let mut sys = OmpSystem::new(cfg.with_adaptive(adaptive), program);
    kernel.setup(&mut sys);
    let dsm0 = sys.dsm_stats();
    let net0 = sys.net_stats();
    let clock = sys.clock().clone();
    let t0 = clock.now();
    for it in 0..iters {
        events(&mut sys, it);
        kernel.step(&mut sys, it);
    }
    let secs = clock.elapsed_since(t0).as_secs_f64();
    let dsm = sys.dsm_stats().since(&dsm0);
    let net = sys.net_stats().since(&net0);
    let log = sys.log().entries();
    let err = if verify {
        kernel.verify(&mut sys, iters)
    } else {
        0.0
    };
    sys.shutdown();
    assert_eq!(
        clock.forced_advances(),
        0,
        "the virtual clock's stall watchdog fired: a wait was not accounted for (see stderr)"
    );
    RunResult {
        secs,
        dsm,
        net,
        log,
        err,
    }
}

/// The ordering-relevant fingerprint of an event log — the contract
/// the parity suites hold two runs to: event kinds plus the team-shape
/// fields (workstations, ranks, team sizes), with every duration and
/// timestamp dropped. Those legitimately differ between wall and
/// simulated time, between collective shapes and data planes, and
/// between the thread engine and the task engine's approximate
/// data-plane cost.
pub fn shape(log: &[LogEntry]) -> Vec<String> {
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

/// Time-weighted average team size over a run (the paper's §5.3
/// interpolation basis: "the average number of nodes is always an
/// integer in the non-adaptive case (but the average is a real number
/// with adaptivity)").
pub fn avg_nodes(log: &[LogEntry], initial: usize, total: Duration) -> f64 {
    let mut last_t = Duration::ZERO;
    let mut n = initial as f64;
    let mut acc = 0.0;
    for e in log {
        if let EventKind::Adaptation { nprocs, .. } = e.kind {
            let dt = e.at.saturating_sub(last_t);
            acc += n * dt.as_secs_f64();
            last_t = e.at;
            n = nprocs as f64;
        }
    }
    acc += n * total.saturating_sub(last_t).as_secs_f64();
    if total.as_secs_f64() > 0.0 {
        acc / total.as_secs_f64()
    } else {
        initial as f64
    }
}

/// Linear interpolation of non-adaptive runtime at a fractional node
/// count, from measurements at the two bracketing integers.
pub fn interpolate_runtime(t_lo: f64, n_lo: f64, t_hi: f64, n_hi: f64, n: f64) -> f64 {
    if (n_hi - n_lo).abs() < f64::EPSILON {
        return t_lo;
    }
    t_lo + (t_hi - t_lo) * (n - n_lo) / (n_hi - n_lo)
}

/// Fixed-width table printer.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        s
    };
    println!("{}", line(headers.iter().map(|h| h.to_string()).collect()));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", line(row.clone()));
    }
}

/// Megabytes with 2 decimals.
pub fn mb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_basics() {
        // Runtime shrinks with more nodes: t(4) = 100, t(8) = 60.
        let t = interpolate_runtime(100.0, 4.0, 60.0, 8.0, 6.0);
        assert!((t - 80.0).abs() < 1e-12);
        assert_eq!(interpolate_runtime(50.0, 4.0, 60.0, 4.0, 4.0), 50.0);
    }

    #[test]
    fn avg_nodes_weighted() {
        use nowmp_core::EventKind;
        let log = vec![LogEntry {
            at: Duration::from_secs(5),
            job: None,
            kind: EventKind::Adaptation {
                fork_no: 1,
                joins: 0,
                leaves: 1,
                took: Duration::ZERO,
                bytes_moved: 0,
                max_link_bytes: 0,
                nprocs: 7,
            },
        }];
        // 8 procs for 5 s, then 7 procs for 5 s -> 7.5 average.
        let avg = avg_nodes(&log, 8, Duration::from_secs(10));
        assert!((avg - 7.5).abs() < 1e-9, "avg={avg}");
    }

    #[test]
    fn baselines_parser_and_checked_in_file() {
        let parsed =
            parse_baselines("# comment\n[whatif_scale]\nfoo = 1.5 # trailing\n\nbar=2\njunk\n");
        assert_eq!(parsed["foo"], 1.5);
        assert_eq!(parsed["bar"], 2.0);
        assert_eq!(parsed.len(), 2);
        // The checked-in floors the CI gate depends on must exist.
        let floors = load_baselines();
        assert!(floors.contains_key("tree_homogeneous_16_min_speedup"));
        assert!(floors.contains_key("tree_over_flat_32_min_ratio"));
        assert!(floors.contains_key("tree_reduce_homogeneous_32_min_speedup"));
        assert!(floors.contains_key("tree_reduce_over_flat_reduce_32_min_ratio"));
        assert!(floors.contains_key("overlap_homogeneous_32_min_speedup"));
        assert!(floors.contains_key("overlap_over_demand_32_min_ratio"));
        assert!(floors.contains_key("hotpath_contention_8t_min_ratio"));
        assert!(floors.contains_key("hotpath_pipeline_min_pages_per_sec"));
        assert!(floors.contains_key("hotpath_interval_8t_min_ratio"));
    }

    #[test]
    fn table1_json_is_well_formed() {
        let j = table1_json(&[
            ("jacobi".into(), vec![(1, 4.0), (2, 2.0), (4, 1.0)]),
            ("nbf".into(), vec![(1, 6.0), (4, 2.0)]),
            ("gauss".into(), vec![(2, 1.0), (4, 0.5)]),
            ("fft".into(), vec![(1, 1.0), (2, 0.0)]),
        ]);
        // One line per app; its speedups close the line.
        let speedups = |name: &str| {
            let key = format!("\"name\": \"{name}\"");
            let line = j.lines().find(|l| l.contains(&key)).unwrap();
            let (_, tail) = line.split_once("\"speedup\": ").unwrap();
            tail.trim_end_matches(',').to_owned()
        };
        assert_eq!(
            speedups("jacobi"),
            r#"{"1": 1.0000, "2": 2.0000, "4": 4.0000}}"#
        );
        // Against NBF's own 1-process sample: 6.0/2.0, not 4.0/2.0.
        assert_eq!(speedups("nbf"), r#"{"1": 1.0000, "4": 3.0000}}"#);
        // No 1-process baseline, or a zero sample: null, never NaN.
        assert_eq!(speedups("gauss"), r#"{"2": null, "4": null}}"#);
        assert_eq!(speedups("fft"), r#"{"1": 1.0000, "2": null}}"#);
        assert!(!j.contains("NaN"));
        assert!(j.starts_with('{') && j.ends_with("]\n}\n"));
    }

    #[test]
    fn whatif_json_is_well_formed() {
        let j = whatif_json(
            2.0,
            &[
                WhatifLane {
                    scenario: "homogeneous".into(),
                    broadcast: "tree".into(),
                    reduce: "tree".into(),
                    dataplane: "overlap".into(),
                    t1: 2.0,
                    samples: vec![(2, 1.0), (32, 0.1)],
                },
                WhatifLane {
                    scenario: "nbf-homogeneous".into(),
                    broadcast: "flat".into(),
                    reduce: "flat".into(),
                    dataplane: "demand".into(),
                    t1: 6.0,
                    samples: vec![(32, 0.4)],
                },
            ],
        );
        assert!(j.contains("\"broadcast\": \"tree\""));
        assert!(j.contains("\"reduce\": \"tree\""));
        assert!(j.contains("\"reduce\": \"flat\""));
        assert!(j.contains("\"dataplane\": \"overlap\""));
        assert!(j.contains("\"dataplane\": \"demand\""));
        assert!(j.contains("\"scenario\": \"nbf-homogeneous\""));
        // Speedups come from each lane's own baseline: 2.0/0.1 for the
        // first lane, 6.0/0.4 — not 2.0/0.4 — for the second.
        assert!(j.contains("\"32\": 20.0000"));
        assert!(j.contains("\"32\": 15.0000"));
        assert!(!j.contains("\"32\": 5.0000"));
        assert!(j.contains("\"t1_secs\": 6.0000"));
        assert!(!j.contains("NaN"));
    }

    #[test]
    fn measure_smoke() {
        let k = nowmp_apps::jacobi::Jacobi::new(16);
        let cfg = ClusterConfig::test(3, 2);
        let r = measure(&k, cfg, 2, true, |_, _| {}, true);
        assert_eq!(r.err, 0.0);
        assert!(r.net.total_msgs > 0);
    }
}
