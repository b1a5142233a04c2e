//! # nowmp-bench — the paper's claims and the hot path
//!
//! The paper's evaluation is a set of claims, and [`paper`] holds one
//! function per claim: each runs its experiment on a fresh virtual
//! clock and returns the printed tables plus named verdicts. Two
//! binaries drive the crate:
//!
//! | binary | runs |
//! |---|---|
//! | `paper` | every claim of [`paper`] on the 1999 and the current generation, checked against `crates/bench/golden/` |
//! | `hotpath` | real-clock data-plane throughput floors (`docs/HOTPATH.md`) |
//!
//! | claim | reproduces |
//! |---|---|
//! | [`paper::table1`] | Table 1 — no-adaptation overhead + traffic |
//! | [`paper::table2`] | Table 2 — average adaptation cost, end/middle leaver |
//! | [`paper::fig2`] | Figure 2 — join / normal leave / urgent leave timelines |
//! | [`paper::fig3`] | Figure 3 — data moved vs leaving pid |
//! | [`paper::sec5_1`] | §5.1 — network/lock/diff/page micro-costs |
//! | [`paper::sec5_3`] | §5.3 — migration-only adaptation costs |
//! | [`paper::sec5_4`] | §5.4 (a)–(e) — adaptation cost micro-analysis |
//! | [`paper::scale`] | §7's larger and mixed NOWs: 2–32 hosts across the protocol generations, with CI's scaling floors (`docs/BROADCAST.md`, `docs/DATAPLANE.md`) |
//!
//! Sizes are scaled down from the paper's 1999 testbed (laptop-scale;
//! [`BenchApps`] gives each kernel's paper size beside its own); every
//! run charges the paper's measured network and host constants.
//! `--smoke` ([`Scale::Smoke`]) is the one size switch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod paper;

use nowmp_apps::{fft3d::Fft3d, gauss::Gauss, jacobi::Jacobi, nbf::Nbf, Kernel};
use nowmp_core::{ClusterConfig, EventKind, LogEntry};
use nowmp_net::{CostModel, NetModel};
use nowmp_omp::OmpSystem;
use nowmp_tmk::DsmConfig;
use nowmp_util::Clock;
use std::fmt;

/// Problem sizes: CI-sized (`--smoke`) or the full laptop-scale runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds of wall per binary.
    Smoke,
    /// The default sizes.
    Full,
}

impl Scale {
    /// Splits a binary's arguments (program name dropped) into the
    /// scale, [`Scale::Smoke`] if `--smoke` appears, and the operands,
    /// in order. `None` on a repeated `--smoke` or any other argument
    /// that starts with `-`: a mistyped flag must not pass unseen.
    pub fn from_args(args: &[String]) -> Option<(Scale, Vec<&str>)> {
        let mut scale = Scale::Full;
        let mut operands = Vec::new();
        for arg in args {
            match arg.as_str() {
                "--smoke" if scale == Scale::Full => scale = Scale::Smoke,
                flag if flag.starts_with('-') => return None,
                operand => operands.push(operand),
            }
        }
        Some((scale, operands))
    }

    /// `smoke` or `full`.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Full => "full",
        }
    }

    /// `smoke` if this is [`Scale::Smoke`], else `full`.
    pub fn pick<T>(self, smoke: T, full: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Full => full,
        }
    }
}

/// Scaled-down benchmark instances of the four kernels.
pub struct BenchApps;

impl BenchApps {
    /// Jacobi (paper: 2500², 1000 iters), Gauss (3072², 3072 iters, a
    /// full elimination here too), 3D-FFT (128×64×64, 100 iters) and NBF
    /// (131072 atoms × 80 partners), each with its iteration count.
    pub fn all(scale: Scale) -> Vec<(Box<dyn Kernel>, usize)> {
        let gauss = Gauss::new(scale.pick(64, 160));
        let gauss_iters = gauss.default_iters();
        vec![
            (
                Box::new(Jacobi::new(scale.pick(96, 256))),
                scale.pick(10, 40),
            ),
            (Box::new(gauss), gauss_iters),
            (
                Box::new(scale.pick(Fft3d::new(8, 8, 8), Fft3d::new(16, 16, 16))),
                scale.pick(2, 5),
            ),
            (
                Box::new(scale.pick(Nbf::new(512, 8), Nbf::new(2048, 16))),
                scale.pick(3, 8),
            ),
        ]
    }
}

/// Cluster configuration for the paper's claims: the paper network and
/// host cost models, the DSM generation `dsm`, and a fresh virtual
/// clock, so every run reports simulated seconds.
pub fn bench_cfg(dsm: DsmConfig, hosts: usize, procs: usize) -> ClusterConfig {
    ClusterConfig::test(hosts, procs)
        .with_net_model(NetModel::paper_1999())
        .with_cost_model(CostModel::paper_1999())
        .with_dsm(dsm)
        .with_clock(Clock::new_virtual())
}

/// [`bench_cfg`] with `kernel`'s calibrated per-iteration compute costs
/// installed, so worksharing loops charge modelled compute to the
/// simulated timeline and reported seconds become quantitative Table
/// 1/2 predictions.
pub fn bench_cfg_for(
    kernel: &dyn Kernel,
    dsm: DsmConfig,
    hosts: usize,
    procs: usize,
) -> ClusterConfig {
    let cfg = bench_cfg(dsm, hosts, procs);
    let cost = nowmp_apps::with_kernel_costs(cfg.cost_model.clone(), kernel);
    cfg.with_cost_model(cost)
}

/// A JSON value: the one emitter behind every `BENCH_*.json` artifact
/// (hand-rolled; no serde in the offline vendor set).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number printed with the given number of decimals.
    Num(f64, usize),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// `v` with `decimals` decimals, or `null` when it is not finite
    /// (a bare `NaN` or `inf` is not valid JSON).
    pub fn num(v: f64, decimals: usize) -> Json {
        if v.is_finite() {
            Json::Num(v, decimals)
        } else {
            Json::Null
        }
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The artifact layout: a top-level object puts each field on a
    /// line of its own and each element of a top-level array on a line
    /// of its own; everything deeper is written inline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let Json::Obj(fields) = self else {
            self.inline(&mut out);
            out.push('\n');
            return out;
        };
        out.push_str("{\n");
        for (i, (k, v)) in fields.iter().enumerate() {
            out.push_str("  ");
            quote(k, &mut out);
            out.push_str(": ");
            match v {
                Json::Arr(items) if !items.is_empty() => {
                    out.push_str("[\n");
                    for (j, item) in items.iter().enumerate() {
                        out.push_str("    ");
                        item.inline(&mut out);
                        out.push_str(if j + 1 < items.len() { ",\n" } else { "\n" });
                    }
                    out.push_str("  ]");
                }
                _ => v.inline(&mut out),
            }
            out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
        }
        out.push_str("}\n");
        out
    }

    fn inline(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v, d) => out.push_str(&format!("{v:.d$}")),
            Json::Str(s) => quote(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.inline(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    quote(k, out);
                    out.push_str(": ");
                    v.inline(out);
                }
                out.push('}');
            }
        }
    }
}

fn quote(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Result of one measured run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Runtime of the iteration loop on the system clock: wall seconds
    /// on the real backend, simulated seconds under a virtual clock.
    pub secs: f64,
    /// Each iteration's `kernel.step` alone — the `events` callback
    /// before it is not timed — with the team size after it.
    pub steps: Vec<(f64, usize)>,
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
    let mut steps = Vec::with_capacity(iters);
    for it in 0..iters {
        events(&mut sys, it);
        let step0 = clock.now();
        kernel.step(&mut sys, it);
        steps.push((clock.elapsed_since(step0).as_secs_f64(), sys.nprocs()));
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
        steps,
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

/// Linear interpolation of non-adaptive runtime at a fractional node
/// count, from measurements at the two bracketing integers.
pub fn interpolate_runtime(t_lo: f64, n_lo: f64, t_hi: f64, n_hi: f64, n: f64) -> f64 {
    if (n_hi - n_lo).abs() < f64::EPSILON {
        return t_lo;
    }
    t_lo + (t_hi - t_lo) * (n - n_lo) / (n_hi - n_lo)
}

/// A titled table of string cells; `Display` right-aligns each column
/// to its widest cell.
#[derive(Clone, Debug)]
pub struct Table {
    /// Printed above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// One `Vec` of cells per row.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// A table titled `title` whose column headers are `headers`
    /// split at ` | `.
    pub fn new(title: impl Into<String>, headers: &str, rows: Vec<Vec<String>>) -> Table {
        Table {
            title: title.into(),
            headers: headers.split(" | ").map(str::to_owned).collect(),
            rows,
        }
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        writeln!(f, "=== {} ===", self.title)?;
        for (i, row) in std::iter::once(&self.headers).chain(&self.rows).enumerate() {
            for (cell, w) in row.iter().zip(&widths) {
                write!(f, "{cell:>w$}  ")?;
            }
            writeln!(f)?;
            if i == 0 {
                writeln!(f, "{}", "-".repeat(widths.iter().map(|w| w + 2).sum()))?;
            }
        }
        Ok(())
    }
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
    fn scale_from_args_rejects_unknown_flags() {
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            Scale::from_args(&args).map(|(scale, ops)| (scale, ops.join(" ")))
        };
        assert_eq!(parse(&[]), Some((Scale::Full, String::new())));
        assert_eq!(parse(&["--smoke"]), Some((Scale::Smoke, String::new())));
        assert_eq!(
            parse(&["a", "--smoke", "b"]),
            Some((Scale::Smoke, "a b".into()))
        );
        assert_eq!(parse(&["--smok"]), None);
        assert_eq!(parse(&["-s"]), None);
        assert_eq!(parse(&["--smoke", "--smoke"]), None);
    }

    #[test]
    fn json_is_well_formed() {
        let j = Json::obj([
            ("name", Json::str("a \"quoted\" \\ name\n")),
            ("ok", Json::Bool(true)),
            ("none", Json::num(f64::NAN, 2)),
            ("inf", Json::num(f64::INFINITY, 2)),
            (
                "rows",
                Json::Arr(vec![Json::num(1.0, 0), Json::num(2.5, 3)]),
            ),
            ("empty", Json::Arr(vec![])),
            ("nested", Json::obj([("x", Json::Arr(vec![Json::Null]))])),
        ]);
        assert_eq!(
            j.render(),
            "{\n  \"name\": \"a \\\"quoted\\\" \\\\ name\\u000a\",\n  \"ok\": true,\n  \
             \"none\": null,\n  \"inf\": null,\n  \"rows\": [\n    1,\n    2.500\n  ],\n  \
             \"empty\": [],\n  \"nested\": {\"x\": [null]}\n}\n"
        );
        assert_eq!(Json::Arr(vec![Json::Null]).render(), "[null]\n");
    }

    #[test]
    fn measure_smoke() {
        let k = nowmp_apps::jacobi::Jacobi::new(16);
        let cfg = ClusterConfig::test(3, 2);
        let r = measure(&k, cfg, 2, true, |_, _| {}, true);
        assert_eq!(r.err, 0.0);
        assert!(r.net.total_msgs > 0);
        assert_eq!(r.steps.len(), 2);
        assert!(r.steps.iter().all(|&(_, n)| n == 2));
    }
}
