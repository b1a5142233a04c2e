//! The paper's evaluation as claims: one function per table, figure or
//! paragraph, and [`scale`] for the larger NOWs its §7 anticipates,
//! `fn(Scale, DsmConfig) -> Claim`.
//!
//! Each function reruns its experiment on the DSM generation it is
//! given, every run on a fresh virtual clock, and returns the tables it
//! prints plus a named verdict per statement the paper makes about
//! them. A verdict reads as the run reads; it is not tuned to hold. A
//! run that fails verification, or that does not log the event a
//! verdict needs, makes that verdict fail instead of panicking.
//!
//! Golden files under `crates/bench/golden/` pin what repeats run to
//! run ([`golden_diff`]). The `paper` binary checks every claim it runs
//! against them; `tests/paper_claims.rs` checks the 1999 generation at
//! smoke scale inside `cargo test`.

use crate::{
    bench_cfg, bench_cfg_for, interpolate_runtime, measure, shape, BenchApps, Json, RunResult,
    Scale, Table,
};
use bytes::Bytes;
use nowmp_apps::{jacobi::Jacobi, nbf::Nbf, Kernel};
use nowmp_core::{moved_fraction_on_leave, EventKind, LeaveSel, LogEntry};
use nowmp_net::{CostModel, HostId, NetModel, Network};
use nowmp_omp::OmpSystem;
use nowmp_tmk::shared::SharedF64Vec;
use nowmp_tmk::system::{DsmSystem, MasterCtl, RegionRunner};
use nowmp_tmk::DataPlaneConfig::{self, Demand, Overlap};
use nowmp_tmk::{Broadcast, CollectiveConfig, DsmConfig, DsmSnapshot, ElemKind, TmkCtx};
use nowmp_util::{fmt_bytes, Clock};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// One claim's reproduction: the tables it prints and its verdicts.
#[derive(Clone, Debug, Default)]
pub struct Claim {
    /// The measured tables, in print order.
    pub tables: Vec<Table>,
    /// `(statement, holds)` per statement of the paper checked.
    pub verdicts: Vec<(String, bool)>,
}

impl Claim {
    fn verdict(&mut self, name: &str, holds: bool) {
        self.verdicts.push((name.to_owned(), holds));
    }

    /// The text golden files pin a subset of: each table as `= title`
    /// followed by its header and rows, cells joined by ` | `, then one
    /// `holds: …` / `fails: …` line per verdict.
    pub fn projection(&self) -> String {
        let mut out = String::new();
        for t in &self.tables {
            out.push_str(&format!("= {}\n", t.title));
            for row in std::iter::once(&t.headers).chain(&t.rows) {
                out.push_str(&row.join(" | "));
                out.push('\n');
            }
            out.push('\n');
        }
        for (name, holds) in &self.verdicts {
            out.push_str(&verdict_line(name, *holds));
            out.push('\n');
        }
        out
    }

    /// Tables and verdicts as one JSON object.
    pub fn json(&self) -> Json {
        let cells = |row: &[String]| Json::Arr(row.iter().map(Json::str).collect());
        let tables = self.tables.iter().map(|t| {
            Json::obj([
                ("title", Json::str(&t.title)),
                ("headers", cells(&t.headers)),
                ("rows", Json::Arr(t.rows.iter().map(|r| cells(r)).collect())),
            ])
        });
        Json::obj([
            ("tables", Json::Arr(tables.collect())),
            (
                "verdicts",
                Json::obj(
                    self.verdicts
                        .iter()
                        .map(|(name, holds)| (name.clone(), Json::Bool(*holds))),
                ),
            ),
        ])
    }
}

impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in &self.tables {
            writeln!(f, "\n{t}")?;
        }
        for (name, holds) in &self.verdicts {
            writeln!(f, "{}", verdict_line(name, *holds))?;
        }
        Ok(())
    }
}

fn verdict_line(name: &str, holds: bool) -> String {
    format!("{}: {name}", if holds { "holds" } else { "fails" })
}

/// A claim function: reproduce one claim at `Scale` on a generation.
pub type ClaimFn = fn(Scale, DsmConfig) -> Claim;

/// Every claim, under the name `paper <claim>` selects it by.
pub const CLAIMS: [(&str, ClaimFn); 8] = [
    ("table1", table1),
    ("table2", table2),
    ("fig2", fig2),
    ("fig3", fig3),
    ("sec5_1", sec5_1),
    ("sec5_3", sec5_3),
    ("sec5_4", sec5_4),
    ("scale", scale),
];

/// `paper`'s arguments (program name dropped): exactly one claim name
/// or `all`, and an optional `--smoke`. The scale and the claims to
/// run, or `None` for anything else.
pub fn claims_from_args(args: &[String]) -> Option<(Scale, Vec<(&'static str, ClaimFn)>)> {
    let (scale, operands) = Scale::from_args(args)?;
    let [which] = operands[..] else {
        return None;
    };
    let claims: Vec<_> = CLAIMS
        .into_iter()
        .filter(|(name, _)| which == "all" || which == *name)
        .collect();
    (!claims.is_empty()).then_some((scale, claims))
}

/// The generations `claim` runs on: the paper's 1999 system
/// ([`DsmConfig::generation_1999`]) and the shipped default. [`scale`]
/// runs once, as `every`: its lanes are the generations.
pub fn generations(claim: &str) -> Vec<(&'static str, DsmConfig)> {
    if claim == "scale" {
        return vec![("every", DsmConfig::default_4k())];
    }
    vec![
        ("1999", DsmConfig::default_4k().generation_1999()),
        ("current", DsmConfig::default_4k()),
    ]
}

/// The golden file of `claim` on `generation` at `scale`:
/// `<claim>-<generation>.txt` for a claim that ignores the scale,
/// `<claim>-<generation>-<scale>.txt` otherwise.
pub fn golden_path(claim: &str, generation: &str, scale: Scale) -> PathBuf {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/golden"));
    let any_scale = dir.join(format!("{claim}-{generation}.txt"));
    if any_scale.exists() {
        return any_scale;
    }
    dir.join(format!("{claim}-{generation}-{}.txt", scale.name()))
}

/// Where `claim` departs from `golden`, one message per departure.
///
/// A golden file is a pinned subset of [`Claim::projection`]: blank and
/// `#` lines are ignored, `= title` opens a table whose lines that
/// follow must appear in the claim's table of that title, in order
/// (rows left out are not pinned), and a `holds: …` / `fails: …` line
/// pins that verdict.
pub fn golden_diff(claim: &Claim, golden: &str) -> Vec<String> {
    let mut out = Vec::new();
    // The open table: its title and its projected lines not yet passed.
    let mut open: Option<(&str, Vec<String>)> = None;
    for line in golden.lines().map(str::trim_end) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(title) = line.strip_prefix("= ") {
            let table = claim.tables.iter().find(|t| t.title == title);
            if table.is_none() {
                out.push(format!("table `{title}` is missing"));
            }
            let lines = table.map_or(Vec::new(), |t| {
                std::iter::once(&t.headers)
                    .chain(&t.rows)
                    .map(|r| r.join(" | "))
                    .collect()
            });
            open = Some((title, lines));
            continue;
        }
        let pinned = [("holds: ", true), ("fails: ", false)]
            .into_iter()
            .find_map(|(prefix, holds)| Some((line.strip_prefix(prefix)?, holds)));
        if let Some((name, holds)) = pinned {
            match claim.verdicts.iter().find(|(n, _)| n == name) {
                None => out.push(format!("verdict `{name}` is missing")),
                Some((_, now)) if *now != holds => out.push(format!(
                    "verdict changed: pinned `{line}`, reads `{}`",
                    verdict_line(name, *now)
                )),
                Some(_) => {}
            }
            continue;
        }
        match &mut open {
            Some((title, lines)) => match lines.iter().position(|l| l == line) {
                Some(i) => {
                    lines.drain(..=i);
                }
                None => {
                    out.push(format!("table `{title}`: pinned line `{line}` not found"));
                }
            },
            None => out.push(format!("line `{line}` outside any table")),
        }
    }
    out
}

/// One logged adaptation point, with the §5.4 metrics: seconds it
/// took, bytes moved network-wide and on the busiest link, joins and
/// leaves committed.
#[derive(Clone, Copy, Debug)]
struct Adaptation {
    took: f64,
    bytes_moved: u64,
    max_link_bytes: u64,
    joins: usize,
    leaves: usize,
}

/// What a run that logged no adaptation point reads in its row; its
/// `every run verifies and logs its events` verdict fails.
const MISSING: Adaptation = Adaptation {
    took: f64::NAN,
    bytes_moved: 0,
    max_link_bytes: 0,
    joins: 0,
    leaves: 0,
};

/// Every adaptation point `log` records, in order.
fn adaptations(log: &[LogEntry]) -> Vec<Adaptation> {
    log.iter()
        .filter_map(|e| match e.kind {
            EventKind::Adaptation {
                took,
                bytes_moved,
                max_link_bytes,
                joins,
                leaves,
                ..
            } => Some(Adaptation {
                took: took.as_secs_f64(),
                bytes_moved,
                max_link_bytes,
                joins,
                leaves,
            }),
            _ => None,
        })
        .collect()
}

/// Largest over smallest of `values` (infinite unless every value is
/// finite and positive).
fn spread(values: &[f64]) -> f64 {
    if !values.iter().all(|v| v.is_finite() && *v > 0.0) {
        return f64::INFINITY;
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    values.iter().copied().fold(0.0, f64::max) / lo
}

/// **Table 1** — "Execution times and network traffic on non-adaptive
/// and adaptive system with no adapt events. Network traffic is
/// identical on both systems."
///
/// Each kernel × {8, 4, 1} processes runs on the *standard* system (the
/// adaptivity switch off — the paper's base TreadMarks) and on the
/// *adaptive* system with no adapt event, compute charged.
pub fn table1(scale: Scale, dsm: DsmConfig) -> Claim {
    let mut c = Claim::default();
    let mut rows = Vec::new();
    let (mut verified, mut same_time, mut same_traffic) = (true, true, true);
    let (mut serial_silent, mut scales_up, mut diffs) = (true, true, Vec::new());
    for (app, iters) in BenchApps::all(scale) {
        let app = app.as_ref();
        let runs: Vec<_> = [8usize, 4, 1]
            .into_iter()
            .map(|procs| {
                let cfg = || bench_cfg_for(app, dsm.clone(), procs, procs);
                let run = |adaptive| measure(app, cfg(), iters, adaptive, |_, _| {}, adaptive);
                (procs, run(false), run(true))
            })
            .collect();
        let t1 = runs[2].2.secs;
        scales_up &= t1 / runs[0].2.secs > t1 / runs[1].2.secs;
        diffs.push((app.name(), runs[0].2.dsm.diffs_fetched));
        for (procs, std_run, ada) in &runs {
            verified &= ada.err == 0.0;
            let (sb, ab) = (std_run.net.total_bytes, ada.net.total_bytes);
            let db = sb.abs_diff(ab) as f64 / sb.max(1) as f64;
            same_time &= (ada.secs - std_run.secs).abs() <= 0.01 * std_run.secs;
            same_traffic &= db <= 0.01;
            serial_silent &= *procs > 1 || sb + ab == 0;
            rows.push(vec![
                app.name().to_string(),
                fmt_bytes(app.shared_bytes()),
                iters.to_string(),
                procs.to_string(),
                format!("{:.3}", std_run.secs),
                format!("{:.3}", ada.secs),
                format!("{:.2}", t1 / ada.secs),
                ada.dsm.pages_fetched.to_string(),
                format!("{:.2}", sb as f64 / 1e6),
                format!("{:.2}", ab as f64 / 1e6),
                ada.net.total_msgs.to_string(),
                ada.dsm.diffs_fetched.to_string(),
                format!("{:.1}%", db * 100.0),
            ]);
        }
    }
    c.tables.push(Table::new(
        "Table 1: simulated time and network traffic, no adapt events",
        "App | Shared | Iters | Nodes | Std(s) | Adaptive(s) | Speedup | Pages(4k) | MB(std) \
         | MB(ada) | Messages | Diffs | dTraffic",
        rows,
    ));
    let diffs = |name: &str| diffs.iter().find(|d| d.0 == name).map(|d| d.1);
    c.verdict("adaptive runtime within 1% of standard", same_time);
    c.verdict(
        "traffic identical on both systems (within 1%)",
        same_traffic,
    );
    c.verdict("one-node runs move no data", serial_silent);
    c.verdict(
        "Jacobi fetches diffs, Gauss only full pages (8 nodes)",
        diffs("Jacobi").is_some_and(|d| d > 0) && diffs("Gauss") == Some(0),
    );
    c.verdict("every kernel's speedup grows from 4 to 8 nodes", scales_up);
    c.verdict("every run verifies", verified);
    c
}

/// **Table 2** — "Average cost of repeated adaptations between n and
/// n−1 processes for n = 8 and n = 6", leaver = "end" (highest pid) or
/// "middle" (pid n/2).
///
/// The paper's method (§5.3): alternate leaves and joins (one per
/// adaptation point), measure the runtime, interpolate the
/// non-adaptive runtime at the time-weighted average node count from
/// runs at n and n−1, and divide the excess by the number of
/// adaptations. Only the steps are timed, and each step is weighted by
/// the team size after it: a join's 0.7 s spawn is asynchronous in the
/// paper (Fig. 2a), and `join_ready` waits it out before the step.
/// DirectLat is the mean adaptation time the event log records.
pub fn table2(scale: Scale, dsm: DsmConfig) -> Claim {
    let mut c = Claim::default();
    let mut rows = Vec::new();
    let mut verified = true;
    // (app, n, leaver, Cost/adapt), for the verdicts.
    let mut costs = Vec::new();
    for (app, iters) in BenchApps::all(scale) {
        let app = app.as_ref();
        for n in [8usize, 6] {
            let cfg = |hosts, procs| bench_cfg_for(app, dsm.clone(), hosts, procs);
            let step_secs = |run: &RunResult| run.steps.iter().map(|s| s.0).sum::<f64>();
            let steady =
                |procs| step_secs(&measure(app, cfg(n, procs), iters, false, |_, _| {}, false));
            let (t_n, t_n1) = (steady(n), steady(n - 1));
            for leaver in ["end", "middle"] {
                let events = 4usize.min(iters / 2);
                let every = (iters / (events + 1)).max(1);
                let mut pending = 0usize;
                // A spare host for the re-joins.
                let run = measure(
                    app,
                    cfg(n + 1, n),
                    iters,
                    true,
                    |sys, it| {
                        if it > 0 && it % every == 0 && pending < events {
                            if pending.is_multiple_of(2) {
                                let np = sys.nprocs();
                                let pid = if leaver == "end" { np - 1 } else { np / 2 };
                                let _ = sys.adapt().leave(LeaveSel::Pid(pid as u16), None);
                            } else {
                                let _ = sys.join_ready();
                            }
                            pending += 1;
                        }
                    },
                    true,
                );
                let adapts = adaptations(&run.log);
                verified &= run.err == 0.0 && !adapts.is_empty();
                let n_adapt = adapts.len().max(1) as f64;
                let direct = adapts.iter().map(|a| a.took).sum::<f64>() / n_adapt;
                let secs = step_secs(&run);
                let avg_n = run.steps.iter().map(|&(t, np)| t * np as f64).sum::<f64>() / secs;
                let t_ref = interpolate_runtime(t_n1, (n - 1) as f64, t_n, n as f64, avg_n);
                let per_adapt = (secs - t_ref) / n_adapt;
                costs.push((app.name(), n, leaver, per_adapt));
                rows.push(vec![
                    app.name().to_string(),
                    n.to_string(),
                    leaver.to_string(),
                    adapts.len().to_string(),
                    format!("{avg_n:.2}"),
                    format!("{secs:.3}"),
                    format!("{t_ref:.3}"),
                    format!("{:.4}", per_adapt.max(0.0)),
                    format!("{direct:.4}"),
                ]);
            }
        }
    }
    c.tables.push(Table::new(
        "Table 2: average cost per adaptation (alternating leave/join, n <-> n-1)",
        "App | n | Leaver | Adapts | AvgNodes | T_adapt(s) | T_interp(s) | Cost/adapt(s) \
         | DirectLat(s)",
        rows,
    ));
    let cost = |app: &str, n: usize, leaver: &str| {
        let k = costs.iter().find(|k| (k.0, k.1, k.2) == (app, n, leaver));
        k.map_or(f64::NAN, |k| k.3)
    };
    let apps = ["Jacobi", "Gauss"];
    c.verdict(
        "middle leaves cost more than end leaves (Jacobi, Gauss at n = 8)",
        apps.iter()
            .all(|a| cost(a, 8, "middle") > cost(a, 8, "end")),
    );
    c.verdict(
        "8-process adaptations cost less than 6-process ones (Jacobi, Gauss)",
        apps.iter().all(|a| {
            ["end", "middle"]
                .iter()
                .all(|l| cost(a, 8, l) < cost(a, 6, l))
        }),
    );
    c.verdict("every run verifies and logs its events", verified);
    c
}

/// One Figure 2 scenario: a `hosts`-workstation pool running `procs`
/// processes, with `event` injected before iteration [`FIG2_AT`].
#[derive(Clone, Copy)]
pub struct Fig2Scenario {
    /// Figure panel and what it shows.
    pub name: &'static str,
    /// Workstations in the pool.
    pub hosts: usize,
    /// Initial team size.
    pub procs: usize,
    /// The adapt event.
    pub event: fn(&mut OmpSystem),
    /// The statement of the panel the run is checked against.
    pub claim: &'static str,
    /// The event kinds the panel shows, in order ([`shape`] entries up
    /// to their first `@` or `:`).
    pub order: &'static [&'static str],
}

/// The iteration before which each Figure 2 event is injected.
pub const FIG2_AT: usize = 3;

impl Fig2Scenario {
    /// Whether a run's [`shape`] shows this panel's event order.
    pub fn shows(&self, shape: &[String]) -> bool {
        let kinds = shape.iter().filter_map(|s| s.split(['@', ':']).next());
        kinds.eq(self.order.iter().copied())
    }

    /// The `events` callback [`measure`] takes.
    pub fn events(self) -> impl FnMut(&mut OmpSystem, usize) {
        move |sys: &mut OmpSystem, it: usize| {
            if it == FIG2_AT {
                (self.event)(sys)
            }
        }
    }
}

/// Figure 2's three adaptation shapes: (a) a join requested
/// mid-computation, which connects asynchronously and enters at the
/// next adaptation point; (b) a normal leave of pid 3 within a 30 s
/// grace period, resolved at an adaptation point; (c) an urgent leave
/// of pid 3 whose grace period is expired at once: the process migrates
/// (spawn + image transfer at 8.1 MB/s) and multiplexes on its new host
/// until the next adaptation point.
pub fn fig2_scenarios() -> [Fig2Scenario; 3] {
    [
        Fig2Scenario {
            name: "Figure 2(a): join",
            hosts: 5,
            procs: 4,
            event: |sys| {
                let _ = sys.join_ready();
            },
            claim: "(a) a join commits at an adaptation point after the joiner connects",
            order: &["join_requested", "join_ready", "join_committed", "adapt"],
        },
        Fig2Scenario {
            name: "Figure 2(b): normal leave (grace period honored)",
            hosts: 4,
            procs: 4,
            event: |sys| {
                let grace = Some(Duration::from_secs(30));
                let _ = sys.adapt().leave(LeaveSel::Pid(3), grace);
            },
            claim: "(b) a normal leave resolves at an adaptation point without migrating",
            order: &["leave_requested", "normal_leave", "adapt"],
        },
        Fig2Scenario {
            name: "Figure 2(c): urgent leave (migration + multiplexing)",
            hosts: 4,
            procs: 4,
            event: |sys| {
                if let Ok(g) = sys.adapt().leave(LeaveSel::Pid(3), None) {
                    sys.shared().force_urgent(g);
                }
            },
            claim: "(c) an urgent leave migrates, then leaves at the next adaptation point",
            order: &[
                "leave_requested",
                "urgent_start",
                "urgent_done",
                "normal_leave",
                "adapt",
            ],
        },
    ]
}

/// **Figure 2** — the three adaptation shapes as timelines, and the
/// event order each panel shows.
pub fn fig2(scale: Scale, dsm: DsmConfig) -> Claim {
    let mut c = Claim::default();
    let app = Jacobi::new(scale.pick(64, 128));
    let mut verified = true;
    for sc in fig2_scenarios() {
        let cfg = bench_cfg(dsm.clone(), sc.hosts, sc.procs);
        let run = measure(&app, cfg, 10, true, sc.events(), true);
        verified &= run.err == 0.0;
        let timeline = run.log.iter().map(|e| {
            let at = format!("{:.4}", e.at.as_secs_f64());
            vec![at, format!("{:?}", e.kind)]
        });
        let title = format!("{} — timeline", sc.name);
        c.tables
            .push(Table::new(title, "At(s) | Event", timeline.collect()));
        let order = shape(&run.log);
        c.verdict(sc.claim, sc.shows(&order));
        let title = format!("{} — event order", sc.name);
        c.tables.push(Table::new(
            title,
            "Event",
            order.into_iter().map(|s| vec![s]).collect(),
        ));
    }
    c.verdict("every run verifies", verified);
    c
}

/// **Figure 3** — "Effect of process id of leaving node: node 7 (a) and
/// node 3 (b) require different data re-distribution. Up to 50% of the
/// data space is moved for node 7, up to 30% for node 3."
///
/// Two views: the closed-form block-partition overlap
/// ([`moved_fraction_on_leave`]) for every leaver of an 8-process team,
/// and a Jacobi run on 8 processes in which one process leaves at
/// iteration 4. AdaptBytes is what the adaptation point moves (GC and
/// leaver pages); RedistBytes is the paper's lazy re-distribution
/// through page faults: the traffic of the two iterations after the
/// leave, less what the same window costs with no leave.
pub fn fig3(scale: Scale, dsm: DsmConfig) -> Claim {
    let mut c = Claim::default();
    let moved = |leaver| format!("{:.1}%", moved_fraction_on_leave(8, leaver) * 100.0);
    let analytic = (1..8usize).map(|l| vec![l.to_string(), moved(l)]).collect();
    c.tables.push(Table::new(
        "Figure 3 (analytic): fraction of block-partitioned data space moved on leave, n=8",
        "LeaverPid | Moved",
        analytic,
    ));
    let app = Jacobi::new(scale.pick(96, 192));
    // Bytes on the wire between iterations 4 and 6 when `leaver` (if
    // any) is asked to leave at 4, and the run.
    let window = |leaver: Option<u16>| {
        let mut marks = [0, 0];
        let run = measure(
            &app,
            bench_cfg(dsm.clone(), 8, 8),
            8,
            true,
            |sys, it| {
                if it == 4 || it == 6 {
                    marks[it / 6] = sys.net_stats().total_bytes;
                }
                if let (4, Some(pid)) = (it, leaver) {
                    let _ = sys.adapt().leave(LeaveSel::Pid(pid), None);
                }
            },
            leaver.is_some(),
        );
        (marks[1].saturating_sub(marks[0]), run)
    };
    let steady = window(None).0;
    let (mut rows, mut verified) = (Vec::new(), true);
    let (mut redist, mut adapt_bytes) = (Vec::new(), Vec::new());
    for leaver in [7u16, 3, 1] {
        let (bytes, run) = window(Some(leaver));
        let adapts = adaptations(&run.log);
        verified &= run.err == 0.0 && !adapts.is_empty();
        let at_point: u64 = adapts.iter().map(|a| a.bytes_moved).sum();
        let re = bytes.saturating_sub(steady);
        redist.push(re);
        adapt_bytes.push(at_point as f64);
        let share = format!("{:.1}%", re as f64 / app.shared_bytes() as f64 * 100.0);
        let cells = [
            fmt_bytes(at_point),
            fmt_bytes(re),
            share,
            moved(leaver as usize),
        ];
        rows.push(std::iter::once(leaver.to_string()).chain(cells).collect());
    }
    c.tables.push(Table::new(
        "Figure 3 (measured): Jacobi on 8 procs, one leave at iteration 4",
        "LeaverPid | AdaptBytes | RedistBytes | Redist/Shared | AnalyticMoved",
        rows,
    ));
    c.verdict(
        "analytic: the end leaver (pid 7) moves 50%, the middle one (pid 3) under 30%",
        (moved_fraction_on_leave(8, 7) - 0.5).abs() < 1e-9 && moved_fraction_on_leave(8, 3) < 0.3,
    );
    c.verdict(
        "measured re-distribution orders end (pid 7) > early-middle (pid 1) > middle (pid 3)",
        redist[0] > redist[2] && redist[2] > redist[1],
    );
    c.verdict(
        "adaptation-point bytes do not depend on the leaver (within 10%)",
        spread(&adapt_bytes) <= 1.1,
    );
    c.verdict("every run verifies and logs its events", verified);
    c
}

/// f64 slots of one 4 KB page.
const PAGE: usize = 512;

/// The §5.1 probes as DSM regions: 0 writes a prefix of one page on pid
/// 1 (the diff-size knob), 1 reads the page's first word on the master
/// (a diff or page fetch), 2 takes and releases one lock everywhere.
struct Probe;

impl RegionRunner for Probe {
    fn run(&self, region: u32, ctx: &mut TmkCtx) {
        let v = SharedF64Vec::lookup(ctx, "v");
        let mut p = nowmp_util::wire::Dec::new(ctx.params());
        let page = p.get_u64().unwrap_or(0) as usize;
        match (region, ctx.pid()) {
            (0, 1) => {
                let words = p.get_u64().unwrap_or(0) as usize;
                for i in page * PAGE..page * PAGE + words {
                    let cur = v.get(ctx, i);
                    v.set(ctx, i, cur + 1.0);
                }
            }
            (1, 0) => {
                let _ = v.get(ctx, page * PAGE);
            }
            (2, _) => {
                ctx.lock(5);
                ctx.unlock(5);
            }
            _ => {}
        }
    }
}

/// Region parameters: the page, and how many of its words to write.
fn params(page: usize, words: usize) -> Vec<u8> {
    let mut e = nowmp_util::wire::Enc::new();
    e.put_u64(page as u64);
    e.put_u64(words as u64);
    e.finish().to_vec()
}

/// Mean µs per rep of the master's read of page `page(rep)` (region 1),
/// after the worker wrote `words` words of it (region 0).
fn read_after_write(
    master: &mut MasterCtl,
    clock: &Clock,
    reps: usize,
    words: usize,
    page: impl Fn(usize) -> usize,
) -> f64 {
    let mut total = Duration::ZERO;
    for rep in 0..reps {
        master.parallel(0, &params(page(rep), words));
        let t0 = clock.now();
        master.parallel(1, &params(page(rep), 0));
        total += clock.elapsed_since(t0);
    }
    total.as_secs_f64() / reps as f64 * 1e6
}

/// **§5.1 micro-costs** — the experimental environment:
///
/// > "The roundtrip latency for a 1-byte message is 126 microseconds.
/// > The time to acquire a lock varies between 178 and 272
/// > microseconds. The time for getting a diff varies between 313 and
/// > 1,544 microseconds, depending on the size of the diff. A full page
/// > transfer takes 1,308 microseconds."
///
/// The same five quantities on a 2-host simulated NOW, in modelled µs.
/// The DSM probes include one fork/join pair each (the DSM has no
/// standalone probe), so the verdicts check the paper's ordering
/// (roundtrip < lock < small diff < large diff ≈ page), not the values.
pub fn sec5_1(_scale: Scale, dsm: DsmConfig) -> Claim {
    let mut c = Claim::default();
    let reps = 50;
    let network = || {
        let model = NetModel::paper_1999();
        Network::with_clock(2, 1, model, CostModel::disabled(), Clock::new_virtual())
    };
    let per_rep_us = |t: Duration| t.as_secs_f64() / reps as f64 * 1e6;

    // 1-byte roundtrip on the raw transport.
    let net = network();
    let clock = net.clock().clone();
    let (a, b) = (net.register(HostId(0)), net.register(HostId(1)));
    let bg = b.gpid();
    let server = clock.spawn("echo", move || {
        while let Ok(inc) = b.recv() {
            match inc.replier {
                Some(r) => r.reply(Bytes::from_static(b"y")),
                None => break,
            }
        }
    });
    let t0 = clock.now();
    let answered = (0..reps).filter(|_| a.call(bg, Bytes::from_static(b"x")).is_ok());
    let rtt_us = if answered.count() == reps {
        per_rep_us(clock.elapsed_since(t0))
    } else {
        f64::NAN
    };
    let _ = a.send(bg, Bytes::new());
    let _ = server.join();

    // DSM-level costs on a 2-process system.
    let net = network();
    let clock = net.clock().clone();
    let sys = DsmSystem::new(net, dsm, Arc::new(Probe));
    let mut master = sys.start_master(HostId(0));
    let w = sys.spawn_worker(HostId(1), master.gpid(), vec![]);
    // Page 0 for the diff rows, then one fresh page per full-page rep.
    master.alloc("v", ((1 + reps) * PAGE) as u64, ElemKind::F64);
    master.init_team(&[w]);
    // Lock acquisition (manager on the master, both processes acquire).
    let t0 = clock.now();
    for _ in 0..reps {
        master.parallel(2, &params(0, 0));
    }
    let lock_us = per_rep_us(clock.elapsed_since(t0));
    // Full page transfer: each rep the worker writes a whole page the
    // master has never held, and the master reads it.
    let page_us = read_after_write(&mut master, &clock, reps, PAGE, |rep| 1 + rep);
    // Diff fetch: the master holds a copy of page 0 (read once, before
    // anyone wrote it) and each rep fetches the worker's new diff.
    master.parallel(1, &params(0, 0));
    let diff_us: Vec<f64> = [16, 256, 511]
        .into_iter()
        .map(|words| read_after_write(&mut master, &clock, reps, words, |_| 0))
        .collect();
    master.shutdown();

    let row = |quantity: &str, paper: &str, us: f64| {
        vec![quantity.to_owned(), paper.to_owned(), format!("{us:.0} us")]
    };
    let diff = "313-1544 us";
    let rows = vec![
        row("1-byte roundtrip", "126 us", rtt_us),
        row(
            "lock acquire (region incl. fork/join)",
            "178-272 us",
            lock_us,
        ),
        row("diff fetch (16 words)", diff, diff_us[0]),
        row("diff fetch (256 words)", diff, diff_us[1]),
        row("diff fetch (511 words)", diff, diff_us[2]),
        row("full 4K page transfer", "1308 us", page_us),
    ];
    let title = "§5.1 micro-costs: paper vs simulated NOW";
    c.tables
        .push(Table::new(title, "quantity | paper | ours", rows));
    c.verdict("roundtrip < lock", rtt_us < lock_us);
    c.verdict("lock < small diff", lock_us < diff_us[0]);
    let grows = diff_us.windows(2).all(|w| w[0] < w[1]);
    c.verdict("diff fetch grows with diff size", grows);
    let like_a_page = spread(&[diff_us[2], page_us]) <= 1.1;
    c.verdict(
        "the largest diff costs about a full page (within 10%)",
        like_a_page,
    );
    c
}

/// **§5.3** — "The cost of adaptation by migration alone is
/// substantially higher."
///
/// > "Two components determine the direct cost of migration: (i) the
/// > cost to create a new process on the new host (approximately 0.6 to
/// > 0.8 seconds), and (ii) the cost to move the process's image (at a
/// > rate of approx. 8.1 MByte/s)."
///
/// Each kernel runs on 8 processes; halfway through, pid 7 leaves
/// urgently (it migrates) in one run and normally in another.
pub fn sec5_3(scale: Scale, dsm: DsmConfig) -> Claim {
    let mut c = Claim::default();
    let cost = CostModel::paper_1999();
    let mut rows = Vec::new();
    let (mut verified, mut modelled, mut dearer) = (true, true, true);
    for (app, iters) in BenchApps::all(scale) {
        let app = app.as_ref();
        let run = |urgent: bool| {
            let leave = move |sys: &mut OmpSystem, it| {
                if it != iters / 2 {
                    return;
                }
                if let (Ok(g), true) = (sys.adapt().leave(LeaveSel::Pid(7), None), urgent) {
                    sys.shared().force_urgent(g);
                }
            };
            measure(app, bench_cfg(dsm.clone(), 8, 8), iters, true, leave, true)
        };
        let (urgent, normal) = (run(true), run(false));
        let image = urgent.log.iter().find_map(|e| match e.kind {
            EventKind::UrgentMigrationStart { image_bytes, .. } => Some(image_bytes),
            _ => None,
        });
        let stall = urgent.log.iter().find_map(|e| match e.kind {
            EventKind::UrgentMigrationDone { took, .. } => Some(took.as_secs_f64()),
            _ => None,
        });
        let leave = adaptations(&normal.log)
            .first()
            .map_or(f64::NAN, |a| a.took);
        verified &= urgent.err == 0.0 && normal.err == 0.0 && image.is_some() && stall.is_some();
        let (image, stall) = (image.unwrap_or(0), stall.unwrap_or(f64::NAN));
        let model = cost.spawn_time().as_secs_f64() + cost.migration_time(image).as_secs_f64();
        modelled &= (stall - model).abs() <= 0.01 * model;
        dearer &= stall >= 5.0 * leave;
        rows.push(vec![
            app.name().to_string(),
            fmt_bytes(image as u64),
            format!("{model:.2}"),
            format!("{stall:.2}"),
            format!("{leave:.3}"),
            format!("{:.1}x", stall / leave.max(1e-9)),
        ]);
    }
    c.tables.push(Table::new(
        "§5.3 what-if: urgent-leave migration vs normal leave",
        "App | Image | Model spawn+xfer(s) | Measured migration(s) | Normal leave(s) \
         | Urgent/Normal",
        rows,
    ));
    c.verdict(
        "the migration stall is spawn + image / 8.1 MB/s (within 1%)",
        modelled,
    );
    c.verdict(
        "migration costs at least 5x a normal leave of the same process",
        dearer,
    );
    c.verdict("every run verifies and logs its events", verified);
    c
}

/// **§5.4 micro-analysis of adaptation costs** — the five claims:
///
/// (a) "the cost of adaptation is proportional to the maximum network
///     traffic per link generated by the adapt event";
/// (b) "the cost of adaptation decreases as the number of processes
///     increases";
/// (c) "the cost per adaptation decreases as more processes join or
///     leave at the same time";
/// (d) "the cost of adaptation decreases as more adaptations happen
///     during the execution";
/// (e) "running the applications with smaller problem set sizes results
///     in proportionally smaller adaptation costs".
pub fn sec5_4(scale: Scale, dsm: DsmConfig) -> Claim {
    let mut c = Claim::default();
    let n_grid = scale.pick(96, 192);
    let mut verified = true;
    // The adaptations of one adaptive run of Jacobi `grid`² on (up to 8
    // of) `hosts` workstations for `iters` iterations, with `events`.
    let mut run = |grid, hosts: usize, iters, events: &mut dyn FnMut(&mut OmpSystem, usize)| {
        let cfg = bench_cfg(dsm.clone(), hosts, 8.min(hosts));
        let r = measure(&Jacobi::new(grid), cfg, iters, true, events, true);
        let adapts = adaptations(&r.log);
        verified &= r.err == 0.0 && !adapts.is_empty();
        adapts
    };
    let leave = |sys: &mut OmpSystem, pid: usize| {
        let _ = sys.adapt().leave(LeaveSel::Pid(pid as u16), None);
    };
    let leave_end = |sys: &mut OmpSystem| {
        let last = sys.nprocs() - 1;
        leave(sys, last)
    };
    // One leave of the end process before iteration 4 of 8.
    let mut one_leave = |grid, hosts| {
        let adapts = run(grid, hosts, 8, &mut |sys, it| {
            if it == 4 {
                leave_end(sys)
            }
        });
        adapts.first().copied().unwrap_or(MISSING)
    };

    // (a) + (b): one leave of the end process from n processes.
    let (mut rows, mut per_mb, mut by_n) = (Vec::new(), Vec::new(), Vec::new());
    for n in (3..=8usize).rev() {
        let a = one_leave(n_grid, n);
        let s_per_mb = a.took / (a.max_link_bytes as f64 / 1e6).max(1e-9);
        per_mb.push(s_per_mb);
        by_n.push(a.took);
        rows.push(vec![
            n.to_string(),
            format!("{:.3}", a.took),
            fmt_bytes(a.bytes_moved),
            fmt_bytes(a.max_link_bytes),
            format!("{s_per_mb:.2}"),
        ]);
    }
    c.tables.push(Table::new(
        "(a)+(b): leave of the end process from n procs (Jacobi)",
        "n | AdaptTime(s) | BytesMoved | MaxLinkBytes | s per MB-on-max-link",
        rows,
    ));

    // (e): adaptation cost vs problem size.
    let (mut rows, mut moved, mut fractions) = (Vec::new(), Vec::new(), Vec::new());
    for grid in [64usize, 128, 192] {
        let shared = Jacobi::new(grid).shared_bytes();
        let a = one_leave(grid, 8);
        let fraction = a.bytes_moved as f64 / shared as f64;
        moved.push(a.bytes_moved);
        fractions.push(fraction);
        rows.push(vec![
            format!("{grid}x{grid}"),
            fmt_bytes(shared),
            format!("{:.3}", a.took),
            fmt_bytes(a.bytes_moved),
            format!("{fraction:.3}"),
        ]);
    }
    let size_table = Table::new(
        "(e): adaptation cost vs problem size (Jacobi end-leave, 8 procs)",
        "Grid | Shared | AdaptTime(s) | BytesMoved | Moved/Shared",
        rows,
    );

    // (c): k simultaneous leaves at one adaptation point vs the same k
    // leaves at consecutive points.
    let (mut rows, mut together_cheaper) = (Vec::new(), true);
    for k in [1usize, 2, 3] {
        let per_leave = |a: Vec<Adaptation>| a.iter().map(|a| a.took).sum::<f64>() / k as f64;
        let sim = per_leave(run(n_grid, 8, 8, &mut |sys, it| {
            if it == 4 {
                (0..k).for_each(|j| leave(sys, 7 - j))
            }
        }));
        let succ = per_leave(run(n_grid, 8, 8, &mut |sys, it| {
            if (4..4 + k).contains(&it) {
                leave_end(sys)
            }
        }));
        together_cheaper &= k == 1 || sim < succ;
        rows.push(vec![
            k.to_string(),
            format!("{sim:.3}"),
            format!("{succ:.3}"),
        ]);
    }
    c.tables.push(Table::new(
        "(c): cost per leave — k simultaneous vs k successive (Jacobi, 8 procs)",
        "k | Simultaneous s/leave | Successive s/leave",
        rows,
    ));

    // (d): repeated alternating leaves and joins, with a spare host.
    let adapts = run(n_grid, 9, 16, &mut |sys, it| {
        if it >= 2 && it % 2 == 0 {
            if (it / 2) % 2 == 1 {
                leave_end(sys)
            } else {
                let _ = sys.join_ready();
            }
        }
    });
    let rows = adapts.iter().enumerate().map(|(i, a)| {
        let event = format!("+{}/-{}", a.joins, a.leaves);
        let took = format!("{:.3}", a.took);
        vec![(i + 1).to_string(), event, took, fmt_bytes(a.bytes_moved)]
    });
    c.tables.push(Table::new(
        "(d): repeated alternating adaptations (Jacobi, 8 procs, spare host)",
        "Point | Event | AdaptTime(s) | BytesMoved",
        rows.collect(),
    ));
    c.tables.push(size_table);
    let leaves: Vec<u64> = adapts
        .iter()
        .filter(|a| a.leaves > 0)
        .map(|a| a.bytes_moved)
        .collect();

    c.verdict(
        "(a) adaptation time tracks the busiest link's traffic (s per MB within 1.5x across n)",
        spread(&per_mb) <= 1.5,
    );
    c.verdict(
        "(b) adaptation cost falls as n grows (n = 8 below n = 3)",
        by_n[0] < by_n[5],
    );
    c.verdict(
        "(c) k simultaneous leaves cost less per leave than k successive (k = 2, 3)",
        together_cheaper,
    );
    c.verdict(
        "(d) later leaves move less data than the first",
        leaves.len() > 1 && leaves[1..].iter().all(|&b| b < leaves[0]),
    );
    c.verdict(
        "(e) bytes moved grow with the problem size",
        moved.windows(2).all(|w| w[0] < w[1]),
    );
    c.verdict(
        "(e) the moved fraction stays roughly constant (within 1.5x)",
        spread(&fractions) <= 1.5,
    );
    c.verdict("every run verifies and logs its events", verified);
    c
}

/// How the workstations of a what-if pool differ from the reference
/// one.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Pool {
    Homogeneous,
    /// Odd-numbered hosts run at half speed.
    Heterogeneous,
    /// Host 1 carries one competing background process.
    LoadedHost,
}

impl Pool {
    fn name(self) -> &'static str {
        match self {
            Pool::Homogeneous => "homogeneous",
            Pool::Heterogeneous => "heterogeneous",
            Pool::LoadedHost => "loaded-host",
        }
    }

    fn apply(self, mut cost: CostModel, hosts: usize) -> CostModel {
        match self {
            Pool::Homogeneous => {}
            Pool::Heterogeneous => {
                for h in (1..hosts).step_by(2) {
                    cost = cost.with_host_speed(HostId(h as u16), 0.5);
                }
            }
            Pool::LoadedHost => {
                if hosts > 1 {
                    cost = cost.with_host_load(HostId(1), 1.0);
                }
            }
        }
        cost
    }
}

/// One lane of the sweep: fork dissemination × join/barrier collection
/// × data plane.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Mode {
    fork: Broadcast,
    reduce: Broadcast,
    dataplane: DataPlaneConfig,
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let shape = |b| match b {
            Broadcast::Flat => "flat",
            Broadcast::Tree => "tree",
        };
        let plane = match self.dataplane {
            Demand => "demand",
            Overlap => "overlap",
        };
        write!(f, "{}/{}/{plane}", shape(self.fork), shape(self.reduce))
    }
}

/// The 1999 system.
const FFD: Mode = Mode {
    fork: Broadcast::Flat,
    reduce: Broadcast::Flat,
    dataplane: Demand,
};
/// The fork redesign.
const TFD: Mode = Mode {
    fork: Broadcast::Tree,
    ..FFD
};
/// Both collectives treed.
const TTD: Mode = Mode {
    reduce: Broadcast::Tree,
    ..TFD
};
/// The full overlapped system.
const TTO: Mode = Mode {
    dataplane: Overlap,
    ..TTD
};

/// Node counts for one (pool, mode) lane of the Jacobi sweep. Smoke
/// trims the off-diagonal lanes so the sweep stays CI-sized while
/// keeping every column the floors and the A/B ratios need.
fn nodes(scale: Scale, pool: Pool, mode: Mode) -> &'static [usize] {
    if scale == Scale::Full {
        return &[2, 4, 8, 16, 32];
    }
    match (pool, mode) {
        // The floor lanes: tree/tree homogeneous needs the full curve
        // for both data planes (16-host floor, 32-host floors, every
        // A/B numerator and denominator).
        (Pool::Homogeneous, TTD | TTO) => &[2, 4, 8, 16, 32],
        // A/B baselines at the ceiling end: tree/flat isolates the
        // collection side, flat/flat is the 1999 system.
        (Pool::Homogeneous, _) => &[8, 16, 32],
        // What-if color rides the newest lane only; the demand lanes
        // exist for the floors and A/Bs above.
        (_, TTO) => &[2, 8, 32],
        (_, TTD) => &[32],
        (_, _) => &[8, 32],
    }
}

/// One measured point of the sweep.
#[derive(Clone, Copy, Debug)]
struct Point {
    kernel: &'static str,
    pool: Pool,
    mode: Mode,
    procs: usize,
    /// Simulated seconds of the run.
    secs: f64,
    /// The same kernel's serial run, the one its speedup divides by.
    t1: f64,
    /// DSM counters of the run (the push ledger).
    dsm: DsmSnapshot,
}

impl Point {
    fn speedup(&self) -> f64 {
        self.t1 / self.secs.max(1e-12)
    }
}

/// `kernel` for `iters` iterations on `procs` workstations of `pool`
/// in lane `mode`.
fn sweep_run(
    kernel: &dyn Kernel,
    dsm: &DsmConfig,
    pool: Pool,
    mode: Mode,
    procs: usize,
    iters: usize,
) -> RunResult {
    let cfg = bench_cfg_for(kernel, dsm.clone(), procs, procs);
    let cost = pool.apply(cfg.cost_model.clone(), procs);
    let collectives = CollectiveConfig::default()
        .with_fork(mode.fork)
        .with_join_reduce(mode.reduce);
    let cfg = cfg
        .with_cost_model(cost)
        .with_collectives(collectives)
        .with_dataplane(mode.dataplane);
    measure(kernel, cfg, iters, false, |_, _| {}, false)
}

/// Measure `kernel` along `lanes` (pool, mode, node counts) into
/// `points`, each point with the kernel's own serial time, which is
/// returned.
fn sweep(
    points: &mut Vec<Point>,
    kernel: &dyn Kernel,
    dsm: &DsmConfig,
    iters: usize,
    lanes: &[(Pool, Mode, &[usize])],
) -> f64 {
    // One reference workstation: a 1-process run exchanges nothing, so
    // neither the pool nor the lane matters.
    let t1 = sweep_run(kernel, dsm, Pool::Homogeneous, TTD, 1, iters).secs;
    for &(pool, mode, nodes) in lanes {
        for &procs in nodes {
            let run = sweep_run(kernel, dsm, pool, mode, procs, iters);
            points.push(Point {
                kernel: kernel.name(),
                pool,
                mode,
                procs,
                secs: run.secs,
                t1,
                dsm: run.dsm,
            });
        }
    }
    t1
}

/// **What-if scaling** — NOWs no 1999 machine room had, and the
/// protocol generations since, on the same application binaries.
///
/// The paper's testbed was eight homogeneous 300 MHz Pentium IIs; §7
/// anticipates larger and mixed ones. With the `CostModel` charging
/// calibrated compute to the virtual clock, Jacobi runs on:
///
/// * **homogeneous** pools of 2..32 workstations (the paper stopped at
///   8);
/// * **heterogeneous** pools, every odd-numbered workstation at half
///   speed (a mixed-generation machine room): static schedules stretch
///   to the stragglers, the flattening §7 anticipates;
/// * a **loaded host**, one workstation with a competing background
///   process (load 1.0 ⇒ effective speed ½): "someone sat down at
///   their workstation" (§1) without the owner asking the process to
///   leave.
///
/// Each pool runs the four generations as lanes, `fork/reduce/plane`:
/// `flat/flat/demand` (the 1999 system: master-serialized fork sends
/// and join arrivals, every fault a blocking round trip),
/// `tree/flat/demand` (the fork relayed down the cost models' shape),
/// `tree/tree/demand` (join and barrier aggregated up the reduce shape
/// too; docs/BROADCAST.md) and `tree/tree/overlap` (pipelined faults,
/// the writer push a region's faults subscribe to and whole-page
/// completion; docs/DATAPLANE.md). Every lane sets its own
/// collectives and data plane over the configuration it is given, so
/// `paper` runs the claim once, as `every`, on the default.
///
/// The data plane binds on irregular access, so the claim then A/Bs
/// demand against overlap on NBF, whose atoms read scattered partner
/// positions: its pages are multi-writer and every rank re-faults the
/// position array each iteration. On nearest-neighbour Jacobi the
/// collectives dominate at this scale and overlap is about neutral.
/// Each kernel's speedups divide by that kernel's own serial run.
///
/// What it shows: homogeneous speedup grows until the fixed per-fork
/// communication dominates the shrinking block — under flat
/// collectives the master's serialized fork sends plus the n−1 join
/// streams converging on its inbound wire; the trees push that past 32
/// nodes, and the overlapped plane takes the remaining per-fault round
/// trips off the critical path. Heterogeneous flattens hard; the loaded
/// host tracks homogeneous minus one effective node.
///
/// The verdicts are CI's scaling floors, named with their thresholds
/// and pinned at smoke scale (`scale-every-smoke.txt`): a regression in
/// the broadcast, collection or data-plane path flips one instead of
/// silently flattening the curve. (Host counts past 32 are the task
/// engine's: the harness's `task1024_engine` workload.)
pub fn scale(scale: Scale, dsm: DsmConfig) -> Claim {
    // Big enough that compute dominates at small node counts (the
    // scaling story needs a compute-bound regime to roll over from),
    // small enough that the real work behind the virtual charge stays
    // cheap.
    let (jacobi, iters) = scale.pick((Jacobi::new(384), 2usize), (Jacobi::new(1024), 4));
    let (nbf, nbf_iters) = scale.pick((Nbf::new(2048, 16), 4usize), (Nbf::new(4096, 64), 6));
    let mut points = Vec::new();
    let pools = [Pool::Homogeneous, Pool::Heterogeneous, Pool::LoadedHost];
    let lanes: Vec<_> = pools
        .into_iter()
        .flat_map(|pool| [TTO, TTD, TFD, FFD].map(|mode| (pool, mode, nodes(scale, pool, mode))))
        .collect();
    let t1 = sweep(&mut points, &jacobi, &dsm, iters, &lanes);
    let nbf_nodes = scale.pick(&[8, 32][..], &[2, 8, 32]);
    let nbf_lanes = [TTD, TTO].map(|mode| (Pool::Homogeneous, mode, nbf_nodes));
    let nbf_t1 = sweep(&mut points, &nbf, &dsm, nbf_iters, &nbf_lanes);
    let titles = [
        format!(
            "What-if scaling sweep: Jacobi {n}x{n}, {iters} iters (T1 = {t1:.3}s)",
            n = jacobi.n
        ),
        format!(
            "Data-plane A/B: NBF {} atoms x {} partners, {nbf_iters} iters (T1 = {nbf_t1:.3}s)",
            nbf.atoms, nbf.partners
        ),
    ];
    sweep_claim(titles, &points)
}

/// The [`scale`] claim's tables and verdicts from its measured points:
/// the Jacobi sweep and the NBF A/B (titled `titles`), the push ledger
/// and the A/B ratios at 32 homogeneous hosts.
fn sweep_claim(titles: [String; 2], points: &[Point]) -> Claim {
    let mut c = Claim::default();
    let header = "Scenario | Lane | Nodes | Sim(s) | Speedup | Efficiency";
    for (title, kernel) in titles.into_iter().zip(["Jacobi", "NBF"]) {
        let rows = points.iter().filter(|p| p.kernel == kernel).map(|p| {
            vec![
                p.pool.name().to_owned(),
                p.mode.to_string(),
                p.procs.to_string(),
                format!("{:.3}", p.secs),
                format!("{:.2}", p.speedup()),
                format!("{:.0}%", 100.0 * p.speedup() / p.procs as f64),
            ]
        });
        c.tables.push(Table::new(title, header, rows.collect()));
    }
    let at = |kernel: &str, pool: Pool, mode: Mode, procs: usize| {
        let key = (kernel, pool, mode, procs);
        points
            .iter()
            .find(|p| (p.kernel, p.pool, p.mode, p.procs) == key)
    };
    let s = |kernel, pool, mode, procs| at(kernel, pool, mode, procs).map(Point::speedup);
    let s32 = |kernel, mode| s(kernel, Pool::Homogeneous, mode, 32);
    let ratio = |a: Option<f64>, b: Option<f64>| Some(a? / b?);

    // What the writers pushed at the 32-host overlap point, and how
    // much of it a fault claimed.
    let ledgers = ["Jacobi", "NBF"].map(|k| (k, at(k, Pool::Homogeneous, TTO, 32).map(|p| p.dsm)));
    let pct = |part: u64, whole: u64| format!("{:.0}%", 100.0 * part as f64 / whole.max(1) as f64);
    let rows = ledgers.iter().filter_map(|&(kernel, d)| {
        let d = d?;
        Some(vec![
            kernel.to_owned(),
            d.push_sent.to_string(),
            d.push_bytes.to_string(),
            d.push_hits.to_string(),
            pct(d.push_hits, d.push_sent),
            d.push_wasted.to_string(),
        ])
    });
    c.tables.push(Table::new(
        "Push ledger at 32 homogeneous hosts (tree/tree/overlap)",
        "Kernel | Pushed | PushedBytes | Hit | Hit% | Wasted",
        rows.collect(),
    ));

    // The A/B headlines at the ceiling end: what the fork tree bought,
    // what treeing the collection side buys on top, and what
    // overlapping the data plane buys on top of both — on Jacobi,
    // collective-bound at this scale, and on NBF, where it binds.
    let abs = [
        ("Jacobi", TTD, FFD),
        ("Jacobi", TTD, TFD),
        ("Jacobi", TTO, TTD),
        ("NBF", TTO, TTD),
    ];
    let rows = abs.iter().map(|&(kernel, lane, base)| {
        let cell = |v: Option<f64>| v.map_or("-".to_owned(), |v| format!("{v:.2}"));
        vec![
            kernel.to_owned(),
            lane.to_string(),
            cell(s32(kernel, lane)),
            base.to_string(),
            cell(s32(kernel, base)),
            cell(ratio(s32(kernel, lane), s32(kernel, base))),
        ]
    });
    c.tables.push(Table::new(
        "A/B at 32 homogeneous hosts",
        "Kernel | Lane | Speedup | Baseline | Speedup | Ratio",
        rows.collect(),
    ));

    // The floors are virtual-clock speedups of the smoke configuration
    // (Jacobi 384², 2 iters; NBF 2048 atoms x 16 partners, 4 iters;
    // paper 1999 wire + cost models), re-measured when the outbound
    // link became an ordered reservation (a contended sender sleeps
    // exactly to its slot; before, it polled with a doubling back-off
    // and the wire idled between a release and the next poll), the
    // three Jacobi floors again when record sets became delta-coded
    // (docs/BROADCAST.md, Part 6) and when the collective shapes came
    // from the cost model (Part 7), and pinned ~10% under what five
    // consecutive runs on the 2-core reference box then showed. Each is
    // a verdict named `<what> >= <floor>`.
    let homogeneous = |mode, procs| s("Jacobi", Pool::Homogeneous, mode, procs);
    let floors = [
        // Tree-broadcast homogeneous speedup at 16 hosts. Measured
        // 4.31-4.39 over five runs. History: first pinned at 3.3
        // against a measured 4.04, then lowered to 2.7 when the same
        // lane read 3.1-3.2 on another runner. The timeline depended on
        // the host in two ways then: the virtual clock judged
        // quiescence by wall-clock heuristics (since removed), and a
        // sender that found its link busy polled it with a doubling
        // back-off, so the wait it paid depended on which poll found
        // the wire free (removed with the reservation). With both gone
        // the lane read 3.65-3.69 and the original floor stood again.
        // Delta-coded record sets shrank what each of the master's four
        // fork sends carries and moved the lane to 3.87-3.92; floor
        // raised from 3.3 to 3.5. The model-derived shapes (depth 2
        // both ways at 16 ranks instead of 4) moved it to 4.31-4.39.
        ("tree/tree homogeneous S(16)", homogeneous(TTD, 16), 3.9),
        // Tree-fork + tree-reduce homogeneous speedup at 32 hosts (the
        // collection-side floor). Measured 4.29-4.32 over five runs.
        // History: first pinned at 2.9 against 3.45, lowered to 2.3
        // when it read 2.7-2.8 — same cause as the 16-host floor above;
        // 3.12 in five of five runs, floor 2.8, once the timeline
        // stopped depending on the host; raised when the 32-record fork
        // shrank from 1.8 KB to 0.34 KB and the write notices stopped
        // being what the master serialises (3.81-3.85, floor 3.45);
        // raised again when the fork and reduce trees became the greedy
        // schedules for their own costs (depth 3 and 2 instead of 5 and
        // 5).
        ("tree/tree homogeneous S(32)", homogeneous(TTD, 32), 3.85),
        // Virtual-timeline advantage of fully-treed collectives over
        // the all-flat 1999 system at 32 homogeneous hosts. Measured
        // 6.35-6.47 over five runs (the original acceptance target was
        // >= 1.5x). History: 4.63-4.66, floor 4.2, before the
        // delta-coded sets; 5.67-5.74, floor 5.1, before the
        // model-derived shapes. The flat side encodes `Flat`, builds no
        // shape and did not move.
        (
            "tree/tree over flat/flat at 32 hosts",
            ratio(homogeneous(TTD, 32), homogeneous(FFD, 32)),
            5.7,
        ),
        // What the reduce shape buys over flat collection at 32
        // homogeneous hosts, tree fork on both sides (tree/tree over
        // tree/flat, demand plane). Measured 1.17-1.18 over five runs.
        // With the binomial reduce tree the same lane read 1.07 — the
        // 1.00-1.07 "not yet a result" of ROADMAP aim 1 — so the floor
        // sits between the two: a reduce shape that falls back to
        // binomial depth fails it. A ratio near 1, so not 10% under the
        // measurement but 4%.
        (
            "tree reduce over flat reduce at 32 hosts",
            ratio(homogeneous(TTD, 32), homogeneous(TFD, 32)),
            1.12,
        ),
        // Overlapped data plane homogeneous speedup at 32 hosts on NBF.
        // Measured 1.43-1.44 over five runs; demand paging manages
        // 0.88-0.90 on the same lane (the position array is re-fetched wholesale
        // every iteration, so past ~8 hosts demand NBF *slows down*
        // with more nodes). History: pinned at 1.05 against 1.16-1.17
        // when a reader still had to ask for every diff; re-pinned when
        // writers began to push their new diffs to last epoch's readers
        // at the interval close (docs/DATAPLANE.md, lever 4), measured
        // 1.33-1.46 while a release-phase prefetcher still warmed the
        // second iteration, and 1.35-1.40 between its deletion and the
        // acknowledged subscription. The smoke lane is four
        // cold-started iterations — cold, then steady — so it sees
        // most of the steady-state gain.
        ("NBF overlap homogeneous S(32)", s32("NBF", TTO), 1.2),
        // Virtual-timeline advantage of the overlapped data plane over
        // demand paging on NBF at 32 homogeneous hosts (the original
        // acceptance target: >= 1.15x). Measured 1.59-1.64x over five
        // runs. History: 1.39-1.42x, floor 1.25, before the writer
        // push; 1.61-1.64x (later 1.62), floor 1.45, while the
        // release-phase prefetcher overlapped the second iteration's
        // requests with its compute. Deleting the prefetcher (a
        // region's own fault subscribes instead) loses that overlap in
        // one of the four iterations, and the ten-run minimum came
        // within 3% of 1.45, so the floor went to ~10% under it. The
        // acknowledged subscription takes that iteration back without
        // a prefetcher (1.49-1.58x before it).
        (
            "NBF overlap over demand at 32 hosts",
            ratio(s32("NBF", TTO), s32("NBF", TTD)),
            1.34,
        ),
        // ROADMAP item 8's target on the newest lane, a reading until
        // worksharing follows measured speed: static blocks wait for
        // the half-speed stragglers (2.60 at smoke scale).
        (
            "heterogeneous S(8)",
            s("Jacobi", Pool::Heterogeneous, TTO, 8),
            3.1,
        ),
    ];
    for (name, value, floor) in floors {
        let holds = value.is_some_and(|v| v >= floor);
        c.verdict(&format!("{name} >= {floor}"), holds);
    }
    // No silent waste: every pushed diff a reader applied or dropped
    // was sent first.
    for (kernel, d) in ledgers {
        c.verdict(
            &format!("{kernel} push ledger: no silent waste (hits + wasted <= sent)"),
            d.is_some_and(|d| d.push_hits + d.push_wasted <= d.push_sent),
        );
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_from_args_takes_one_claim_and_an_optional_smoke() {
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            claims_from_args(&args)
                .map(|(scale, claims)| (scale, claims.iter().map(|c| c.0).collect::<Vec<_>>()))
        };
        assert_eq!(parse(&["fig3"]), Some((Scale::Full, vec!["fig3"])));
        assert_eq!(
            parse(&["--smoke", "sec5_1"]),
            Some((Scale::Smoke, vec!["sec5_1"]))
        );
        let all = parse(&["all", "--smoke"]).unwrap();
        assert_eq!(all.0, Scale::Smoke);
        assert_eq!(all.1, CLAIMS.map(|c| c.0));
        assert_eq!(parse(&["fig3", "--smok"]), None);
        assert_eq!(parse(&["sec5_1", "fig3", "--smoke"]), None);
        assert_eq!(parse(&["--smoke"]), None);
        assert_eq!(parse(&[]), None);
        assert_eq!(parse(&["fig4"]), None);
    }

    #[test]
    fn each_kernel_speedup_divides_by_its_own_serial_run() {
        let point = |kernel, mode, secs, t1| Point {
            kernel,
            pool: Pool::Homogeneous,
            mode,
            procs: 32,
            secs,
            t1,
            dsm: DsmSnapshot::default(),
        };
        // Against Jacobi's serial run NBF would read 0.08x and 0.10x.
        let points = [
            point("Jacobi", TTD, 0.1, 0.4),
            point("NBF", TTD, 5.0, 6.0),
            point("NBF", TTO, 4.0, 6.0),
        ];
        let c = sweep_claim(["jacobi".into(), "nbf".into()], &points);
        let nbf = &c.tables[1].rows;
        assert_eq!(nbf[0][4], "1.20");
        assert_eq!(nbf[1][4], "1.50");
        assert_eq!(c.tables[0].rows[0][4], "4.00");
        let holds = |name: &str| c.verdicts.iter().find(|v| v.0 == name).map(|v| v.1);
        assert_eq!(holds("NBF overlap homogeneous S(32) >= 1.2"), Some(true));
        // 1.5 / 1.2: a ratio of one kernel's lanes, whatever its T1.
        assert_eq!(
            holds("NBF overlap over demand at 32 hosts >= 1.34"),
            Some(false)
        );
    }
}
