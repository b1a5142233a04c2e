//! The seven workloads and the loop that repeats one for a time budget.
//!
//! A workload is built once per process from the seed (that is where
//! its seeded inputs and any one-process baseline run come from), then
//! [`Workload::rep`] is called for as long as one more rep fits the
//! budget. Every rep brings a fresh system up, runs the timed section
//! (some workloads: several, back to back), checks the output and tears
//! the system down, so `setup_s` is sampled once per rep.
//!
//! `wall_s` is not a per-rep total. A rep times every step of its timed
//! section on its own ([`Parts`]), and the run's `wall_s` is the section
//! put together again from the lower quartile of each step over the
//! whole run. A 250 ms stall of the virtual clock or a burst of another
//! tenant of the host lands in single steps, where an order statistic
//! over many leaves it out, instead of in one of a handful of totals;
//! and since the host's other tenants only ever add time, the quiet
//! quarter of the samples is the nearest thing to the program's own
//! cost that a shared machine shows.

pub mod churn;
pub mod hotpath;
pub mod kernels;
pub mod task;
pub mod tenancy;

use crate::rng::Rng;
use crate::stats::Summary;
use crate::trace::Recorder;
use nowmp_core::ClusterConfig;
use nowmp_net::{CostModel, NetModel};
use nowmp_tmk::DsmConfig;
use nowmp_util::Clock;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-rep samples by metric name.
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

/// Correctness checks of one workload: attempted, failed, and what
/// failed. A failed check never aborts anything.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Checks attempted (`ops`).
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// One line per failed check.
    pub notes: Vec<String>,
}

impl Checks {
    /// Count one check; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }
}

/// Host seconds of the parts of a workload's timed section, pooled over
/// the run's reps. A part is a step (or a class of interchangeable
/// steps) with a weight: how many times the timed section contains it.
#[derive(Debug, Default, Clone)]
pub struct Parts {
    by_key: BTreeMap<(&'static str, usize), (f64, Vec<f64>)>,
}

impl Parts {
    /// One more sample of part `(class, position)`, which the timed
    /// section contains `weight` times.
    pub fn add(&mut self, class: &'static str, position: usize, weight: f64, secs: f64) {
        let part = self.by_key.entry((class, position)).or_default();
        part.0 = weight;
        part.1.push(secs);
    }

    /// The timed section's host seconds: every part at the lower
    /// quartile of its samples (nearest rank: a sample, never a value
    /// extrapolated below the fastest one), times its weight.
    pub fn total(&self) -> f64 {
        self.by_key
            .values()
            .map(|(weight, samples)| weight * crate::stats::percentile(samples, 0.25))
            .sum()
    }

    /// Samples taken, over all parts.
    pub fn samples(&self) -> usize {
        self.by_key.values().map(|(_, v)| v.len()).sum()
    }

    /// One line per class of parts: how many parts, their share of
    /// [`Parts::total`], and the samples behind it.
    pub fn describe(&self) -> String {
        let mut classes: BTreeMap<&'static str, (usize, f64, usize)> = BTreeMap::new();
        for ((class, _), (weight, samples)) in &self.by_key {
            let c = classes.entry(class).or_default();
            c.0 += 1;
            c.1 += weight * crate::stats::percentile(samples, 0.25);
            c.2 += samples.len();
        }
        classes
            .iter()
            .map(|(class, (parts, secs, n))| {
                format!("  wall_s part {class:<10} {secs:>10.6} s  ({parts} timed, {n} samples)\n")
            })
            .collect()
    }
}

/// What one rep may write to.
pub struct Run<'a> {
    /// Span recorder (disabled on untraced runs).
    pub rec: &'a mut Recorder,
    /// Correctness ledger.
    pub checks: &'a mut Checks,
    /// End-to-end samples, one per rep.
    pub e2e: &'a mut Samples,
    /// Per-layer per-run samples, one per rep.
    pub layer: &'a mut Samples,
    /// Host seconds of the timed section's parts (`wall_s`).
    pub parts: &'a mut Parts,
}

impl Run<'_> {
    /// Record an end-to-end sample.
    pub fn e2e(&mut self, name: &'static str, v: f64) {
        self.e2e.entry(name).or_default().push(v);
    }

    /// Record a per-layer sample.
    pub fn layer(&mut self, name: &'static str, v: f64) {
        self.layer.entry(name).or_default().push(v);
    }
}

/// One named workload, ready to repeat.
pub trait Workload {
    /// Run once: set up, time, check, tear down.
    fn rep(&mut self, run: &mut Run<'_>);
}

/// Build workload `name` for `seed`; `None` for an unknown name. One
/// process baselines run here and count their own checks.
pub fn build(name: &str, seed: u64, checks: &mut Checks) -> Option<Box<dyn Workload>> {
    Some(match name {
        "jacobi32_current" => Box::new(kernels::Scaling::jacobi32(seed, checks)),
        "nbf16_current" => Box::new(kernels::Scaling::nbf16(seed, checks)),
        "table1_paper1999" => Box::new(kernels::Table1::new(seed, checks)),
        "adapt_churn8" => Box::new(churn::Churn::new(seed)),
        "tenancy32_trace" => Box::new(tenancy::Tenancy::new(seed)),
        "task1024_engine" => Box::new(task::TaskScale::new(seed, checks)),
        "hotpath_real2" => Box::new(hotpath::Hotpath::new(seed)),
        _ => return None,
    })
}

/// The library as real software: `procs` processes on the real clock, no
/// wire or host model, 4 KB pages, adaptation off. Spelled out rather
/// than left to `ClusterConfig::test`'s defaults so that nothing here
/// depends on the environment.
pub fn real_cfg(procs: usize) -> ClusterConfig {
    ClusterConfig::test(procs, procs)
        .with_clock(Clock::real())
        .with_net_model(NetModel::disabled())
        .with_cost_model(CostModel::disabled())
        .with_dsm(DsmConfig::default_4k())
        .with_adaptive(false)
}

/// Seed-drawn background load of `hosts` simulated workstations, each
/// in `[0, 0.5 %]`. A NOW's machines are never exactly idle; the draw
/// also makes simulated time a function of the seed on an engine that
/// is otherwise deterministic, without changing what binds a workload.
pub fn host_loads(seed: u64, hosts: usize) -> Vec<f64> {
    let mut rng = Rng::new(seed, 0x10AD);
    (0..hosts).map(|_| rng.next_f64() * 0.005).collect()
}

/// Everything measured about one workload in one process.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Reps completed.
    pub reps: usize,
    /// Step timings behind `wall_s`, over all reps.
    pub wall_samples: usize,
    /// What `wall_s` is made of, one line per class of step.
    pub wall_parts: String,
    /// The correctness ledger.
    pub checks: Checks,
    /// End-to-end metrics: the per-rep samples.
    pub samples: Samples,
    /// Per-layer per-run metrics: median over reps.
    pub layer: BTreeMap<&'static str, f64>,
}

impl WorkloadResult {
    /// Median, quartiles and count of end-to-end metric `name` over the
    /// reps; `None` if the workload does not report it.
    pub fn summary(&self, name: &str) -> Option<Summary> {
        self.samples.get(name).map(|v| Summary::of(v))
    }
}

/// Repeat workload `name` while another rep, taking as long as the last
/// one did, would still end within `seconds` of host time, counted from
/// before the workload is built (at least once). Spans go to `rec` when
/// it is enabled.
pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    rec: &mut Recorder,
) -> Option<WorkloadResult> {
    let started = Instant::now();
    let mut checks = Checks::default();
    let mut workload = build(name, seed, &mut checks)?;
    let (mut samples, mut layer) = (Samples::new(), Samples::new());
    let mut parts = Parts::default();
    let mut reps = 0u32;
    let mut peak_rss_mb = f64::NAN;
    loop {
        let rep_started = Instant::now();
        rec.set_run(reps);
        workload.rep(&mut Run {
            rec,
            checks: &mut checks,
            e2e: &mut samples,
            layer: &mut layer,
            parts: &mut parts,
        });
        // Memory after the first rep: a fixed amount of work, however
        // many reps the machine then fits into the budget.
        if reps == 0 {
            peak_rss_mb = crate::env::peak_rss_mb();
        }
        reps += 1;
        if (started.elapsed() + rep_started.elapsed()).as_secs_f64() > seconds {
            break;
        }
    }
    drop(workload);
    samples.insert("wall_s", vec![parts.total()]);
    samples.insert("peak_rss_mb", vec![peak_rss_mb]);
    let fail_ratio = checks.failed as f64 / checks.attempted.max(1) as f64;
    samples.insert("fail_ratio", vec![fail_ratio]);
    Some(WorkloadResult {
        name: name.to_owned(),
        reps: reps as usize,
        wall_samples: parts.samples(),
        wall_parts: parts.describe(),
        checks,
        samples,
        layer: layer
            .iter()
            .map(|(k, v)| (*k, crate::stats::median(v)))
            .collect(),
    })
}
