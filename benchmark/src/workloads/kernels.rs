//! Thread-engine kernel runs on the virtual clock: the shared runner,
//! the two current-generation scaling workloads and the Table 1
//! reproduction.

use super::{host_loads, Checks, Run, Workload};
use crate::stats::median;
use crate::trace::{Recorder, SpanId};
use nowmp_apps::{build_program, jacobi::Jacobi, nbf::Nbf, with_kernel_costs, Kernel};
use nowmp_core::{ClusterConfig, EventKind, LogEntry};
use nowmp_net::{CostModel, NetModel, StatsSnapshot};
use nowmp_omp::OmpSystem;
use nowmp_tmk::{CollectiveConfig, DataPlaneConfig, DsmConfig, DsmSnapshot};
use nowmp_util::Clock;
use std::collections::BTreeMap;
use std::time::Instant;

/// Which protocol generation a simulated run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Generation {
    /// `DsmConfig::default_4k()` as shipped: tree fork/reduce/release,
    /// overlapped data plane, run-length notice encoding.
    Current,
    /// The faithful 1999 system: flat collectives, demand paging.
    Paper1999,
}

/// The simulated-cluster configuration every virtual-clock workload
/// starts from: fresh virtual clock, the paper's wire and host models,
/// `kernel`'s calibrated compute costs, seed-drawn background load.
pub fn sim_cfg(
    kernel: &dyn Kernel,
    hosts: usize,
    procs: usize,
    generation: Generation,
    loads: &[f64],
) -> ClusterConfig {
    let mut cost = with_kernel_costs(CostModel::paper_1999(), kernel);
    cost.host_loads = loads[..hosts.min(loads.len())].to_vec();
    let cfg = ClusterConfig::test(hosts, procs)
        .with_clock(Clock::new_virtual())
        .with_net_model(NetModel::paper_1999())
        .with_cost_model(cost)
        .with_dsm(DsmConfig::default_4k());
    match generation {
        Generation::Current => cfg,
        Generation::Paper1999 => cfg
            .with_collectives(CollectiveConfig::all_flat())
            .with_dataplane(DataPlaneConfig::demand()),
    }
}

/// Everything one kernel run measured.
pub struct KernelRun {
    /// `OmpSystem::new`, host seconds.
    pub new_wall: f64,
    /// `Kernel::setup`, host seconds.
    pub setup_wall: f64,
    /// `Kernel::setup`, simulated seconds.
    pub setup_sim: f64,
    /// Iterations in one timed section; the loop ran a whole number of
    /// such blocks back to back.
    pub iters: usize,
    /// The whole timed loop (every block), host seconds.
    pub wall: f64,
    /// `Kernel::verify`, host seconds.
    pub verify_wall: f64,
    /// `OmpSystem::shutdown`, host seconds.
    pub shutdown_wall: f64,
    /// Max-abs error against the serial reference.
    pub err: f64,
    /// DSM counters over the timed loop.
    pub dsm: DsmSnapshot,
    /// Network counters over the timed loop.
    pub net: StatsSnapshot,
    /// The event log at the end of the loop.
    pub log: Vec<LogEntry>,
    /// Timing of every step of the loop, in order.
    pub steps: Vec<StepTiming>,
}

/// One `Kernel::step` call on both clocks.
#[derive(Debug, Clone, Copy)]
pub struct StepTiming {
    /// Host seconds the `before_step` hook took ahead of the call.
    pub hook_wall: f64,
    /// Host seconds the call took.
    pub wall: f64,
    /// Simulated start and end, seconds since the run began.
    pub sim: (f64, f64),
    span: SpanId,
}

impl KernelRun {
    /// `setup_s` of this run: system construction plus kernel set-up.
    pub fn setup_s(&self) -> f64 {
        self.new_wall + self.setup_wall
    }

    /// Blocks the loop ran.
    pub fn blocks(&self) -> usize {
        self.steps.len() / self.iters
    }

    /// Simulated seconds of each block, first step's start to last
    /// step's end (what a `before_step` hook spends in between counts).
    pub fn block_sims(&self) -> Vec<f64> {
        self.steps
            .chunks(self.iters)
            .map(|b| b[b.len() - 1].sim.1 - b[0].sim.0)
            .collect()
    }
}

/// What the iteration hook may do before a step: drive the system and
/// record its own spans (`sim_now` gives the simulated time for them).
pub struct StepHook<'a> {
    /// The live system.
    pub sys: &'a mut OmpSystem,
    /// The recorder.
    pub rec: &'a mut Recorder,
    /// Simulated seconds since the run began.
    pub sim_now: &'a dyn Fn() -> f64,
}

/// Run `kernel` for `blocks` timed sections of `iters` iterations each,
/// back to back, on a fresh system built from `cfg` (whose clock must be
/// this run's own), with one span per call into a layer. More blocks
/// buy more step timings per bring-up; the first one starts cold.
/// `before_step(hook, iter)` runs ahead of every step.
pub fn kernel_run(
    rec: &mut Recorder,
    label: &str,
    kernel: &dyn Kernel,
    cfg: ClusterConfig,
    (iters, blocks): (usize, usize),
    mut before_step: impl FnMut(StepHook<'_>, usize),
) -> KernelRun {
    let clock = cfg.clock.clone();
    let origin = clock.now();
    let sim_now = move || clock.elapsed_since(origin).as_secs_f64();
    let root = rec.begin(label, "bench", 0.0);

    let t = Instant::now();
    let s = rec.begin("OmpSystem::new", "core", sim_now());
    let mut sys = OmpSystem::new(cfg, build_program(&[kernel]));
    rec.end(s, sim_now());
    let new_wall = t.elapsed().as_secs_f64();

    let (t, sim0) = (Instant::now(), sim_now());
    let s = rec.begin("Kernel::setup", "apps", sim0);
    kernel.setup(&mut sys);
    rec.end(s, sim_now());
    let (setup_wall, setup_sim) = (t.elapsed().as_secs_f64(), sim_now() - sim0);

    let (dsm0, net0) = (sys.dsm_stats(), sys.net_stats());
    let t = Instant::now();
    let total = iters * blocks;
    let mut steps = Vec::with_capacity(total);
    for it in 0..total {
        let hook_t = Instant::now();
        before_step(
            StepHook {
                sys: &mut sys,
                rec,
                sim_now: &sim_now,
            },
            it,
        );
        let hook_wall = hook_t.elapsed().as_secs_f64();
        // Counter deltas at the span's own boundaries, traced runs only.
        let before = rec.enabled().then(|| (sys.dsm_stats(), sys.net_stats()));
        let (t, sim0) = (Instant::now(), sim_now());
        let span = rec.begin("Kernel::step", "apps", sim0);
        kernel.step(&mut sys, it);
        let sim1 = sim_now();
        rec.end(span, sim1);
        if let Some((dsm0, net0)) = before {
            let (dsm, net) = (sys.dsm_stats().since(&dsm0), sys.net_stats().since(&net0));
            span_counters(rec, span, &dsm, &net);
        }
        steps.push(StepTiming {
            hook_wall,
            wall: t.elapsed().as_secs_f64(),
            sim: (sim0, sim1),
            span,
        });
    }
    let wall = t.elapsed().as_secs_f64();
    let dsm = sys.dsm_stats().since(&dsm0);
    let net = sys.net_stats().since(&net0);
    let log = sys.log().entries();
    synth_adaptations(rec, &steps, &log);

    let t = Instant::now();
    let s = rec.begin("Kernel::verify", "apps", sim_now());
    let err = kernel.verify(&mut sys, total);
    rec.end(s, sim_now());
    let verify_wall = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let s = rec.begin("OmpSystem::shutdown", "core", sim_now());
    let end_sim = sim_now();
    sys.shutdown();
    rec.end(s, end_sim);
    let shutdown_wall = t.elapsed().as_secs_f64();

    rec.end(root, end_sim);
    span_counters(rec, root, &dsm, &net);
    KernelRun {
        new_wall,
        setup_wall,
        setup_sim,
        iters,
        wall,
        verify_wall,
        shutdown_wall,
        err,
        dsm,
        net,
        log,
        steps,
    }
}

/// Attach the traffic a span caused to it.
fn span_counters(rec: &mut Recorder, span: SpanId, dsm: &DsmSnapshot, net: &StatsSnapshot) {
    rec.counter(span, "net.msgs", net.total_msgs as f64);
    rec.counter(span, "net.bytes", net.total_bytes as f64);
    rec.counter(span, "tmk.pages_fetched", dsm.pages_fetched as f64);
    rec.counter(span, "tmk.diffs_fetched", dsm.diffs_fetched as f64);
    rec.counter(span, "tmk.read_faults", dsm.read_faults as f64);
}

/// Child spans for what the control plane did inside the steps, built
/// from the event log's own (simulated) timestamps.
fn synth_adaptations(rec: &mut Recorder, steps: &[StepTiming], log: &[LogEntry]) {
    if !rec.enabled() {
        return;
    }
    for e in log {
        let (name, layer, took) = match &e.kind {
            EventKind::Adaptation { took, .. } => ("Cluster::adaptation_point", "core", *took),
            EventKind::Checkpoint { took, .. } => ("Cluster::checkpoint", "ckpt", *took),
            _ => continue,
        };
        let end = e.at.as_secs_f64();
        let start = end - took.as_secs_f64();
        // The step whose fork hit this adaptation point: the first one
        // that ends at or after the event.
        if let Some(owner) = steps.iter().find(|s| s.sim.1 >= end) {
            rec.synth(owner.span, name, layer, (start, end), 0);
        }
    }
}

/// The per-layer per-run metrics every kernel run yields. The counters
/// are per timed section: the loop's totals over its blocks.
pub fn layer_values(k: &KernelRun) -> Vec<(&'static str, f64)> {
    let mut v = vec![
        ("core.system_new_wall_s", k.new_wall),
        ("core.shutdown_wall_s", k.shutdown_wall),
        ("apps.kernel_setup_wall_s", k.setup_wall),
        ("apps.kernel_setup_sim_s", k.setup_sim),
        ("apps.verify_wall_s", k.verify_wall),
    ];
    v.extend(traffic_values(&k.dsm, &k.net, k.wall, k.blocks()));
    v
}

/// The `net.*` / `tmk.*` counter metrics of a timed loop of `sections`
/// timed sections that took `wall` host seconds in all: counts per
/// section, ratios over the loop.
pub fn traffic_values(
    dsm: &DsmSnapshot,
    net: &StatsSnapshot,
    wall: f64,
    sections: usize,
) -> Vec<(&'static str, f64)> {
    let per_section = |count: u64| count as f64 / sections as f64;
    let relays = dsm.bcast_relays + dsm.reduce_relays + dsm.release_relays;
    vec![
        ("net.msgs", per_section(net.total_msgs)),
        ("net.bytes", per_section(net.total_bytes)),
        ("net.max_link_bytes", per_section(net.max_link_bytes())),
        (
            "net.host_us_per_msg",
            wall * 1e6 / net.total_msgs.max(1) as f64,
        ),
        ("tmk.pages_fetched", per_section(dsm.pages_fetched)),
        ("tmk.diffs_fetched", per_section(dsm.diffs_fetched)),
        ("tmk.diff_words", per_section(dsm.diff_words)),
        ("tmk.read_faults", per_section(dsm.read_faults)),
        ("tmk.write_faults", per_section(dsm.write_faults)),
        (
            "tmk.prefetch_hit_ratio",
            dsm.prefetch_hits as f64 / dsm.prefetch_issued.max(1) as f64,
        ),
        ("tmk.prefetch_wasted", per_section(dsm.prefetch_wasted)),
        ("tmk.piggyback_bytes", per_section(dsm.piggyback_bytes)),
        ("tmk.relays", per_section(relays)),
        ("tmk.gcs", per_section(dsm.gcs)),
        ("tmk.gc_fetch_pages", per_section(dsm.gc_fetch_pages)),
        ("tmk.leave_pages_moved", per_section(dsm.leave_pages_moved)),
    ]
}

/// The checks every kernel run owes: exact result, sane prefetch ledger.
pub fn check_kernel(checks: &mut Checks, label: &str, k: &KernelRun) {
    checks.check(k.err == 0.0, || {
        format!("{label}: verify() = {} (want exactly 0)", k.err)
    });
    checks.check(k.dsm.prefetch_wasted <= k.dsm.prefetch_issued, || {
        format!(
            "{label}: prefetch_wasted {} > prefetch_issued {}",
            k.dsm.prefetch_wasted, k.dsm.prefetch_issued
        )
    });
}

/// One process, same input, same models, the same blocks: the
/// simulated seconds of each, for the `sim_speedup` baseline.
fn serial_block_sims(
    kernel: &dyn Kernel,
    shape: (usize, usize),
    generation: Generation,
    loads: &[f64],
) -> Vec<f64> {
    let mut off = Recorder::new(false);
    let cfg = sim_cfg(kernel, 1, 1, generation, loads).with_adaptive(false);
    kernel_run(&mut off, "serial", kernel, cfg, shape, |_, _| {}).block_sims()
}

/// Hand every step of `k`'s loop to `wall_s` as one more sample of an
/// iteration of `class`, which the timed section holds `k.iters` of.
pub fn pool_steps(run: &mut Run<'_>, class: &'static str, k: &KernelRun) {
    for step in &k.steps {
        run.parts.add(class, 0, k.iters as f64, step.wall);
    }
}

// ------------------------------------------------------------ 1 and 2

/// A current-generation, adaptive-off scaling run: `jacobi32_current`
/// and `nbf16_current`.
pub struct Scaling {
    label: &'static str,
    kernel: Box<dyn Kernel>,
    hosts: usize,
    /// Iterations of the timed section, and how many sections a system
    /// runs back to back once it is up.
    shape: (usize, usize),
    loads: Vec<f64>,
    serial_sim: f64,
}

impl Scaling {
    fn new(
        label: &'static str,
        kernel: Box<dyn Kernel>,
        hosts: usize,
        shape: (usize, usize),
        seed: u64,
        checks: &mut Checks,
    ) -> Scaling {
        let loads = host_loads(seed, hosts);
        let serial_sim = median(&serial_block_sims(
            kernel.as_ref(),
            shape,
            Generation::Current,
            &loads,
        ));
        checks.check(serial_sim > 0.0, || {
            format!("{label}: one-process run took no simulated time")
        });
        Scaling {
            label,
            kernel,
            hosts,
            shape,
            loads,
            serial_sim,
        }
    }

    /// Jacobi 384², 8 iterations, 32 hosts; 2 sections per system.
    pub fn jacobi32(seed: u64, checks: &mut Checks) -> Scaling {
        Scaling::new(
            "jacobi32_current",
            Box::new(Jacobi::new(384)),
            32,
            (8, 2),
            seed,
            checks,
        )
    }

    /// NBF 2048 atoms × 16 partners, 4 iterations, 16 hosts; 1 section
    /// per system.
    pub fn nbf16(seed: u64, checks: &mut Checks) -> Scaling {
        Scaling::new(
            "nbf16_current",
            Box::new(Nbf::new(2048, 16)),
            16,
            (4, 1),
            seed,
            checks,
        )
    }
}

impl Workload for Scaling {
    fn rep(&mut self, run: &mut Run<'_>) {
        let cfg = sim_cfg(
            self.kernel.as_ref(),
            self.hosts,
            self.hosts,
            Generation::Current,
            &self.loads,
        )
        .with_adaptive(false);
        let k = kernel_run(
            run.rec,
            self.label,
            self.kernel.as_ref(),
            cfg,
            self.shape,
            |_, _| {},
        );
        check_kernel(run.checks, self.label, &k);
        run.e2e("setup_s", k.setup_s());
        pool_steps(run, self.kernel.name(), &k);
        for sim in k.block_sims() {
            run.e2e("sim_s", sim);
            run.e2e("sim_speedup", self.serial_sim / sim);
        }
        for (name, v) in layer_values(&k) {
            run.layer(name, v);
        }
    }
}

// ------------------------------------------------------------------ 3

/// Speedup targets at 8 processes pinned by
/// `crates/bench/tests/table1_virtual.rs` (Jacobi, NBF).
pub const TABLE1_TARGETS: [f64; 2] = [5.2, 4.5];

/// Timed sections a Table 1 system runs once it is up: bring-up costs
/// 12 s of host time, so it has to yield more than one.
const TABLE1_BLOCKS: usize = 4;

/// Memory handed through [`crate::env::prefault`] ahead of every Table 1
/// step: more than the 33 MB a Jacobi 1536² step adds to the process.
const TABLE1_PREFAULT: usize = 48 << 20;

/// `table1_paper1999`: both Table 1 kernels at 1 and 8 processes on the
/// faithful 1999 generation, adaptive on, at the pinned sizes.
pub struct Table1 {
    kernels: [(Box<dyn Kernel>, usize); 2],
    loads: Vec<f64>,
    /// Simulated seconds of the one-process runs' first sections.
    serial_cold_sim: [f64; 2],
}

impl Table1 {
    /// Build it; the two one-process runs happen here.
    pub fn new(seed: u64, checks: &mut Checks) -> Table1 {
        let kernels: [(Box<dyn Kernel>, usize); 2] = [
            (Box::new(Jacobi::new(1536)), 4),
            (Box::new(Nbf::new(4096, 64)), 2),
        ];
        let loads = host_loads(seed, 8);
        let serial_cold_sim = [0, 1].map(|i| {
            let (k, iters) = &kernels[i];
            serial_block_sims(k.as_ref(), (*iters, 1), Generation::Paper1999, &loads)[0]
        });
        checks.check(serial_cold_sim.iter().all(|&s| s > 0.0), || {
            "table1: a one-process run took no simulated time".to_owned()
        });
        Table1 {
            kernels,
            loads,
            serial_cold_sim,
        }
    }
}

impl Workload for Table1 {
    fn rep(&mut self, run: &mut Run<'_>) {
        let (mut setup, mut wall, mut err_pct) = (0.0, 0.0, 0.0f64);
        let mut sims = [0.0; TABLE1_BLOCKS];
        // Per-layer values of the two kernels add up.
        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (i, (kernel, iters)) in self.kernels.iter().enumerate() {
            let label = format!("table1:{}@8", kernel.name());
            let cfg = sim_cfg(kernel.as_ref(), 8, 8, Generation::Paper1999, &self.loads)
                .with_adaptive(true);
            let shape = (*iters, TABLE1_BLOCKS);
            let k = kernel_run(run.rec, &label, kernel.as_ref(), cfg, shape, |hook, _| {
                let s = hook.rec.begin("env::prefault", "bench", (hook.sim_now)());
                crate::env::prefault(TABLE1_PREFAULT);
                hook.rec.end(s, (hook.sim_now)());
            });
            check_kernel(run.checks, &label, &k);
            setup += k.setup_s();
            wall += k.wall;
            pool_steps(run, kernel.name(), &k);
            let block_sims = k.block_sims();
            for (sum, sim) in sims.iter_mut().zip(&block_sims) {
                *sum += sim;
            }
            // The pinned targets are for the first section after set-up,
            // cold faults and all, on both sides of the ratio.
            let speedup = self.serial_cold_sim[i] / block_sims[0];
            err_pct = err_pct.max(100.0 * (speedup - TABLE1_TARGETS[i]).abs() / TABLE1_TARGETS[i]);
            for (name, v) in layer_values(&k) {
                *layers.entry(name).or_default() += v;
            }
        }
        // Two derived values do not add: recompute them from the sums.
        layers.insert(
            "net.host_us_per_msg",
            wall * 1e6 / (layers["net.msgs"] * TABLE1_BLOCKS as f64).max(1.0),
        );
        *layers.get_mut("tmk.prefetch_hit_ratio").expect("recorded") /= self.kernels.len() as f64;
        for (name, v) in layers {
            run.layer(name, v);
        }
        run.e2e("setup_s", setup);
        for sim in sims {
            run.e2e("sim_s", sim);
        }
        run.e2e("table1_err_pct", err_pct);
    }
}
