//! `tenancy32_trace`: a seeded job trace replayed through the cluster
//! scheduler on a 32-host pool, open loop in simulated time.

use super::{host_loads, Run, Workload};
use crate::rng::Rng;
use crate::stats::{mean, median, percentile};
use nowmp_core::ClusterConfig;
use nowmp_net::CostModel;
use nowmp_omp::jobs::Scheduler;
use nowmp_omp::{JobSpec, OmpProgram, TenancyReport};
use std::time::{Duration, Instant};

/// Pool size.
pub const HOSTS: usize = 32;
/// Jobs in the trace.
pub const JOBS: usize = 24;
/// Mean arrival rate, jobs per simulated second, before the day curve:
/// the whole trace arrives inside `JOBS / BASE_RATE` = one day.
const BASE_RATE: f64 = 12.0;
/// Period of the diurnal curve, simulated seconds.
const DAY: f64 = JOBS as f64 / BASE_RATE;
/// Bounded-Pareto step counts: floor, tail index, cap.
const STEPS: (f64, f64, f64) = (1.0, 1.5, 3.0);
/// One job in five is interactive: rigid, priority 5.
const INTERACTIVE: usize = JOBS / 5 + 1;
/// Worksharing iterations per step and per process of a job's widest
/// team, and their modelled cost: a step costs `ITERS_PER_PROC *
/// PER_ITER` of simulated time at full width and proportionally more on
/// a squeezed team. Host time goes with the number of steps, not their
/// simulated length, so the steps are few and long: the pool saturates
/// and preempts inside a trace the simulator can replay in seconds.
const ITERS_PER_PROC: u64 = 4;
const PER_ITER: Duration = Duration::from_millis(200);
/// Fluid backbone-contention factor.
const CONTENTION: f64 = 0.02;

/// One job of the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceJob {
    /// Arrival, simulated seconds.
    pub arrival: f64,
    /// Steps to run.
    pub steps: u64,
    /// Smallest admissible team.
    pub min_procs: usize,
    /// Largest grantable team.
    pub max_procs: usize,
    /// Scheduling priority.
    pub priority: u8,
}

/// Expected arrivals by trace time `t`: the integral of the diurnal
/// rate `BASE_RATE * (1 + 0.75 sin(2 pi t / DAY))`, which swings
/// between 0.25x and 1.75x the base rate.
fn expected_arrivals(t: f64) -> f64 {
    let w = std::f64::consts::TAU / DAY;
    BASE_RATE * (t + 0.75 / w * (1.0 - (w * t).cos()))
}

/// The time by which `n` arrivals are expected (bisection; the
/// cumulative rate is strictly increasing).
fn arrival_time(n: f64) -> f64 {
    let (mut lo, mut hi) = (0.0, 2.0 * DAY);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if expected_arrivals(mid) < n {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Stream that fixes the trace's shape: which job gets which size,
/// width and tier. Frozen with the workload's sizes. Over freshly drawn
/// shapes the makespan of 24 jobs spreads by 15 % and the host time of
/// the replay by 30 %, which would bury any regression the bounds are
/// meant to catch — so the run seed perturbs one shape instead.
const SHAPE_SEED: u64 = 4;
/// Share of its arrival slice a job's arrival moves with the run seed.
const ARRIVAL_JITTER: f64 = 0.02;

/// Draw the trace for `seed`. The distributions are `whatif_tenancy`'s
/// — Poisson arrivals under a diurnal curve, bounded-Pareto step counts,
/// a rigid priority-5 tier over an elastic priority-1 tier — sampled by
/// stratum: one arrival in each equal-mass slice of the day, one step
/// count at each of `JOBS` evenly spaced quantiles, exactly `INTERACTIVE`
/// interactive jobs, paired by [`SHAPE_SEED`]. The run seed moves every
/// arrival a little inside its slice (and, in [`Tenancy::new`], draws
/// the hosts' background load).
pub fn draw_trace(seed: u64) -> Vec<TraceJob> {
    let mut shape = Rng::new(SHAPE_SEED, 0x7E4A);
    let mut jitter = Rng::new(seed, 0x7E4B);
    let (floor, alpha, cap) = STEPS;
    let mut steps: Vec<u64> = (0..JOBS)
        .map(|i| {
            let q = (i as f64 + 0.5) / JOBS as f64;
            (floor / (1.0 - q).powf(1.0 / alpha)).min(cap) as u64
        })
        .collect();
    shape.shuffle(&mut steps);
    // (min, max, priority): interactive teams of 1 or 2; batch teams
    // that want 2, 4 or 8 hosts and start on half (a step on a team
    // squeezed further would outlast the rest of the trace, and the
    // makespan would measure that one straggler).
    let mut shapes: Vec<(usize, usize, u8)> = (0..JOBS)
        .map(|i| {
            if i < INTERACTIVE {
                (1 + i % 2, 1 + i % 2, 5)
            } else {
                (1 << (i % 3), 2 << (i % 3), 1)
            }
        })
        .collect();
    shape.shuffle(&mut shapes);
    steps
        .into_iter()
        .zip(shapes)
        .enumerate()
        .map(|(i, (steps, (min_procs, max_procs, priority)))| {
            let slice = shape.next_f64() + ARRIVAL_JITTER * (jitter.next_f64() - 0.5);
            TraceJob {
                arrival: arrival_time(i as f64 + slice.clamp(0.0, 1.0)),
                steps,
                min_procs,
                max_procs,
                priority,
            }
        })
        .collect()
}

/// The tenant program: one "work" region per step whose modelled cost
/// fills the simulated timeline while the array stays tiny.
fn work_program() -> OmpProgram {
    OmpProgram::new().region("work", |ctx| {
        let data = ctx.f64vec("data");
        let n = data.len();
        ctx.for_static(0..n as u64, |c, i| {
            data.set(c.dsm(), i as usize, i as f64);
        });
    })
}

/// Times set-up is timed per rep. It is 50 µs of host time here, so one
/// timing says little; a rep's `setup_s` sample is the lower quartile of
/// this many (the quiet quarter, as for `wall_s`).
const SETUP_SAMPLES: usize = 200;

fn spec_for(idx: usize, j: &TraceJob) -> JobSpec {
    let tier = if j.priority > 1 { "int" } else { "batch" };
    let iters = ITERS_PER_PROC * j.max_procs as u64;
    JobSpec::new(format!("{tier}{idx}"), work_program())
        .with_procs(j.min_procs, j.max_procs)
        .with_priority(j.priority)
        .arriving_at(Duration::from_secs_f64(j.arrival))
        .with_setup(move |sys| sys.alloc_f64("data", iters))
        .with_steps(j.steps, |sys, _| sys.parallel("work", &[]))
}

/// `tenancy32_trace`.
pub struct Tenancy {
    seed: u64,
    loads: Vec<f64>,
    /// `(makespan, util, mean wait, p50 turnaround)` of the first rep:
    /// the scheduler's timeline is deterministic, so later reps must
    /// reproduce it bit for bit.
    first: Option<[f64; 4]>,
}

impl Tenancy {
    /// The workload for `seed`.
    pub fn new(seed: u64) -> Tenancy {
        Tenancy {
            seed,
            loads: host_loads(seed, HOSTS),
            first: None,
        }
    }

    /// Draw the trace, build the scheduler, submit every job.
    fn set_up(&self) -> (Scheduler, Vec<TraceJob>) {
        let trace = draw_trace(self.seed);
        let mut cost = CostModel::disabled().with_region_cost("work", PER_ITER);
        cost.host_loads = self.loads.clone();
        let base = ClusterConfig::test(HOSTS, 1).with_cost_model(cost);
        let mut sched = Scheduler::new(base).with_net_contention(CONTENTION);
        for (i, j) in trace.iter().enumerate() {
            sched.submit(spec_for(i, j));
        }
        (sched, trace)
    }
}

impl Workload for Tenancy {
    fn rep(&mut self, run: &mut Run<'_>) {
        // Set-up is the trace, the scheduler and the 24 submits; every
        // tenant's own cluster comes up inside `run`, on the replay's
        // account. The last of the schedulers built is the one replayed.
        let mut setups = Vec::with_capacity(SETUP_SAMPLES);
        for _ in 1..SETUP_SAMPLES {
            let t = Instant::now();
            drop(self.set_up());
            setups.push(t.elapsed().as_secs_f64());
        }
        let root = run.rec.begin("tenancy32_trace", "bench", 0.0);
        let t = Instant::now();
        let s = run.rec.begin("Scheduler::submit", "omp", 0.0);
        let (mut sched, trace) = self.set_up();
        run.rec.end(s, 0.0);
        setups.push(t.elapsed().as_secs_f64());
        run.e2e("setup_s", percentile(&setups, 0.25));

        let t = Instant::now();
        let s = run.rec.begin("Scheduler::run", "omp", 0.0);
        let report = sched.run();
        let makespan = report.makespan.as_secs_f64();
        run.rec.end(s, makespan);
        let wall = t.elapsed().as_secs_f64();
        synth_jobs(run, s, &report);
        run.rec.end(root, makespan);

        let waits: Vec<f64> = report.jobs.iter().map(|j| j.wait.as_secs_f64()).collect();
        let turnarounds: Vec<f64> = report
            .jobs
            .iter()
            .map(|j| j.turnaround.as_secs_f64())
            .collect();
        let preemptions: u64 = report.jobs.iter().map(|j| j.preemptions).sum();
        let sim = [
            makespan,
            report.utilization,
            mean(&waits),
            median(&turnarounds),
        ];

        run.checks.check(report.jobs.len() == JOBS, || {
            format!("tenancy: {} of {JOBS} jobs finished", report.jobs.len())
        });
        run.checks.check(preemptions >= 1, || {
            "tenancy: the trace never exercised preemption".to_owned()
        });
        run.checks.check(report.max_concurrency >= 8, || {
            format!("tenancy: peak tenancy {} < 8", report.max_concurrency)
        });
        let first = *self.first.get_or_insert(sim);
        run.checks
            .check(first.map(f64::to_bits) == sim.map(f64::to_bits), || {
                format!("tenancy: rep gave {sim:?}, first rep gave {first:?}")
            });

        run.parts.add("replay", 0, 1.0, wall);
        run.e2e("sim_s", sim[0]);
        run.e2e("util", sim[1]);
        run.e2e("wait_mean_sim_s", sim[2]);
        run.e2e("turnaround_p50_sim_s", sim[3]);

        let steps: u64 = trace.iter().map(|j| j.steps).sum();
        run.layer("omp.jobs_wall_ms_per_step", wall * 1e3 / steps as f64);
        run.layer("omp.jobs_preemptions", preemptions as f64);
        run.layer("omp.jobs_peak_tenancy", report.max_concurrency as f64);
        let msgs: u64 = report.jobs.iter().map(|j| j.traffic.msgs).sum();
        let bytes: u64 = report.jobs.iter().map(|j| j.traffic.bytes).sum();
        run.layer("net.msgs", msgs as f64);
        run.layer("net.bytes", bytes as f64);
        run.layer("net.host_us_per_msg", wall * 1e6 / msgs.max(1) as f64);
    }
}

/// One span per job on its own track, from the report's timestamps.
fn synth_jobs(run: &mut Run<'_>, parent: crate::trace::SpanId, report: &TenancyReport) {
    for (i, j) in report.jobs.iter().enumerate() {
        let arrival = j.params.arrival.as_secs_f64();
        let start = arrival + j.wait.as_secs_f64();
        let end = arrival + j.turnaround.as_secs_f64();
        let id = run
            .rec
            .synth(parent, &j.name, "omp", (start, end), i as u32 + 1);
        run.rec.counter(id, "wait_sim_s", j.wait.as_secs_f64());
        run.rec.counter(id, "preemptions", j.preemptions as f64);
    }
}
