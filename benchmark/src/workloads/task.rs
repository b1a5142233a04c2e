//! `task1024_engine`: both task-engine kernels on 1024 simulated hosts,
//! stepped by the event-driven engine on a pool as wide as the machine.

use super::{host_loads, Checks, Run, Workload};
use crate::trace::Recorder;
use nowmp_apps::tasks::{TaskJacobi, TaskNbf};
use nowmp_apps::{jacobi::Jacobi, nbf::Nbf, with_kernel_costs, Kernel};
use nowmp_core::{ClusterConfig, TaskApp, TaskSystem};
use nowmp_net::{CostModel, NetModel};
use nowmp_tmk::DsmConfig;
use nowmp_util::Clock;
use std::time::Instant;

const HOSTS: usize = 1024;
const JACOBI_N: usize = 1026;
const JACOBI_ITERS: usize = 8;
const NBF_ATOMS: usize = 2048;
const NBF_PARTNERS: usize = 16;
const NBF_ITERS: usize = 8;

/// One engine run on both clocks.
struct EngineRun {
    setup_wall: f64,
    /// Host seconds of each step, in order.
    step_walls: Vec<f64>,
    sim: f64,
    err: f64,
    forks: u64,
    peak_workers: usize,
    pool: usize,
}

fn sim_secs(sys: &TaskSystem) -> f64 {
    sys.now().as_nanos() as f64 / 1e9
}

/// Bring the engine up on `hosts` hosts, set `app` up, run `iters`
/// steps, verify. `profile` is the thread-engine twin of `app`, whose
/// calibrated region costs the engine charges under the same names.
fn engine_run(
    rec: &mut Recorder,
    label: &str,
    app: &dyn TaskApp,
    profile: &dyn Kernel,
    hosts: usize,
    iters: usize,
    loads: &[f64],
) -> EngineRun {
    let mut cost = with_kernel_costs(CostModel::paper_1999(), profile);
    cost.host_loads = loads[..hosts].to_vec();
    let cfg = ClusterConfig::test(hosts, hosts)
        .with_clock(Clock::new_virtual())
        .with_net_model(NetModel::paper_1999())
        .with_cost_model(cost)
        .with_dsm(DsmConfig::default_4k())
        .with_adaptive(false);
    let root = rec.begin(label, "bench", 0.0);

    let t = Instant::now();
    let s = rec.begin("TaskSystem::new", "core", 0.0);
    let mut sys = TaskSystem::new(cfg);
    rec.end(s, sim_secs(&sys));
    let s = rec.begin("TaskApp::setup", "apps", sim_secs(&sys));
    app.setup(&mut sys);
    rec.end(s, sim_secs(&sys));
    let setup_wall = t.elapsed().as_secs_f64();

    let (sim0, forks0) = (sim_secs(&sys), sys.fork_no());
    let mut step_walls = Vec::with_capacity(iters);
    for it in 0..iters {
        let t = Instant::now();
        let s = rec.begin("TaskApp::step", "apps", sim_secs(&sys));
        app.step(&mut sys, it);
        rec.end(s, sim_secs(&sys));
        step_walls.push(t.elapsed().as_secs_f64());
    }
    let sim = sim_secs(&sys) - sim0;
    let forks = sys.fork_no() - forks0;

    let s = rec.begin("TaskApp::verify", "apps", sim_secs(&sys));
    let err = app.verify(&sys, iters);
    rec.end(s, sim_secs(&sys));
    rec.end(root, sim_secs(&sys));
    EngineRun {
        setup_wall,
        step_walls,
        sim,
        err,
        forks,
        peak_workers: sys.peak_workers(),
        pool: sys.pool(),
    }
}

/// One kernel of the workload: the task-engine app, its thread-engine
/// twin (for the calibrated region costs) and its iteration count.
struct Case {
    app: Box<dyn TaskApp>,
    profile: Box<dyn Kernel>,
    iters: usize,
}

/// `task1024_engine`.
pub struct TaskScale {
    cases: [Case; 2],
    loads: Vec<f64>,
    serial_sim: f64,
    /// Simulated seconds of the first rep; the engine is deterministic,
    /// so later reps must match it bit for bit.
    first_sim: Option<f64>,
}

impl TaskScale {
    /// Build it; the two one-host baseline runs happen here.
    pub fn new(seed: u64, checks: &mut Checks) -> TaskScale {
        let cases = [
            Case {
                app: Box::new(TaskJacobi::new(JACOBI_N)),
                profile: Box::new(Jacobi::new(JACOBI_N)),
                iters: JACOBI_ITERS,
            },
            Case {
                app: Box::new(TaskNbf::new(NBF_ATOMS, NBF_PARTNERS)),
                profile: Box::new(Nbf::new(NBF_ATOMS, NBF_PARTNERS)),
                iters: NBF_ITERS,
            },
        ];
        let loads = host_loads(seed, HOSTS);
        let mut off = Recorder::new(false);
        let serial_sim = cases
            .iter()
            .map(|c| {
                let r = engine_run(
                    &mut off,
                    "serial",
                    c.app.as_ref(),
                    c.profile.as_ref(),
                    1,
                    c.iters,
                    &loads,
                );
                checks.check(r.err == 0.0, || {
                    format!("task {} on 1 host: verify() = {}", c.app.name(), r.err)
                });
                r.sim
            })
            .sum();
        TaskScale {
            cases,
            loads,
            serial_sim,
            first_sim: None,
        }
    }
}

impl Workload for TaskScale {
    fn rep(&mut self, run: &mut Run<'_>) {
        let (mut setup, mut wall, mut sim, mut forks, mut peak) = (0.0, 0.0, 0.0, 0, 0);
        for c in &self.cases {
            let label = format!("task1024:{}", c.app.name());
            let r = engine_run(
                run.rec,
                &label,
                c.app.as_ref(),
                c.profile.as_ref(),
                HOSTS,
                c.iters,
                &self.loads,
            );
            run.checks.check(r.err == 0.0, || {
                format!("{label}: verify() = {} (want exactly 0)", r.err)
            });
            run.checks.check(r.peak_workers <= r.pool, || {
                format!(
                    "{label}: {} workers on a pool of {}",
                    r.peak_workers, r.pool
                )
            });
            setup += r.setup_wall;
            wall += r.step_walls.iter().sum::<f64>();
            for &secs in &r.step_walls {
                run.parts.add(c.app.name(), 0, c.iters as f64, secs);
            }
            sim += r.sim;
            forks += r.forks;
            peak = peak.max(r.peak_workers);
        }
        let first = *self.first_sim.get_or_insert(sim);
        run.checks.check(first.to_bits() == sim.to_bits(), || {
            format!("task1024: rep simulated {sim} s, first rep {first} s")
        });
        run.e2e("setup_s", setup);
        run.e2e("sim_s", sim);
        run.e2e("sim_speedup", self.serial_sim / sim);
        run.layer(
            "core.task_host_steps_per_wall_s",
            (forks * HOSTS as u64) as f64 / wall,
        );
        run.layer("core.task_peak_workers", peak as f64);
    }
}
