//! The paper kernels on the task engine.
//!
//! Nothing here is kernel-specific. [`TaskKernel`] adapts any
//! [`Kernel`] to [`nowmp_core::TaskApp`]: the driver (`setup` / `step`
//! / `verify`) is the kernel's own, run against the engine as a
//! [`nowmp_omp::Host`]; each region's task is the kernel's own body,
//! lowered by [`OmpProgram::lower`]. Both engines run the same code, so
//! results are bit-exact and checkpoint images byte-identical (the
//! parity tests in `crates/bench` hold them to it). [`TaskJacobi`] and
//! [`TaskNbf`] name the two instances the scale sweeps construct.

use nowmp_core::{TaskApp, TaskSystem};
use nowmp_omp::{OmpProgram, TaskHost};
use nowmp_tmk::engine::RegionTask;

use crate::jacobi::Jacobi;
use crate::nbf::Nbf;
use crate::{build_program, Kernel};

/// `K` on the task engine: same regions, same driver, same shared
/// array names.
pub struct TaskKernel<K> {
    kernel: K,
    program: OmpProgram,
}

impl<K: Kernel> TaskKernel<K> {
    /// Put `kernel` on the task engine.
    pub fn of(kernel: K) -> Self {
        let program = build_program(&[&kernel]);
        TaskKernel { kernel, program }
    }
}

/// Jacobi on the task engine.
pub type TaskJacobi = TaskKernel<Jacobi>;

impl TaskJacobi {
    /// Jacobi on an `n`×`n` grid.
    pub fn new(n: usize) -> Self {
        Self::of(Jacobi::new(n))
    }
}

/// NBF on the task engine.
pub type TaskNbf = TaskKernel<Nbf>;

impl TaskNbf {
    /// NBF with `atoms` atoms and `partners` partners per atom.
    pub fn new(atoms: usize, partners: usize) -> Self {
        Self::of(Nbf::new(atoms, partners))
    }
}

impl<K: Kernel> TaskApp for TaskKernel<K> {
    fn name(&self) -> &'static str {
        self.kernel.name()
    }

    fn setup(&self, sys: &mut TaskSystem) {
        self.kernel.setup(&mut TaskHost { sys, app: self });
    }

    fn step(&self, sys: &mut TaskSystem, iter: usize) {
        self.kernel.step(&mut TaskHost { sys, app: self }, iter);
    }

    fn verify(&self, sys: &TaskSystem, iters: usize) -> f64 {
        self.kernel.verify(&mut TaskHost { sys, app: self }, iters)
    }

    fn kernel(&self, region: &str) -> Option<Box<dyn RegionTask>> {
        self.program.lower(region)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft3d::Fft3d;
    use crate::gauss::Gauss;
    use nowmp_core::{run_task_app, ClusterConfig, LeaveSel};
    use nowmp_util::Clock;

    fn cfg(hosts: usize, procs: usize) -> ClusterConfig {
        ClusterConfig::test(hosts, procs)
            .with_clock(Clock::new_virtual())
            .with_adaptive(true)
    }

    #[test]
    fn task_jacobi_matches_reference_exactly() {
        for procs in [1, 2, 4] {
            let j = TaskJacobi::new(24);
            let (err, _) = run_task_app(&j, cfg(procs + 1, procs), 10);
            assert_eq!(err, 0.0, "procs={procs}: Jacobi must be bit-exact");
        }
    }

    #[test]
    fn task_nbf_matches_reference() {
        for procs in [1, 2, 4] {
            let k = TaskNbf::new(64, 8);
            let (err, _) = run_task_app(&k, cfg(procs + 1, procs), 3);
            assert_eq!(err, 0.0, "procs={procs}: forces/positions bit-exact");
        }
    }

    #[test]
    fn gauss_and_fft_reach_the_task_engine() {
        for procs in [1, 2, 4] {
            let g = Gauss::new(20);
            let iters = g.default_iters();
            let (err, _) = run_task_app(&TaskKernel::of(g), cfg(procs + 1, procs), iters);
            assert_eq!(err, 0.0, "procs={procs}: elimination bit-exact");
            let f = TaskKernel::of(Fft3d::new(8, 4, 4));
            let (err, _) = run_task_app(&f, cfg(procs + 1, procs), 2);
            assert_eq!(err, 0.0, "procs={procs}: FFT pipeline bit-exact");
        }
    }

    #[test]
    fn in_region_flop_charges_move_the_task_timeline() {
        // `gauss_elim` has no profiled per-iteration cost: all of its
        // compute is the exact FLOP count it charges in-region.
        let g = Gauss::new(20);
        let cost = crate::with_kernel_costs(nowmp_net::CostModel::paper_1999(), &g);
        let mut no_flops = cost.clone();
        no_flops.flops_per_sec = f64::INFINITY;
        let run = |cost| {
            let c = cfg(1, 1).with_cost_model(cost);
            let (err, sys) = run_task_app(&TaskKernel::of(g.clone()), c, g.default_iters());
            assert_eq!(err, 0.0);
            sys.now().as_nanos()
        };
        let charged: u128 = (0..g.n - 1)
            .map(|k| ((g.n - 1 - k) * (g.n + 1 - k) * 2) as f64)
            .map(|flops| cost.flops_charge(flops, nowmp_net::HostId(0)).as_nanos())
            .sum();
        assert!(charged > 0);
        assert_eq!(run(cost.clone()) - run(no_flops), charged as u64);
    }

    #[test]
    fn an_unknown_region_fails_alike_on_both_engines() {
        let message = |run: Box<dyn FnOnce() + Send>| {
            let err = std::thread::spawn(run).join().expect_err("must panic");
            err.downcast_ref::<String>().expect("formatted").clone()
        };
        let thread = message(Box::new(|| {
            let j = Jacobi::new(8);
            let mut sys = nowmp_omp::OmpSystem::new(cfg(1, 1), build_program(&[&j]));
            sys.parallel("jacobi_swep", &[]);
        }));
        let task = message(Box::new(|| {
            let mut sys = TaskSystem::new(cfg(1, 1));
            sys.parallel(&TaskJacobi::new(8), "jacobi_swep", &[]);
        }));
        assert_eq!(thread, "region \"jacobi_swep\" not registered");
        assert_eq!(task, thread);
    }

    #[test]
    fn task_jacobi_under_adaptation_stays_exact() {
        let j = TaskJacobi::new(24);
        let mut sys = nowmp_core::TaskSystem::new(cfg(5, 4));
        j.setup(&mut sys);
        for it in 0..8 {
            if it == 2 {
                sys.adapt().join_ready().unwrap();
            }
            if it == 5 {
                sys.adapt().leave(LeaveSel::Pid(3), None).unwrap();
            }
            j.step(&mut sys, it);
        }
        let err = j.verify(&sys, 8);
        assert_eq!(err, 0.0, "adaptation must not change results");
    }

    #[test]
    fn task_nbf_under_adaptation_stays_exact() {
        let k = TaskNbf::new(64, 8);
        let mut sys = nowmp_core::TaskSystem::new(cfg(5, 4));
        k.setup(&mut sys);
        for it in 0..4 {
            if it == 1 {
                sys.adapt().leave(LeaveSel::Pid(2), None).unwrap();
            }
            if it == 2 {
                sys.adapt().join_ready().unwrap();
            }
            k.step(&mut sys, it);
        }
        let err = k.verify(&sys, 4);
        assert_eq!(err, 0.0);
    }

    #[test]
    fn reduction_scratch_has_a_slot_for_every_rank() {
        // On 32-slot pages a 64-slot scratch ends where `__omp_dyn`
        // begins, and the first user array follows 32 slots later: a
        // rank past 64 without a slot of its own lands on one of them.
        // The 1999 generation is the one whose reduction goes through
        // the scratch (the current one's rides the join).
        for procs in [65, 97, 128, 600] {
            let k = TaskNbf::new(256, 8);
            let c = cfg(procs, procs).with_adaptive(false).generation_1999();
            let (err, sys) = run_task_app(&k, c, 2);
            assert_eq!(err, 0.0, "procs={procs}");
            let dyn_counter = sys.get_u64(nowmp_core::DYN_COUNTER, 0);
            assert_eq!(
                dyn_counter, 0,
                "procs={procs}: a reduction wrote past the scratch"
            );
        }
    }

    #[test]
    fn task_engine_scales_past_thread_limits() {
        // 256 simulated hosts — far beyond what thread-per-host could
        // run in a unit test — on an O(pool) worker pool.
        let j = TaskJacobi::new(512);
        let (err, sys) = run_task_app(&j, cfg(256, 256), 2);
        assert_eq!(err, 0.0);
        assert!(sys.peak_workers() <= sys.pool());
        assert_eq!(sys.nprocs(), 256);
    }
}
