//! Task-engine mirrors of the paper kernels.
//!
//! Each outlined OpenMP region from [`crate::Jacobi`] / [`crate::Nbf`]
//! is re-expressed as a resumable [`RegionTask`] state machine for the
//! event-driven engine ([`nowmp_core::TaskSystem`]): the rank's
//! position between synchronization points is an explicit `phase`
//! field, not a parked stack. The arithmetic — iteration partitioning,
//! read/accumulate order, reduction grouping — is kept *identical* to
//! the thread-backed region bodies so that results are bit-exact and
//! the two engines produce byte-identical checkpoint images (the
//! 32-host parity test in `crates/bench` holds them to it).

use nowmp_core::{TaskApp, TaskSystem};
use nowmp_omp::sched::static_block;
use nowmp_omp::{Params, ParamsReader};
use nowmp_tmk::engine::{RegionTask, Step, TaskCtx};
use nowmp_tmk::types::{Addr, Pid};

use crate::jacobi::Jacobi;
use crate::nbf::Nbf;

// ---------------------------------------------------------------- Jacobi

/// Jacobi on the task engine. Same regions, same math, same shared
/// array names as [`Jacobi`].
#[derive(Debug, Clone)]
pub struct TaskJacobi {
    inner: Jacobi,
}

impl TaskJacobi {
    /// Jacobi on an `n`×`n` grid.
    pub fn new(n: usize) -> Self {
        TaskJacobi {
            inner: Jacobi::new(n),
        }
    }
}

/// `jacobi_init`: first-touch both grids with the deterministic
/// initial field. One phase, block-partitioned over all rows.
struct JInit {
    n: usize,
    lo: u64,
    hi: u64,
    grid: Addr,
    next: Addr,
}

impl RegionTask for JInit {
    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
        let n = self.n;
        for r in self.lo..self.hi {
            for c in 0..n {
                let v = Jacobi::init_value(n, r as usize, c);
                ctx.write_f64(self.grid + r * n as u64 + c as u64, v);
                ctx.write_f64(self.next + r * n as u64 + c as u64, v);
            }
        }
        ctx.charge_compute(self.hi - self.lo);
        Step::Done
    }
}

/// `jacobi_sweep`: stencil interior rows of `grid` into `next`.
struct JSweep {
    n: usize,
    lo: u64,
    hi: u64,
    grid: Addr,
    next: Addr,
}

impl RegionTask for JSweep {
    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
        let n = self.n;
        let mut above = vec![0.0; n];
        let mut here = vec![0.0; n];
        let mut below = vec![0.0; n];
        let mut out = vec![0.0; n];
        for r in self.lo..self.hi {
            for c in 0..n as u64 {
                above[c as usize] = ctx.read_f64(self.grid + (r - 1) * n as u64 + c);
            }
            for c in 0..n as u64 {
                here[c as usize] = ctx.read_f64(self.grid + r * n as u64 + c);
            }
            for c in 0..n as u64 {
                below[c as usize] = ctx.read_f64(self.grid + (r + 1) * n as u64 + c);
            }
            out[0] = here[0];
            out[n - 1] = here[n - 1];
            for c in 1..n - 1 {
                out[c] = 0.25 * (above[c] + below[c] + here[c - 1] + here[c + 1]);
            }
            for c in 0..n as u64 {
                ctx.write_f64(self.next + r * n as u64 + c, out[c as usize]);
            }
        }
        ctx.charge_compute(self.hi - self.lo);
        Step::Done
    }
}

/// `jacobi_copy`: copy interior rows of `next` back into `grid`.
struct JCopy {
    n: usize,
    lo: u64,
    hi: u64,
    grid: Addr,
    next: Addr,
}

impl RegionTask for JCopy {
    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
        let n = self.n as u64;
        for r in self.lo..self.hi {
            for c in 0..n {
                let v = ctx.read_f64(self.next + r * n + c);
                ctx.write_f64(self.grid + r * n + c, v);
            }
        }
        ctx.charge_compute(self.hi - self.lo);
        Step::Done
    }
}

impl TaskApp for TaskJacobi {
    fn name(&self) -> &'static str {
        "Jacobi"
    }

    fn setup(&self, sys: &mut TaskSystem) {
        let n = self.inner.n;
        sys.alloc_f64("jacobi_grid", (n * n) as u64);
        sys.alloc_f64("jacobi_next", (n * n) as u64);
        sys.parallel(self, "jacobi_init", &Params::new().u64(n as u64).build());
    }

    fn step(&self, sys: &mut TaskSystem, _iter: usize) {
        let params = Params::new().u64(self.inner.n as u64).build();
        sys.parallel(self, "jacobi_sweep", &params);
        sys.parallel(self, "jacobi_copy", &params);
    }

    fn verify(&self, sys: &TaskSystem, iters: usize) -> f64 {
        let n = self.inner.n;
        let reference = self.inner.reference(iters);
        let mut err = 0.0f64;
        for r in 0..n {
            for c in 0..n {
                let got = sys.get_f64("jacobi_grid", r * n + c);
                err = err.max((got - reference[r * n + c]).abs());
            }
        }
        err
    }

    fn kernel(
        &self,
        sys: &TaskSystem,
        region: &str,
        params: &[u8],
        pid: Pid,
        nprocs: usize,
    ) -> Box<dyn RegionTask> {
        let mut p = ParamsReader::new(params);
        let n = p.u64();
        let grid = sys.addr_of("jacobi_grid");
        let next = sys.addr_of("jacobi_next");
        match region {
            "jacobi_init" => {
                let b = static_block(0..n, pid as usize, nprocs);
                Box::new(JInit {
                    n: n as usize,
                    lo: b.start,
                    hi: b.end,
                    grid,
                    next,
                })
            }
            "jacobi_sweep" => {
                let b = static_block(1..n - 1, pid as usize, nprocs);
                Box::new(JSweep {
                    n: n as usize,
                    lo: b.start,
                    hi: b.end,
                    grid,
                    next,
                })
            }
            "jacobi_copy" => {
                let b = static_block(1..n - 1, pid as usize, nprocs);
                Box::new(JCopy {
                    n: n as usize,
                    lo: b.start,
                    hi: b.end,
                    grid,
                    next,
                })
            }
            other => panic!("unknown Jacobi region {other:?}"),
        }
    }
}

// ------------------------------------------------------------------ NBF

/// NBF on the task engine. Same regions, same math, same shared array
/// names as [`Nbf`]; the energy reduction mirrors the OpenMP layer's
/// scratch-array protocol (`__omp_red`) so even the scratch residue in
/// checkpoint images matches the thread engine.
#[derive(Debug, Clone)]
pub struct TaskNbf {
    inner: Nbf,
}

impl TaskNbf {
    /// NBF with `atoms` atoms and `partners` partners per atom.
    pub fn new(atoms: usize, partners: usize) -> Self {
        TaskNbf {
            inner: Nbf::new(atoms, partners),
        }
    }
}

/// `nbf_init`: materialize positions and partner lists per atom.
struct NInit {
    n: usize,
    partners: usize,
    lo: u64,
    hi: u64,
    pos: Addr,
    plists: Addr,
}

impl RegionTask for NInit {
    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
        for a in self.lo..self.hi {
            let xyz = Nbf::atom_pos(self.n, a as usize);
            let ps = Nbf::atom_partners(self.n, self.partners, a as usize);
            for (d, v) in xyz.iter().enumerate() {
                ctx.write_f64(self.pos + a * 3 + d as u64, *v);
            }
            for (s, v) in ps.iter().enumerate() {
                ctx.write_u64(self.plists + a * self.partners as u64 + s as u64, *v);
            }
        }
        ctx.charge_compute(self.hi - self.lo);
        Step::Done
    }
}

/// `nbf_forces` as a three-phase state machine:
///
/// * phase 0 — force accumulation over the rank's block, then the
///   reduction's scratch write (`red[pid] = local_energy`) → barrier
///   (the reduce's first barrier);
/// * phase 1 — fold the scratch in pid order → barrier (the reduce's
///   second barrier, protecting the scratch from the next reduction);
/// * phase 2 — `master`: pid 0 writes the total to `nbf_out[0]`.
struct NForces {
    partners: usize,
    lo: u64,
    hi: u64,
    pos: Addr,
    force: Addr,
    plists: Addr,
    out: Addr,
    red: Addr,
    pid: Pid,
    phase: u8,
    total: f64,
}

impl RegionTask for NForces {
    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
        match self.phase {
            0 => {
                let mut local_energy = 0.0;
                let mut plist = vec![0u64; self.partners];
                for a in self.lo..self.hi {
                    let ax = ctx.read_f64(self.pos + a * 3);
                    let ay = ctx.read_f64(self.pos + a * 3 + 1);
                    let az = ctx.read_f64(self.pos + a * 3 + 2);
                    for s in 0..self.partners as u64 {
                        plist[s as usize] =
                            ctx.read_u64(self.plists + a * self.partners as u64 + s);
                    }
                    let (mut fx, mut fy, mut fz) = (0.0, 0.0, 0.0);
                    for &b in &plist {
                        let dx = ax - ctx.read_f64(self.pos + b * 3);
                        let dy = ay - ctx.read_f64(self.pos + b * 3 + 1);
                        let dz = az - ctx.read_f64(self.pos + b * 3 + 2);
                        let (fmag, e) = Nbf::pair(dx, dy, dz);
                        fx += fmag * dx;
                        fy += fmag * dy;
                        fz += fmag * dz;
                        local_energy += e;
                    }
                    ctx.write_f64(self.force + a * 3, fx);
                    ctx.write_f64(self.force + a * 3 + 1, fy);
                    ctx.write_f64(self.force + a * 3 + 2, fz);
                }
                ctx.charge_compute(self.hi - self.lo);
                ctx.write_f64(self.red + self.pid as u64, local_energy);
                self.phase = 1;
                Step::Barrier
            }
            1 => {
                let mut acc = 0.0;
                for p in 0..ctx.nprocs() as u64 {
                    acc += ctx.read_f64(self.red + p);
                }
                self.total = acc;
                self.phase = 2;
                Step::Barrier
            }
            _ => {
                if self.pid == 0 {
                    ctx.write_f64(self.out, self.total);
                }
                Step::Done
            }
        }
    }
}

/// `nbf_update`: integrate positions by `dt × force`.
struct NUpdate {
    dt: f64,
    lo: u64,
    hi: u64,
    pos: Addr,
    force: Addr,
}

impl RegionTask for NUpdate {
    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
        for a in self.lo..self.hi {
            for dim in 0..3u64 {
                let cur = ctx.read_f64(self.pos + a * 3 + dim);
                let f = ctx.read_f64(self.force + a * 3 + dim);
                ctx.write_f64(self.pos + a * 3 + dim, cur + self.dt * f);
            }
        }
        ctx.charge_compute(self.hi - self.lo);
        Step::Done
    }
}

impl TaskApp for TaskNbf {
    fn name(&self) -> &'static str {
        "NBF"
    }

    fn setup(&self, sys: &mut TaskSystem) {
        let n = self.inner.atoms as u64;
        sys.alloc_f64("nbf_pos", n * 3);
        sys.alloc_f64("nbf_force", n * 3);
        sys.alloc_u64("nbf_partners", n * self.inner.partners as u64);
        sys.alloc_f64("nbf_out", 1);
        sys.parallel(
            self,
            "nbf_init",
            &Params::new().u64(n).u64(self.inner.partners as u64).build(),
        );
    }

    fn step(&self, sys: &mut TaskSystem, _iter: usize) {
        let n = self.inner.atoms as u64;
        sys.parallel(
            self,
            "nbf_forces",
            &Params::new().u64(n).u64(self.inner.partners as u64).build(),
        );
        sys.parallel(
            self,
            "nbf_update",
            &Params::new().u64(n).f64(self.inner.dt).build(),
        );
    }

    fn verify(&self, sys: &TaskSystem, iters: usize) -> f64 {
        let (rpos, rforce, renergy) = self.inner.reference(iters);
        let n = self.inner.atoms;
        let mut err = 0.0f64;
        for i in 0..n * 3 {
            err = err.max((sys.get_f64("nbf_pos", i) - rpos[i]).abs());
            err = err.max((sys.get_f64("nbf_force", i) - rforce[i]).abs());
        }
        let e = sys.get_f64("nbf_out", 0);
        let rel = ((e - renergy) / renergy.abs().max(1e-12)).abs();
        err.max(if rel < 1e-9 { 0.0 } else { rel })
    }

    fn kernel(
        &self,
        sys: &TaskSystem,
        region: &str,
        params: &[u8],
        pid: Pid,
        nprocs: usize,
    ) -> Box<dyn RegionTask> {
        let mut p = ParamsReader::new(params);
        let pos = sys.addr_of("nbf_pos");
        let force = sys.addr_of("nbf_force");
        match region {
            "nbf_init" => {
                let n = p.u64();
                let partners = p.u64() as usize;
                let b = static_block(0..n, pid as usize, nprocs);
                Box::new(NInit {
                    n: n as usize,
                    partners,
                    lo: b.start,
                    hi: b.end,
                    pos,
                    plists: sys.addr_of("nbf_partners"),
                })
            }
            "nbf_forces" => {
                let n = p.u64();
                let partners = p.u64() as usize;
                let b = static_block(0..n, pid as usize, nprocs);
                Box::new(NForces {
                    partners,
                    lo: b.start,
                    hi: b.end,
                    pos,
                    force,
                    plists: sys.addr_of("nbf_partners"),
                    out: sys.addr_of("nbf_out"),
                    red: sys.reduction_scratch(nprocs),
                    pid,
                    phase: 0,
                    total: 0.0,
                })
            }
            "nbf_update" => {
                let n = p.u64();
                let dt = p.f64();
                let b = static_block(0..n, pid as usize, nprocs);
                Box::new(NUpdate {
                    dt,
                    lo: b.start,
                    hi: b.end,
                    pos,
                    force,
                })
            }
            other => panic!("unknown NBF region {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        for procs in [65, 97, 128, 600] {
            let k = TaskNbf::new(256, 8);
            let (err, sys) = run_task_app(&k, cfg(procs, procs).with_adaptive(false), 2);
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
