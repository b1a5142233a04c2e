//! NBF — non-bonded force kernel of a molecular dynamics program
//! (paper §5.2: 131072 atoms, 80 partners each, 52 MB shared).
//!
//! "It is included as an example of an irregular application (i.e., an
//! application in which the array indices are not linear expressions in
//! the loop variables)": every atom reads the positions of 80
//! pseudo-random partner atoms scattered across the whole position
//! array, computes a Lennard-Jones-style pair force, and accumulates
//! into its own force slot. A reduction produces the total energy.
//!
//! Force and position updates are bit-exact against the serial
//! reference for any team size; the energy reduction's floating-point
//! grouping depends on the team size, so it is checked with a tolerance.

use crate::{max_abs_diff, Kernel};
use nowmp_omp::{portable, Host, OmpCtx, OmpProgram, Params, ReadBack, SharedMem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The NBF kernel.
#[derive(Debug, Clone)]
pub struct Nbf {
    /// Number of atoms.
    pub atoms: usize,
    /// Partners per atom.
    pub partners: usize,
    /// Integration step used by `nbf_update`.
    pub dt: f64,
}

impl Nbf {
    /// New kernel with `atoms` atoms and `partners` partners per atom.
    pub fn new(atoms: usize, partners: usize) -> Self {
        assert!(atoms >= 2);
        Nbf {
            atoms,
            partners,
            dt: 1e-4,
        }
    }

    /// Paper-scale instance (131072 atoms × 80 partners).
    pub fn paper() -> Self {
        Self::new(131072, 80)
    }

    /// Deterministic position of atom `a` on a jittered lattice.
    /// Seeded **per atom**, so any process can materialize any block
    /// independently (parallel first-touch init, replay-safe recovery).
    pub fn atom_pos(atoms: usize, a: usize) -> [f64; 3] {
        let mut rng = StdRng::seed_from_u64(0x5EED_0001 ^ (a as u64).wrapping_mul(0x9E37_79B9));
        let side = (atoms as f64).cbrt().ceil() as usize;
        let (x, y, z) = (a % side, (a / side) % side, a / (side * side));
        [
            x as f64 + rng.gen_range(-0.3..0.3),
            y as f64 + rng.gen_range(-0.3..0.3),
            z as f64 + rng.gen_range(-0.3..0.3),
        ]
    }

    /// Deterministic partner list of atom `a` (irregular indices),
    /// seeded per atom.
    pub fn atom_partners(atoms: usize, partners: usize, a: usize) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(0x5EED_0002 ^ (a as u64).wrapping_mul(0x517C_C1B7));
        let mut list = Vec::with_capacity(partners);
        for _ in 0..partners {
            loop {
                let p = rng.gen_range(0..atoms) as u64;
                if p != a as u64 {
                    list.push(p);
                    break;
                }
            }
        }
        list
    }

    fn init_pos(&self) -> Vec<f64> {
        (0..self.atoms)
            .flat_map(|a| Self::atom_pos(self.atoms, a))
            .collect()
    }

    fn init_partners(&self) -> Vec<u64> {
        (0..self.atoms)
            .flat_map(|a| Self::atom_partners(self.atoms, self.partners, a))
            .collect()
    }

    /// The pair interaction: softened Lennard-Jones force and energy.
    #[inline]
    pub(crate) fn pair(dx: f64, dy: f64, dz: f64) -> (f64, f64) {
        let r2 = (dx * dx + dy * dy + dz * dz).max(1e-4);
        let inv2 = 1.0 / r2;
        let inv6 = inv2 * inv2 * inv2;
        // force magnitude / r and pair energy
        let fmag = (12.0 * inv6 * inv6 - 6.0 * inv6) * inv2;
        let energy = inv6 * inv6 - inv6;
        (fmag, energy)
    }

    /// Serial reference: `iters` force+update steps; returns
    /// `(positions, forces, energy_of_last_step)`.
    pub fn reference(&self, iters: usize) -> (Vec<f64>, Vec<f64>, f64) {
        let n = self.atoms;
        let mut pos = self.init_pos();
        let partners = self.init_partners();
        let mut force = vec![0.0; n * 3];
        let mut energy = 0.0;
        for _ in 0..iters {
            energy = 0.0;
            for a in 0..n {
                let (ax, ay, az) = (pos[a * 3], pos[a * 3 + 1], pos[a * 3 + 2]);
                let (mut fx, mut fy, mut fz) = (0.0, 0.0, 0.0);
                for s in 0..self.partners {
                    let b = partners[a * self.partners + s] as usize;
                    let dx = ax - pos[b * 3];
                    let dy = ay - pos[b * 3 + 1];
                    let dz = az - pos[b * 3 + 2];
                    let (fmag, e) = Self::pair(dx, dy, dz);
                    fx += fmag * dx;
                    fy += fmag * dy;
                    fz += fmag * dz;
                    energy += e;
                }
                force[a * 3] = fx;
                force[a * 3 + 1] = fy;
                force[a * 3 + 2] = fz;
            }
            for a in 0..n {
                pos[a * 3] += self.dt * force[a * 3];
                pos[a * 3 + 1] += self.dt * force[a * 3 + 1];
                pos[a * 3 + 2] += self.dt * force[a * 3 + 2];
            }
        }
        (pos, force, energy)
    }
}

/// Materialize positions and partner lists per atom.
fn nbf_init<M: SharedMem>(ctx: &mut OmpCtx<'_, M>) {
    let mut p = ctx.params();
    let n = p.u64();
    let partners_per = p.u64() as usize;
    let pos = ctx.f64vec("nbf_pos");
    let plists = ctx.u64vec("nbf_partners");
    ctx.for_static(0..n, |ctx, a| {
        let a = a as usize;
        let xyz = Nbf::atom_pos(n as usize, a);
        let ps = Nbf::atom_partners(n as usize, partners_per, a);
        let d = ctx.dsm();
        pos.write_from(d, a * 3, &xyz);
        plists.write_from(d, a * partners_per, &ps);
    });
}

/// Accumulate every atom's force over its partners; returns this
/// rank's share of the total energy (the `reduction(+: energy)`
/// variable, which [`nbf_energy`] receives summed).
fn nbf_forces<M: SharedMem>(ctx: &mut OmpCtx<'_, M>) -> f64 {
    let mut p = ctx.params();
    let n = p.u64();
    let partners_per = p.u64() as usize;
    let pos = ctx.f64vec("nbf_pos");
    let force = ctx.f64vec("nbf_force");
    let partners = ctx.u64vec("nbf_partners");
    let mut local_energy = 0.0;
    let mut plist = vec![0u64; partners_per];
    ctx.for_static(0..n, |ctx, a| {
        let a = a as usize;
        let d = ctx.dsm();
        let ax = pos.get(d, a * 3);
        let ay = pos.get(d, a * 3 + 1);
        let az = pos.get(d, a * 3 + 2);
        partners.read_into(d, a * partners_per, &mut plist);
        let (mut fx, mut fy, mut fz) = (0.0, 0.0, 0.0);
        for &b in &plist {
            let b = b as usize;
            let dx = ax - pos.get(d, b * 3);
            let dy = ay - pos.get(d, b * 3 + 1);
            let dz = az - pos.get(d, b * 3 + 2);
            let (fmag, e) = Nbf::pair(dx, dy, dz);
            fx += fmag * dx;
            fy += fmag * dy;
            fz += fmag * dz;
            local_energy += e;
        }
        force.set(d, a * 3, fx);
        force.set(d, a * 3 + 1, fy);
        force.set(d, a * 3 + 2, fz);
    });
    local_energy
}

/// The master stores the reduced energy.
fn nbf_energy<M: SharedMem>(ctx: &mut OmpCtx<'_, M>, total: f64) {
    let out = ctx.f64vec("nbf_out");
    out.set(ctx.dsm(), 0, total);
}

/// Integrate positions by `dt × force`.
fn nbf_update<M: SharedMem>(ctx: &mut OmpCtx<'_, M>) {
    let mut p = ctx.params();
    let n = p.u64();
    let dt = p.f64();
    let pos = ctx.f64vec("nbf_pos");
    let force = ctx.f64vec("nbf_force");
    ctx.for_static(0..n, |ctx, a| {
        let a = a as usize;
        let d = ctx.dsm();
        for dim in 0..3 {
            let cur = pos.get(d, a * 3 + dim);
            let f = force.get(d, a * 3 + dim);
            pos.set(d, a * 3 + dim, cur + dt * f);
        }
    });
}

impl Kernel for Nbf {
    fn name(&self) -> &'static str {
        "NBF"
    }

    fn add_regions(&self, p: OmpProgram) -> OmpProgram {
        p.portable("nbf_init", portable!(nbf_init))
            .portable(
                "nbf_forces",
                portable!(nbf_forces, reduction(+) => nbf_energy),
            )
            .portable("nbf_update", portable!(nbf_update))
    }

    fn setup(&self, sys: &mut dyn Host) {
        let n = self.atoms as u64;
        sys.alloc_f64("nbf_pos", n * 3);
        sys.alloc_f64("nbf_force", n * 3);
        sys.alloc_u64("nbf_partners", n * self.partners as u64);
        sys.alloc_f64("nbf_out", 1);
        sys.parallel(
            "nbf_init",
            &Params::new().u64(n).u64(self.partners as u64).build(),
        );
    }

    fn step(&self, sys: &mut dyn Host, _iter: usize) {
        let n = self.atoms as u64;
        sys.parallel(
            "nbf_forces",
            &Params::new().u64(n).u64(self.partners as u64).build(),
        );
        sys.parallel("nbf_update", &Params::new().u64(n).f64(self.dt).build());
    }

    fn default_iters(&self) -> usize {
        100
    }

    fn verify(&self, sys: &mut dyn ReadBack, iters: usize) -> f64 {
        let (rpos, rforce, renergy) = self.reference(iters);
        let mut got = vec![0.0; self.atoms * 3];
        sys.read_f64s("nbf_pos", 0, &mut got);
        let err = max_abs_diff(0.0, &got, &rpos);
        sys.read_f64s("nbf_force", 0, &mut got);
        let err = max_abs_diff(err, &got, &rforce);
        // Energy: FP grouping differs with team size; relative check.
        sys.read_f64s("nbf_out", 0, &mut got[..1]);
        let rel = ((got[0] - renergy) / renergy.abs().max(1e-12)).abs();
        err.max(if rel < 1e-9 { 0.0 } else { rel })
    }

    fn shared_bytes(&self) -> u64 {
        (self.atoms * 3 * 2 + self.atoms * self.partners + 1) as u64 * 8
    }

    fn cost_profile(&self) -> Vec<(&'static str, f64)> {
        // One iteration = one atom. The pair interaction is ~30 flops
        // (distance, softened LJ force + energy, accumulation) per
        // partner; the update is 2 flops per dimension; the init is
        // dominated by the per-atom RNG draws (~5 equivalents per
        // partner slot).
        let p = self.partners as f64;
        vec![
            ("nbf_init", 5.0 * p + 10.0),
            ("nbf_forces", 30.0 * p),
            ("nbf_update", 6.0),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_kernel;
    use nowmp_core::{ClusterConfig, LeaveSel};
    use nowmp_tmk::CollectiveConfig;

    #[test]
    fn reference_is_deterministic() {
        let k = Nbf::new(64, 8);
        let (p1, f1, e1) = k.reference(3);
        let (p2, f2, e2) = k.reference(3);
        assert_eq!(p1, p2);
        assert_eq!(f1, f2);
        assert_eq!(e1, e2);
        assert!(e1.is_finite());
    }

    #[test]
    fn pair_force_is_repulsive_up_close() {
        let (fmag, _) = Nbf::pair(0.5, 0.0, 0.0);
        assert!(fmag > 0.0, "close atoms repel");
    }

    #[test]
    fn parallel_matches_reference() {
        for procs in [1, 2, 4] {
            let k = Nbf::new(64, 8);
            let (sys, err) = run_kernel(&k, ClusterConfig::test(procs + 1, procs), 3);
            assert_eq!(
                err, 0.0,
                "procs={procs}: forces/positions must be bit-exact"
            );
            sys.shutdown();
        }
    }

    /// NBF, 2 iterations on `procs` processes under `collectives`,
    /// adaptive off: the energy's bits, and the system, still up.
    fn energy_run(procs: usize, collectives: CollectiveConfig) -> (u64, nowmp_omp::OmpSystem) {
        let cfg = ClusterConfig::test(procs, procs)
            .with_collectives(collectives)
            .with_clock(nowmp_util::Clock::new_virtual())
            .with_adaptive(false);
        let (mut sys, err) = run_kernel(&Nbf::new(64, 8), cfg, 2);
        assert_eq!(err, 0.0, "procs={procs}");
        let mut energy = [0.0];
        sys.read_f64s("nbf_out", 0, &mut energy);
        (energy[0].to_bits(), sys)
    }

    #[test]
    fn the_energy_is_bit_equal_whether_it_rides_the_join_or_the_scratch() {
        for procs in 1..=8 {
            let (scratch, sys) = energy_run(procs, CollectiveConfig::all_flat());
            sys.shutdown();
            let (join, sys) = energy_run(procs, CollectiveConfig::default());
            sys.shutdown();
            assert_eq!(join, scratch, "procs={procs}");
        }
    }

    /// Whether any process faulted a page of the reduction scratch in,
    /// and whether any write notice names one, as the master sees it:
    /// it owns every page of a run without adaptation, so a fault
    /// anywhere is a copy of its own or one it lent, and every rank's
    /// notices reach it at the joins.
    fn scratch_traffic(sys: &mut nowmp_omp::OmpSystem) -> (bool, bool) {
        let spp = sys.page_slots() as u64;
        let ctx = sys.cluster().ctx();
        let red = ctx
            .handle(nowmp_core::RED_ARRAY)
            .expect("scratch allocated");
        let pages = (red.addr / spp) as u32..(red.addr + red.len).div_ceil(spp) as u32;
        let core = ctx.core().lock();
        let faulted = pages.clone().any(|p| {
            let meta = core.pages.get(p).expect("allocated page");
            meta.data.is_some() || meta.zero_lent
        });
        let noticed =
            (core.records.all().iter()).any(|r| r.pages.iter().any(|p| pages.contains(p)));
        (faulted, noticed)
    }

    #[test]
    fn a_reduction_riding_the_join_never_touches_the_scratch() {
        let (_, mut sys) = energy_run(4, CollectiveConfig::default());
        assert_eq!(scratch_traffic(&mut sys), (false, false));
        sys.shutdown();
        // The 1999 protocol goes through it, which is what the probe sees.
        let (_, mut sys) = energy_run(4, CollectiveConfig::all_flat());
        assert_eq!(scratch_traffic(&mut sys), (true, true));
        sys.shutdown();
    }

    #[test]
    fn nbf_under_adaptation_stays_exact() {
        let k = Nbf::new(64, 8);
        let program = crate::build_program(&[&k]);
        let mut sys = nowmp_omp::OmpSystem::new(ClusterConfig::test(5, 4), program);
        k.setup(&mut sys);
        for it in 0..4 {
            if it == 1 {
                sys.adapt().leave(LeaveSel::Pid(2), None).unwrap();
            }
            if it == 2 {
                sys.join_ready().unwrap();
            }
            k.step(&mut sys, it);
        }
        let err = k.verify(&mut sys, 4);
        assert_eq!(err, 0.0);
        sys.shutdown();
    }
}
