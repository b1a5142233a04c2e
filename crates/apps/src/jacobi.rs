//! Jacobi — iterative 2D Laplace solver (paper §5.2: "simple numerical
//! code", 2500×2500, 1000 iterations, 47.8 MB shared).
//!
//! Two shared grids; each iteration averages the four neighbors into
//! the scratch grid, then swaps roles. Block row partitioning: each
//! process reads two boundary rows owned by neighbors per iteration —
//! the classic producer of *diff* traffic (Table 1 shows Jacobi as the
//! only kernel moving diffs).
//!
//! OpenMP shape: the sweep and the copy-back are two parallel `for`
//! constructs per iteration, so adaptation points arrive at twice the
//! iteration rate.

use crate::{max_abs_diff, Kernel};
use nowmp_omp::{portable, Host, OmpCtx, OmpProgram, Params, ReadBack, SharedMem};

/// The Jacobi kernel.
#[derive(Debug, Clone)]
pub struct Jacobi {
    /// Grid side (n×n including fixed boundary).
    pub n: usize,
}

impl Jacobi {
    /// Jacobi on an `n`×`n` grid.
    pub fn new(n: usize) -> Self {
        assert!(n >= 3, "grid must have an interior");
        Jacobi { n }
    }

    /// Paper-scale instance (2500×2500).
    pub fn paper() -> Self {
        Self::new(2500)
    }

    /// Initial grid: hot top edge, cold other boundaries, and a
    /// deterministic non-trivial interior (so every sweep changes every
    /// row — a uniform interior would make boundary diffs empty and
    /// hide the paper's Jacobi traffic signature).
    pub(crate) fn init_value(n: usize, r: usize, c: usize) -> f64 {
        if r == 0 {
            100.0
        } else if r == n - 1 || c == 0 || c == n - 1 {
            0.0
        } else {
            ((r.wrapping_mul(31).wrapping_add(c.wrapping_mul(17))) % 100) as f64
        }
    }

    /// Serial reference: `iters` Jacobi sweeps.
    pub fn reference(&self, iters: usize) -> Vec<f64> {
        let n = self.n;
        let mut grid: Vec<f64> = (0..n * n)
            .map(|i| Self::init_value(n, i / n, i % n))
            .collect();
        let mut next = grid.clone();
        for _ in 0..iters {
            for r in 1..n - 1 {
                for c in 1..n - 1 {
                    next[r * n + c] = 0.25
                        * (grid[(r - 1) * n + c]
                            + grid[(r + 1) * n + c]
                            + grid[r * n + c - 1]
                            + grid[r * n + c + 1]);
                }
            }
            for r in 1..n - 1 {
                for c in 1..n - 1 {
                    grid[r * n + c] = next[r * n + c];
                }
            }
        }
        grid
    }
}

/// Parallel first-touch initialization (replay-safe on recovery: forks
/// fast-forward, sequential code does not).
fn jacobi_init<M: SharedMem>(ctx: &mut OmpCtx<'_, M>) {
    let n = ctx.params().u64();
    let grid = ctx.f64mat("jacobi_grid", n, n);
    let next = ctx.f64mat("jacobi_next", n, n);
    let mut row = vec![0.0; n as usize];
    ctx.for_static(0..n, |ctx, r| {
        for (c, v) in row.iter_mut().enumerate() {
            *v = Jacobi::init_value(n as usize, r as usize, c);
        }
        let d = ctx.dsm();
        grid.write_row(d, r as usize, &row);
        next.write_row(d, r as usize, &row);
    });
}

/// `#pragma omp for schedule(static)` over interior rows: average the
/// four neighbors of `grid` into `next`.
fn jacobi_sweep<M: SharedMem>(ctx: &mut OmpCtx<'_, M>) {
    let n = ctx.params().u64();
    let grid = ctx.f64mat("jacobi_grid", n, n);
    let next = ctx.f64mat("jacobi_next", n, n);
    let mut above = vec![0.0; n as usize];
    let mut here = vec![0.0; n as usize];
    let mut below = vec![0.0; n as usize];
    let mut out = vec![0.0; n as usize];
    ctx.for_static(1..n - 1, |ctx, r| {
        let d = ctx.dsm();
        grid.read_row(d, (r - 1) as usize, &mut above);
        grid.read_row(d, r as usize, &mut here);
        grid.read_row(d, (r + 1) as usize, &mut below);
        out[0] = here[0];
        out[n as usize - 1] = here[n as usize - 1];
        for c in 1..n as usize - 1 {
            out[c] = 0.25 * (above[c] + below[c] + here[c - 1] + here[c + 1]);
        }
        next.write_row(d, r as usize, &out);
    });
}

/// Copy interior rows of `next` back into `grid`.
fn jacobi_copy<M: SharedMem>(ctx: &mut OmpCtx<'_, M>) {
    let n = ctx.params().u64();
    let grid = ctx.f64mat("jacobi_grid", n, n);
    let next = ctx.f64mat("jacobi_next", n, n);
    let mut row = vec![0.0; n as usize];
    ctx.for_static(1..n - 1, |ctx, r| {
        let d = ctx.dsm();
        next.read_row(d, r as usize, &mut row);
        grid.write_row(d, r as usize, &row);
    });
}

impl Kernel for Jacobi {
    fn name(&self) -> &'static str {
        "Jacobi"
    }

    fn add_regions(&self, p: OmpProgram) -> OmpProgram {
        p.portable("jacobi_init", portable!(jacobi_init))
            .portable("jacobi_sweep", portable!(jacobi_sweep))
            .portable("jacobi_copy", portable!(jacobi_copy))
    }

    fn setup(&self, sys: &mut dyn Host) {
        let n = self.n;
        sys.alloc_f64("jacobi_grid", (n * n) as u64);
        sys.alloc_f64("jacobi_next", (n * n) as u64);
        sys.parallel("jacobi_init", &Params::new().u64(n as u64).build());
    }

    fn step(&self, sys: &mut dyn Host, _iter: usize) {
        let params = Params::new().u64(self.n as u64).build();
        sys.parallel("jacobi_sweep", &params);
        sys.parallel("jacobi_copy", &params);
    }

    fn default_iters(&self) -> usize {
        1000
    }

    fn verify(&self, sys: &mut dyn ReadBack, iters: usize) -> f64 {
        let n = self.n;
        let reference = self.reference(iters);
        let mut row = vec![0.0; n];
        (0..n).fold(0.0, |err, r| {
            sys.read_f64s("jacobi_grid", r * n, &mut row);
            max_abs_diff(err, &row, &reference[r * n..(r + 1) * n])
        })
    }

    fn shared_bytes(&self) -> u64 {
        2 * (self.n * self.n) as u64 * 8
    }

    fn cost_profile(&self) -> Vec<(&'static str, f64)> {
        // One iteration = one grid row. The sweep is the classic
        // 4-flop stencil per point; the copy and the first-touch init
        // are memory-bound at ~1 flop-equivalent per point.
        let n = self.n as f64;
        vec![
            ("jacobi_init", n),
            ("jacobi_sweep", 4.0 * n),
            ("jacobi_copy", n),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_kernel;
    use nowmp_core::{ClusterConfig, LeaveSel};

    #[test]
    // Indices are written `row * stride + col`; keep the row factor
    // even when it is 0 or 1.
    #[allow(clippy::identity_op, clippy::erasing_op)]
    fn serial_reference_converges_from_hot_edge() {
        let j = Jacobi::new(8);
        let g = j.reference(50);
        // Interior points near the hot edge warm up.
        assert!(g[1 * 8 + 4] > 10.0);
        // Boundary stays fixed.
        assert_eq!(g[0 * 8 + 3], 100.0);
        assert_eq!(g[7 * 8 + 3], 0.0);
    }

    #[test]
    fn parallel_matches_reference_exactly() {
        for procs in [1, 2, 4] {
            let j = Jacobi::new(24);
            let (sys, err) = run_kernel(&j, ClusterConfig::test(procs + 1, procs), 10);
            assert_eq!(err, 0.0, "procs={procs}: Jacobi must be bit-exact");
            sys.shutdown();
        }
    }

    #[test]
    fn jacobi_produces_diff_traffic_on_multiple_procs() {
        let j = Jacobi::new(32);
        let program = crate::build_program(&[&j]);
        let mut sys = nowmp_omp::OmpSystem::new(ClusterConfig::test(5, 4), program);
        j.setup(&mut sys);
        for it in 0..6 {
            j.step(&mut sys, it);
        }
        let s = sys.dsm_stats(); // snapshot BEFORE verification traffic
        assert!(s.diffs_fetched > 0, "boundary rows must move as diffs");
        let err = j.verify(&mut sys, 6);
        assert_eq!(err, 0.0);
        sys.shutdown();
    }

    #[test]
    fn jacobi_under_adaptation_stays_exact() {
        let j = Jacobi::new(24);
        let program = crate::build_program(&[&j]);
        let mut sys = nowmp_omp::OmpSystem::new(ClusterConfig::test(5, 4), program);
        j.setup(&mut sys);
        for it in 0..8 {
            if it == 2 {
                sys.adapt().leave(LeaveSel::Pid(3), None).unwrap();
            }
            if it == 5 {
                sys.join_ready().unwrap();
            }
            j.step(&mut sys, it);
        }
        let err = j.verify(&mut sys, 8);
        assert_eq!(err, 0.0, "adaptation must not change results");
        sys.shutdown();
    }
}
