//! Gauss — Gaussian elimination without pivoting (paper §5.2: 3072×3072,
//! 3072 iterations, 48 MB shared).
//!
//! Iteration `k` eliminates column `k` below the diagonal: every process
//! reads pivot row `k` (owned by one process — the others *full-page
//! fetch* it, never having held those pages, which is why Table 1 shows
//! Gauss moving pages but **zero diffs**) and updates its own block of
//! rows below `k`.
//!
//! Layout notes reproducing that signature:
//! * the right-hand side is stored as column `n` of an **augmented
//!   matrix**, so pivot `b[k]` travels with the pivot row instead of
//!   creating a falsely-shared `b` page;
//! * rows are **padded to page boundaries** — rows of different owners
//!   never share a page, so no diffs flow (exactly the paper's Gauss
//!   behavior: Table 1's zero-diff row, which `paper table1` prints).
//!
//! The matrix is generated diagonally dominant so elimination is stable
//! without pivoting.

use crate::{max_abs_diff, Kernel};
use nowmp_omp::{portable, Host, OmpCtx, OmpProgram, Params, ReadBack, SharedMem};

/// The Gauss kernel.
#[derive(Debug, Clone)]
pub struct Gauss {
    /// Matrix dimension.
    pub n: usize,
}

impl Gauss {
    /// Gaussian elimination on an `n`×`n` system.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2);
        Gauss { n }
    }

    /// Paper-scale instance (3072×3072).
    pub fn paper() -> Self {
        Self::new(3072)
    }

    /// Row stride in slots: the augmented row (`n + 1` values) padded to
    /// whole pages of `page_slots` slots.
    pub fn stride(&self, page_slots: usize) -> usize {
        (self.n + 1).div_ceil(page_slots) * page_slots
    }

    /// Deterministic diagonally-dominant matrix entry.
    fn a0(n: usize, r: usize, c: usize) -> f64 {
        if r == c {
            2.0 * n as f64
        } else {
            let h = (r.wrapping_mul(31).wrapping_add(c.wrapping_mul(17))) % 1000;
            (h as f64 / 500.0) - 1.0
        }
    }

    /// Deterministic RHS entry.
    fn b0(r: usize) -> f64 {
        (r % 13) as f64 + 1.0
    }

    /// Serial reference: the eliminated augmented matrix after `iters`
    /// pivot steps, unpadded (row-major, `n + 1` columns).
    pub fn reference(&self, iters: usize) -> Vec<f64> {
        let n = self.n;
        let w = n + 1;
        let mut ab: Vec<f64> = (0..n * w)
            .map(|i| {
                let (r, c) = (i / w, i % w);
                if c == n {
                    Self::b0(r)
                } else {
                    Self::a0(n, r, c)
                }
            })
            .collect();
        for k in 0..iters.min(n - 1) {
            for r in k + 1..n {
                let f = ab[r * w + k] / ab[k * w + k];
                for c in k..w {
                    ab[r * w + c] -= f * ab[k * w + c];
                }
            }
        }
        ab
    }

    /// Solve the system serially (full elimination + back substitution).
    pub fn solve_reference(&self) -> Vec<f64> {
        let n = self.n;
        let w = n + 1;
        let ab = self.reference(n - 1);
        let mut x = vec![0.0; n];
        for r in (0..n).rev() {
            let mut s = ab[r * w + n];
            for c in r + 1..n {
                s -= ab[r * w + c] * x[c];
            }
            x[r] = s / ab[r * w + r];
        }
        x
    }
}

/// Parallel first-touch initialization: each process writes its own
/// block's rows, so no process ever holds stale copies of foreign rows
/// (the natural OpenMP idiom, and the reason pivot rows later travel
/// as whole pages, not diffs).
fn gauss_init<M: SharedMem>(ctx: &mut OmpCtx<'_, M>) {
    let mut p = ctx.params();
    let n = p.u64() as usize;
    let stride = p.u64() as usize;
    let ab = ctx.f64vec("gauss_ab");
    let mut row = vec![0.0; n + 1];
    ctx.for_static(0..n as u64, |ctx, r| {
        let r = r as usize;
        for (c, v) in row.iter_mut().enumerate() {
            *v = if c == n {
                Gauss::b0(r)
            } else {
                Gauss::a0(n, r, c)
            };
        }
        ab.write_from(ctx.dsm(), r * stride, &row);
    });
}

/// Eliminate column `k` below the diagonal.
fn gauss_elim<M: SharedMem>(ctx: &mut OmpCtx<'_, M>) {
    let mut p = ctx.params();
    let n = p.u64() as usize;
    let k = p.u64() as usize;
    let stride = p.u64() as usize;
    let ab = ctx.f64vec("gauss_ab");
    let w = n + 1 - k; // active row width from column k

    // Everyone reads the pivot row once (bulk, page-granular).
    let mut pivot = vec![0.0; w];
    ab.read_into(ctx.dsm(), k * stride + k, &mut pivot);
    let akk = pivot[0];
    // Static block over ALL rows; each process updates the rows
    // of its block that lie below k (the paper's block layout —
    // what Figure 3's redistribution analysis assumes).
    let mut row = vec![0.0; w];
    let mut rows_eliminated = 0u64;
    ctx.for_static(0..n as u64, |ctx, r| {
        let r = r as usize;
        if r <= k {
            return;
        }
        let d = ctx.dsm();
        ab.read_into(d, r * stride + k, &mut row);
        let f = row[0] / akk;
        for c in 0..w {
            row[c] -= f * pivot[c];
        }
        ab.write_from(d, r * stride + k, &row);
        rows_eliminated += 1;
    });
    // The per-row work shrinks as the pivot advances (and rows
    // above k are skipped entirely), so charge exact FLOPs —
    // one multiply-subtract pair per active element — rather
    // than a uniform per-index cost. This is what exposes the
    // block layout's growing tail-end load imbalance on the
    // virtual timeline, exactly as on the real testbed.
    ctx.charge_flops(rows_eliminated as f64 * w as f64 * 2.0);
}

impl Kernel for Gauss {
    fn name(&self) -> &'static str {
        "Gauss"
    }

    fn add_regions(&self, p: OmpProgram) -> OmpProgram {
        p.portable("gauss_init", portable!(gauss_init))
            .portable("gauss_elim", portable!(gauss_elim))
    }

    fn setup(&self, sys: &mut dyn Host) {
        let n = self.n;
        let stride = self.stride(sys.page_slots());
        sys.alloc_f64("gauss_ab", (n * stride) as u64);
        sys.parallel(
            "gauss_init",
            &Params::new().u64(n as u64).u64(stride as u64).build(),
        );
    }

    fn step(&self, sys: &mut dyn Host, iter: usize) {
        if iter >= self.n - 1 {
            return; // elimination complete
        }
        let stride = self.stride(sys.page_slots());
        let params = Params::new()
            .u64(self.n as u64)
            .u64(iter as u64)
            .u64(stride as u64)
            .build();
        sys.parallel("gauss_elim", &params);
    }

    fn default_iters(&self) -> usize {
        self.n - 1
    }

    fn verify(&self, sys: &mut dyn ReadBack, iters: usize) -> f64 {
        let stride = self.stride(sys.page_slots());
        let reference = self.reference(iters);
        let w = self.n + 1;
        let mut row = vec![0.0; w];
        (0..self.n).fold(0.0, |err, r| {
            sys.read_f64s("gauss_ab", r * stride, &mut row);
            max_abs_diff(err, &row, &reference[r * w..(r + 1) * w])
        })
    }

    fn shared_bytes(&self) -> u64 {
        // Unpadded logical size (padding is a layout artifact).
        (self.n * (self.n + 1)) as u64 * 8
    }

    fn cost_profile(&self) -> Vec<(&'static str, f64)> {
        // Only the first-touch init is uniform per index (one row of
        // n+1 writes); `gauss_elim` charges exact FLOPs in-region.
        vec![("gauss_init", self.n as f64 + 1.0)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_kernel;
    use nowmp_core::{ClusterConfig, LeaveSel};

    #[test]
    fn serial_solution_satisfies_system() {
        let g = Gauss::new(24);
        let x = g.solve_reference();
        let n = g.n;
        let mut max_res = 0.0f64;
        for r in 0..n {
            let mut s = 0.0;
            for c in 0..n {
                s += Gauss::a0(n, r, c) * x[c];
            }
            max_res = max_res.max((s - Gauss::b0(r)).abs());
        }
        assert!(max_res < 1e-9, "residual {max_res}");
    }

    #[test]
    fn stride_is_page_multiple() {
        let g = Gauss::new(20);
        assert_eq!(g.stride(32) % 32, 0);
        assert!(g.stride(32) >= 21);
        assert_eq!(g.stride(512), 512, "21 slots fit one 4K page");
    }

    #[test]
    fn parallel_elimination_matches_reference_exactly() {
        for procs in [1, 2, 4] {
            let g = Gauss::new(20);
            let iters = g.default_iters();
            let (sys, err) = run_kernel(&g, ClusterConfig::test(procs + 1, procs), iters);
            assert_eq!(err, 0.0, "procs={procs}: elimination must be bit-exact");
            sys.shutdown();
        }
    }

    #[test]
    fn gauss_moves_pages_not_diffs() {
        // Table 1's signature for Gauss: pivot rows travel as full
        // pages (readers never held them); diff count stays 0.
        let g = Gauss::new(32);
        let program = crate::build_program(&[&g]);
        let mut sys = nowmp_omp::OmpSystem::new(ClusterConfig::test(5, 4), program);
        g.setup(&mut sys);
        for it in 0..g.default_iters() {
            g.step(&mut sys, it);
        }
        let s = sys.dsm_stats(); // snapshot BEFORE verification traffic
        assert!(s.pages_fetched > 0, "pivot rows must travel");
        assert_eq!(s.diffs_fetched, 0, "Gauss moves no diffs (Table 1)");
        let err = g.verify(&mut sys, g.default_iters());
        assert_eq!(err, 0.0);
        sys.shutdown();
    }

    #[test]
    fn gauss_under_adaptation_stays_exact() {
        let g = Gauss::new(20);
        let program = crate::build_program(&[&g]);
        let mut sys = nowmp_omp::OmpSystem::new(ClusterConfig::test(5, 3), program);
        g.setup(&mut sys);
        for it in 0..g.default_iters() {
            if it == 4 {
                sys.adapt().leave(LeaveSel::Pid(2), None).unwrap();
            }
            if it == 10 {
                sys.join_ready().unwrap();
            }
            g.step(&mut sys, it);
        }
        let err = g.verify(&mut sys, g.default_iters());
        assert_eq!(err, 0.0);
        sys.shutdown();
    }
}
