//! 3D-FFT — from the NAS benchmark suite (paper §5.2: 128×64×64, 100
//! iterations, 42 MB shared).
//!
//! "It performs a 3-dimensional FFT transform using a sequence of 3
//! 1-dimensional transforms, with a transposition of the matrix between
//! the second and the third transform." The transposes are the
//! all-to-all phases that make 3D-FFT the paper's most traffic-hungry
//! kernel per byte of shared memory (Table 1: 779 MB moved over a 42 MB
//! problem).
//!
//! Pipeline per iteration (6 parallel constructs):
//!
//! 1. `evolve` — pointwise phase multiply (the NAS time-evolution);
//! 2. `fft_dim3` — 1D FFTs along the contiguous axis;
//! 3. `fft_dim2` — 1D FFTs along the middle axis;
//! 4. `transpose` A→B (axes 1↔3);
//! 5. `fft_dim3` on B — transforms the original first axis;
//! 6. `transpose` B→A — restore layout.
//!
//! Complex data is stored as separate shared `re`/`im` arrays. All
//! arithmetic is performed in the same order serially and in parallel,
//! so verification is bit-exact.

use crate::{max_abs_diff, Kernel};
use nowmp_omp::{portable, Host, OmpCtx, OmpProgram, Params, ReadBack, SharedMem};

/// Iterative radix-2 Cooley-Tukey FFT, in place. `n` must be a power
/// of two. Deterministic operation order (bit-exact across processes).
pub fn fft1d(re: &mut [f64], im: &mut [f64], inverse: bool) {
    let n = re.len();
    assert!(n.is_power_of_two(), "fft length {n} not a power of two");
    assert_eq!(im.len(), n);
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    // Butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let (wr, wi) = (ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let (mut cr, mut ci) = (1.0f64, 0.0f64);
            for k in 0..len / 2 {
                let (ur, ui) = (re[i + k], im[i + k]);
                let (vr, vi) = (
                    re[i + k + len / 2] * cr - im[i + k + len / 2] * ci,
                    re[i + k + len / 2] * ci + im[i + k + len / 2] * cr,
                );
                re[i + k] = ur + vr;
                im[i + k] = ui + vi;
                re[i + k + len / 2] = ur - vr;
                im[i + k + len / 2] = ui - vi;
                let ncr = cr * wr - ci * wi;
                ci = cr * wi + ci * wr;
                cr = ncr;
            }
            i += len;
        }
        len <<= 1;
    }
    if inverse {
        let inv = 1.0 / n as f64;
        for k in 0..n {
            re[k] *= inv;
            im[k] *= inv;
        }
    }
}

/// The 3D-FFT kernel on an `n1`×`n2`×`n3` complex grid.
#[derive(Debug, Clone)]
pub struct Fft3d {
    /// First (outer) dimension.
    pub n1: usize,
    /// Middle dimension.
    pub n2: usize,
    /// Contiguous dimension.
    pub n3: usize,
}

impl Fft3d {
    /// New kernel; all dimensions must be powers of two.
    pub fn new(n1: usize, n2: usize, n3: usize) -> Self {
        assert!(n1.is_power_of_two() && n2.is_power_of_two() && n3.is_power_of_two());
        Fft3d { n1, n2, n3 }
    }

    /// Paper-scale instance (128×64×64).
    pub fn paper() -> Self {
        Self::new(128, 64, 64)
    }

    fn total(&self) -> usize {
        self.n1 * self.n2 * self.n3
    }

    /// Deterministic initial field.
    fn init(idx: usize) -> (f64, f64) {
        let h = (idx.wrapping_mul(2654435761)) % 1000;
        ((h as f64 / 500.0) - 1.0, ((999 - h) as f64 / 500.0) - 1.0)
    }

    /// Phase factor applied by `evolve` at flat index `idx`.
    fn phase(idx: usize, iter: usize) -> (f64, f64) {
        let ang = (idx % 97) as f64 * 1e-3 * (iter as f64 + 1.0);
        (ang.cos(), ang.sin())
    }

    /// Serial reference: the same 6-phase pipeline on plain vectors.
    pub fn reference(&self, iters: usize) -> (Vec<f64>, Vec<f64>) {
        let (n1, n2, n3) = (self.n1, self.n2, self.n3);
        let total = self.total();
        let mut are: Vec<f64> = (0..total).map(|i| Self::init(i).0).collect();
        let mut aim: Vec<f64> = (0..total).map(|i| Self::init(i).1).collect();
        let mut bre = vec![0.0; total];
        let mut bim = vec![0.0; total];
        for it in 0..iters {
            // evolve
            for idx in 0..total {
                let (pr, pi) = Self::phase(idx, it);
                let (r, i) = (are[idx], aim[idx]);
                are[idx] = r * pr - i * pi;
                aim[idx] = r * pi + i * pr;
            }
            // fft dim3
            for i in 0..n1 {
                for j in 0..n2 {
                    let off = i * n2 * n3 + j * n3;
                    fft1d(&mut are[off..off + n3], &mut aim[off..off + n3], false);
                }
            }
            // fft dim2 (strided)
            let mut lr = vec![0.0; n2];
            let mut li = vec![0.0; n2];
            for i in 0..n1 {
                for k in 0..n3 {
                    for j in 0..n2 {
                        lr[j] = are[i * n2 * n3 + j * n3 + k];
                        li[j] = aim[i * n2 * n3 + j * n3 + k];
                    }
                    fft1d(&mut lr, &mut li, false);
                    for j in 0..n2 {
                        are[i * n2 * n3 + j * n3 + k] = lr[j];
                        aim[i * n2 * n3 + j * n3 + k] = li[j];
                    }
                }
            }
            // transpose A(i,j,k) -> B(k,j,i)
            for k in 0..n3 {
                for j in 0..n2 {
                    for i in 0..n1 {
                        bre[k * n2 * n1 + j * n1 + i] = are[i * n2 * n3 + j * n3 + k];
                        bim[k * n2 * n1 + j * n1 + i] = aim[i * n2 * n3 + j * n3 + k];
                    }
                }
            }
            // fft dim3 of B (length n1): transforms original axis 1
            for k in 0..n3 {
                for j in 0..n2 {
                    let off = k * n2 * n1 + j * n1;
                    fft1d(&mut bre[off..off + n1], &mut bim[off..off + n1], false);
                }
            }
            // transpose back B(k,j,i) -> A(i,j,k)
            for i in 0..n1 {
                for j in 0..n2 {
                    for k in 0..n3 {
                        are[i * n2 * n3 + j * n3 + k] = bre[k * n2 * n1 + j * n1 + i];
                        aim[i * n2 * n3 + j * n3 + k] = bim[k * n2 * n1 + j * n1 + i];
                    }
                }
            }
        }
        (are, aim)
    }
}

/// First-touch the deterministic initial field into A.
fn fft_init<M: SharedMem>(ctx: &mut OmpCtx<'_, M>) {
    let mut p = ctx.params();
    let total = p.u64();
    let re = ctx.f64vec("fft_are");
    let im = ctx.f64vec("fft_aim");
    ctx.for_static_block(0..total, |ctx, block| {
        let len = (block.end - block.start) as usize;
        let mut lr = vec![0.0; len];
        let mut li = vec![0.0; len];
        for (off, idx) in (block.start as usize..block.end as usize).enumerate() {
            let (r, i) = Fft3d::init(idx);
            lr[off] = r;
            li[off] = i;
        }
        let d = ctx.dsm();
        re.write_from(d, block.start as usize, &lr);
        im.write_from(d, block.start as usize, &li);
    });
}

/// Pointwise phase multiply of A (the NAS time-evolution).
fn fft_evolve<M: SharedMem>(ctx: &mut OmpCtx<'_, M>) {
    let mut p = ctx.params();
    let total = p.u64();
    let iter = p.u64() as usize;
    let re = ctx.f64vec("fft_are");
    let im = ctx.f64vec("fft_aim");
    ctx.for_static_block(0..total, |ctx, block| {
        let len = (block.end - block.start) as usize;
        let d = ctx.dsm();
        let mut lr = vec![0.0; len];
        let mut li = vec![0.0; len];
        re.read_into(d, block.start as usize, &mut lr);
        im.read_into(d, block.start as usize, &mut li);
        for (off, idx) in (block.start as usize..block.end as usize).enumerate() {
            let (pr, pi) = Fft3d::phase(idx, iter);
            let (r, i) = (lr[off], li[off]);
            lr[off] = r * pr - i * pi;
            li[off] = r * pi + i * pr;
        }
        re.write_from(d, block.start as usize, &lr);
        im.write_from(d, block.start as usize, &li);
    });
}

/// 1D FFTs along the contiguous axis of A or B.
///
/// params: which array (0=A,1=B), d1, d2, d3
fn fft_dim3<M: SharedMem>(ctx: &mut OmpCtx<'_, M>) {
    let mut p = ctx.params();
    let which = p.u64();
    let d1 = p.u64() as usize;
    let d2 = p.u64() as usize;
    let d3 = p.u64() as usize;
    let (re, im) = if which == 0 {
        (ctx.f64vec("fft_are"), ctx.f64vec("fft_aim"))
    } else {
        (ctx.f64vec("fft_bre"), ctx.f64vec("fft_bim"))
    };
    let mut lr = vec![0.0; d3];
    let mut li = vec![0.0; d3];
    let mut planes_done = 0u64;
    ctx.for_static(0..d1 as u64, |ctx, i| {
        for j in 0..d2 {
            let off = i as usize * d2 * d3 + j * d3;
            let d = ctx.dsm();
            re.read_into(d, off, &mut lr);
            im.read_into(d, off, &mut li);
            fft1d(&mut lr, &mut li, false);
            re.write_from(d, off, &lr);
            im.write_from(d, off, &li);
        }
        planes_done += 1;
    });
    // Per-plane work depends on the orientation this call runs
    // in (d2 × an FFT of length d3), so charge exact FLOPs:
    // 5·n·log2(n) per complex radix-2 transform.
    let fft_flops = 5.0 * d3 as f64 * (d3 as f64).log2().max(1.0);
    ctx.charge_flops(planes_done as f64 * d2 as f64 * fft_flops);
}

/// 1D FFTs along the middle axis of A (strided gather/scatter).
fn fft_dim2<M: SharedMem>(ctx: &mut OmpCtx<'_, M>) {
    let mut p = ctx.params();
    let d1 = p.u64() as usize;
    let d2 = p.u64() as usize;
    let d3 = p.u64() as usize;
    let re = ctx.f64vec("fft_are");
    let im = ctx.f64vec("fft_aim");
    let mut lr = vec![0.0; d2];
    let mut li = vec![0.0; d2];
    let mut planes_done = 0u64;
    ctx.for_static(0..d1 as u64, |ctx, i| {
        for k in 0..d3 {
            let d = ctx.dsm();
            for j in 0..d2 {
                let idx = i as usize * d2 * d3 + j * d3 + k;
                lr[j] = re.get(d, idx);
                li[j] = im.get(d, idx);
            }
            fft1d(&mut lr, &mut li, false);
            for j in 0..d2 {
                let idx = i as usize * d2 * d3 + j * d3 + k;
                re.set(d, idx, lr[j]);
                im.set(d, idx, li[j]);
            }
        }
        planes_done += 1;
    });
    // d3 strided transforms of length d2 per plane, plus the
    // gather/scatter (2 mem-equivalents per element).
    let fft_flops = 5.0 * d2 as f64 * (d2 as f64).log2().max(1.0);
    ctx.charge_flops(planes_done as f64 * d3 as f64 * (fft_flops + 2.0 * d2 as f64));
}

/// Transpose between A and B (axes 1↔3).
///
/// params: dir (0: A(i,j,k)->B(k,j,i), 1: B(k,j,i)->A(i,j,k)), n1, n2, n3
fn fft_transpose<M: SharedMem>(ctx: &mut OmpCtx<'_, M>) {
    let mut p = ctx.params();
    let dir = p.u64();
    let n1 = p.u64() as usize;
    let n2 = p.u64() as usize;
    let n3 = p.u64() as usize;
    let are = ctx.f64vec("fft_are");
    let aim = ctx.f64vec("fft_aim");
    let bre = ctx.f64vec("fft_bre");
    let bim = ctx.f64vec("fft_bim");
    if dir == 0 {
        // Partition over OUTPUT planes of B (index k).
        let mut lr = vec![0.0; n1];
        let mut li = vec![0.0; n1];
        let mut planes_done = 0u64;
        ctx.for_static(0..n3 as u64, |ctx, k| {
            for j in 0..n2 {
                let d = ctx.dsm();
                for (i, (r, m)) in lr.iter_mut().zip(li.iter_mut()).enumerate() {
                    let src = i * n2 * n3 + j * n3 + k as usize;
                    *r = are.get(d, src);
                    *m = aim.get(d, src);
                }
                let off = k as usize * n2 * n1 + j * n1;
                bre.write_from(d, off, &lr);
                bim.write_from(d, off, &li);
            }
            planes_done += 1;
        });
        // Pure data movement: 2 mem-equivalents per complex
        // element of the output plane (n2 × n1 of them).
        ctx.charge_flops(planes_done as f64 * (n2 * n1) as f64 * 2.0);
    } else {
        // Partition over OUTPUT planes of A (index i).
        let mut lr = vec![0.0; n3];
        let mut li = vec![0.0; n3];
        let mut planes_done = 0u64;
        ctx.for_static(0..n1 as u64, |ctx, i| {
            for j in 0..n2 {
                let d = ctx.dsm();
                for (k, (r, m)) in lr.iter_mut().zip(li.iter_mut()).enumerate() {
                    let src = k * n2 * n1 + j * n1 + i as usize;
                    *r = bre.get(d, src);
                    *m = bim.get(d, src);
                }
                let off = i as usize * n2 * n3 + j * n3;
                are.write_from(d, off, &lr);
                aim.write_from(d, off, &li);
            }
            planes_done += 1;
        });
        ctx.charge_flops(planes_done as f64 * (n2 * n3) as f64 * 2.0);
    }
}

impl Kernel for Fft3d {
    fn name(&self) -> &'static str {
        "3D-FFT"
    }

    fn add_regions(&self, p: OmpProgram) -> OmpProgram {
        p.portable("fft_init", portable!(fft_init))
            .portable("fft_evolve", portable!(fft_evolve))
            .portable("fft_dim3", portable!(fft_dim3))
            .portable("fft_dim2", portable!(fft_dim2))
            .portable("fft_transpose", portable!(fft_transpose))
    }

    fn setup(&self, sys: &mut dyn Host) {
        let total = self.total() as u64;
        sys.alloc_f64("fft_are", total);
        sys.alloc_f64("fft_aim", total);
        sys.alloc_f64("fft_bre", total);
        sys.alloc_f64("fft_bim", total);
        sys.parallel("fft_init", &Params::new().u64(total).build());
    }

    fn step(&self, sys: &mut dyn Host, iter: usize) {
        let (n1, n2, n3) = (self.n1 as u64, self.n2 as u64, self.n3 as u64);
        let total = self.total() as u64;
        sys.parallel(
            "fft_evolve",
            &Params::new().u64(total).u64(iter as u64).build(),
        );
        sys.parallel(
            "fft_dim3",
            &Params::new().u64(0).u64(n1).u64(n2).u64(n3).build(),
        );
        sys.parallel("fft_dim2", &Params::new().u64(n1).u64(n2).u64(n3).build());
        sys.parallel(
            "fft_transpose",
            &Params::new().u64(0).u64(n1).u64(n2).u64(n3).build(),
        );
        sys.parallel(
            "fft_dim3",
            &Params::new().u64(1).u64(n3).u64(n2).u64(n1).build(),
        );
        sys.parallel(
            "fft_transpose",
            &Params::new().u64(1).u64(n1).u64(n2).u64(n3).build(),
        );
    }

    fn default_iters(&self) -> usize {
        100
    }

    fn verify(&self, sys: &mut dyn ReadBack, iters: usize) -> f64 {
        let (rre, rim) = self.reference(iters);
        let mut got = vec![0.0; self.total()];
        sys.read_f64s("fft_are", 0, &mut got);
        let err = max_abs_diff(0.0, &got, &rre);
        sys.read_f64s("fft_aim", 0, &mut got);
        max_abs_diff(err, &got, &rim)
    }

    fn shared_bytes(&self) -> u64 {
        4 * self.total() as u64 * 8
    }

    fn cost_profile(&self) -> Vec<(&'static str, f64)> {
        // Uniform regions only: init (2 writes) and evolve (a complex
        // multiply: 6 flops + 2 mem-equivalents) per flat element. The
        // FFT passes and transposes charge exact FLOPs in-region
        // because their per-plane work depends on the orientation the
        // call runs in.
        vec![("fft_init", 2.0), ("fft_evolve", 8.0)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_kernel;
    use nowmp_core::{ClusterConfig, LeaveSel};

    /// O(n^2) reference DFT.
    fn dft(re: &[f64], im: &[f64], inverse: bool) -> (Vec<f64>, Vec<f64>) {
        let n = re.len();
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut or_ = vec![0.0; n];
        let mut oi = vec![0.0; n];
        for k in 0..n {
            for t in 0..n {
                let ang = sign * 2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
                or_[k] += re[t] * ang.cos() - im[t] * ang.sin();
                oi[k] += re[t] * ang.sin() + im[t] * ang.cos();
            }
            if inverse {
                or_[k] /= n as f64;
                oi[k] /= n as f64;
            }
        }
        (or_, oi)
    }

    #[test]
    fn fft1d_matches_naive_dft() {
        let n = 16;
        let re: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let im: Vec<f64> = (0..n).map(|i| (i as f64 * 0.71).cos()).collect();
        let (dre, dim_) = dft(&re, &im, false);
        let mut fr = re.clone();
        let mut fi = im.clone();
        fft1d(&mut fr, &mut fi, false);
        for k in 0..n {
            assert!((fr[k] - dre[k]).abs() < 1e-9, "re[{k}]");
            assert!((fi[k] - dim_[k]).abs() < 1e-9, "im[{k}]");
        }
    }

    #[test]
    fn fft1d_inverse_roundtrip() {
        let n = 64;
        let re: Vec<f64> = (0..n).map(|i| ((i * 13 % 29) as f64) / 7.0).collect();
        let im: Vec<f64> = (0..n).map(|i| ((i * 7 % 31) as f64) / 11.0).collect();
        let mut fr = re.clone();
        let mut fi = im.clone();
        fft1d(&mut fr, &mut fi, false);
        fft1d(&mut fr, &mut fi, true);
        for k in 0..n {
            assert!((fr[k] - re[k]).abs() < 1e-10);
            assert!((fi[k] - im[k]).abs() < 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn fft1d_rejects_non_power_of_two() {
        let mut re = vec![0.0; 12];
        let mut im = vec![0.0; 12];
        fft1d(&mut re, &mut im, false);
    }

    #[test]
    fn parallel_matches_reference_exactly() {
        for procs in [1, 2, 4] {
            let f = Fft3d::new(8, 4, 4);
            let (sys, err) = run_kernel(&f, ClusterConfig::test(procs + 1, procs), 2);
            assert_eq!(err, 0.0, "procs={procs}: FFT pipeline must be bit-exact");
            sys.shutdown();
        }
    }

    #[test]
    fn fft_under_adaptation_stays_exact() {
        let f = Fft3d::new(8, 4, 4);
        let program = crate::build_program(&[&f]);
        let mut sys = nowmp_omp::OmpSystem::new(ClusterConfig::test(5, 4), program);
        f.setup(&mut sys);
        for it in 0..3 {
            if it == 1 {
                sys.adapt().leave(LeaveSel::Pid(3), None).unwrap();
                sys.join_ready().unwrap();
            }
            f.step(&mut sys, it);
        }
        let err = f.verify(&mut sys, 3);
        assert_eq!(err, 0.0);
        sys.shutdown();
    }
}
