//! # nowmp-apps — the paper's application kernels
//!
//! The four programs of the PPoPP'99 evaluation (§5.2), written against
//! the OpenMP-style API exactly as their OpenMP sources would compile:
//! one outlined region per parallel construct, iteration partitioning
//! re-derived from `(pid, nprocs)` at every fork, **zero
//! adaptivity-specific code** — and zero engine-specific code: each of
//! the 13 region bodies is one function generic over
//! [`nowmp_omp::SharedMem`], registered once with
//! [`nowmp_omp::portable!`], and each driver (`setup` / `step` /
//! `verify`) talks to a [`Host`], be it [`nowmp_omp::OmpSystem`] or
//! the task engine ([`tasks`]).
//!
//! | kernel | paper size | character |
//! |---|---|---|
//! | [`jacobi::Jacobi`] | 2500², 1000 iters | regular stencil; neighbor diffs |
//! | [`gauss::Gauss`] | 3072², 3072 iters | pivot-row broadcast; full pages, no diffs |
//! | [`fft3d::Fft3d`] | 128×64×64, 100 iters | transpose all-to-all |
//! | [`nbf::Nbf`] | 131072 atoms × 80 partners | irregular access, reduction |
//!
//! Every kernel implements [`Kernel`]: the benches drive them uniformly
//! and each carries a serial reference for verification. Problem sizes
//! are parameters; tests run laptop-scale instances. The one
//! synchronization a body asks for, `nbf_forces`' `reduction(+:
//! energy)`, is a clause on the region (`portable!(body, reduction(+)
//! => epilogue)`), not a call in the body. On the current generation
//! it rides the region's join and the master runs the epilogue after
//! it; the 1999 generation lowers it to the paper's scratch-page
//! protocol inside the region.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fft3d;
pub mod gauss;
pub mod jacobi;
pub mod nbf;
pub mod tasks;

use nowmp_net::CostModel;
use nowmp_omp::{Host, OmpProgram, OmpSystem, ReadBack};

/// A benchmark kernel: registers its regions, initializes shared data,
/// steps iterations, and verifies against a serial reference.
pub trait Kernel: Send + Sync {
    /// Short name ("Jacobi", "Gauss", "3D-FFT", "NBF").
    fn name(&self) -> &'static str;

    /// Register this kernel's parallel regions.
    fn add_regions(&self, p: OmpProgram) -> OmpProgram;

    /// Allocate and initialize shared data (master, before the loop).
    fn setup(&self, sys: &mut dyn Host);

    /// Execute one outer iteration (one or more parallel constructs).
    fn step(&self, sys: &mut dyn Host, iter: usize);

    /// Default outer iteration count for a full run.
    fn default_iters(&self) -> usize;

    /// Maximum absolute error against the serial reference after
    /// `iters` iterations (0.0 = exact).
    fn verify(&self, sys: &mut dyn ReadBack, iters: usize) -> f64;

    /// Shared memory the kernel allocates, in bytes.
    fn shared_bytes(&self) -> u64;

    /// Calibrated per-iteration compute cost of each *uniform* region,
    /// in FLOPs (one iteration = one index of the region's worksharing
    /// loop). Converted to time through the cost model's
    /// `flops_per_sec` by [`with_kernel_costs`], so profile-driven and
    /// in-region (`charge_flops`) charges share one calibration.
    /// Regions whose per-index work varies (e.g. the shrinking Gauss
    /// elimination step) charge exact FLOPs in-region via
    /// [`nowmp_omp::OmpCtx::charge_flops`] and are absent here.
    fn cost_profile(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// `err` raised to the largest `|got - want|` — the fold every
/// `verify` runs over what it reads back.
pub(crate) fn max_abs_diff(err: f64, got: &[f64], want: &[f64]) -> f64 {
    got.iter()
        .zip(want)
        .fold(err, |e, (g, w)| e.max((g - w).abs()))
}

/// Install `kernel`'s calibrated compute costs into `cost`, switching
/// compute charging on — the virtual-clock what-if entry point. The
/// profile's FLOP counts convert through `cost.flops_per_sec`, so a
/// what-if model with a faster/slower CPU rescales every kernel
/// consistently.
pub fn with_kernel_costs(mut cost: CostModel, kernel: &dyn Kernel) -> CostModel {
    for (region, flops) in kernel.cost_profile() {
        let per_iter = cost.flops_time(flops);
        cost = cost.with_region_cost(region, per_iter);
    }
    // Kernels that charge FLOPs in-region may have an empty profile;
    // charging must still switch on for them.
    cost.emulate_compute = true;
    cost
}

/// Build the complete program for a set of kernels (regions of all four
/// can coexist; names are prefixed per kernel).
pub fn build_program(kernels: &[&dyn Kernel]) -> OmpProgram {
    let mut p = OmpProgram::new();
    for k in kernels {
        p = k.add_regions(p);
    }
    p
}

/// Convenience: run `kernel` for `iters` iterations on a fresh system.
pub fn run_kernel(
    kernel: &dyn Kernel,
    cfg: nowmp_core::ClusterConfig,
    iters: usize,
) -> (OmpSystem, f64) {
    let program = build_program(&[kernel]);
    let mut sys = OmpSystem::new(cfg, program);
    kernel.setup(&mut sys);
    for it in 0..iters {
        kernel.step(&mut sys, it);
    }
    let err = kernel.verify(&mut sys, iters);
    (sys, err)
}
