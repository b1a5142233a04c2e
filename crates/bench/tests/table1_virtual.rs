//! Quantitative Table 1 reproduction on the virtual clock.
//!
//! With the per-kernel FLOP-calibrated `CostModel` charging compute at
//! every worksharing chunk boundary and the §5.1 wire model charging
//! communication, the simulated runtimes at 1/4/8 processes yield
//! *speedup values* — not just orderings — that must land on the pinned
//! paper-shaped targets below (tolerance ±5%; see `docs/TIME.md` for
//! the calibration table and how the targets were derived).
//!
//! Two apps cover the paper's two regimes:
//! * **Jacobi** — the regular, compute-dominated stencil: near-linear
//!   scaling (the paper's headline Table 1 behavior);
//! * **NBF** — the irregular kernel: scattered partner reads turn into
//!   page traffic, so scaling is clearly sub-linear, again matching the
//!   paper's shape for the irregular application.

use nowmp_apps::{jacobi::Jacobi, nbf::Nbf, with_kernel_costs, Kernel};
use nowmp_bench::measure;
use nowmp_core::ClusterConfig;
use nowmp_net::{CostModel, NetModel};
use nowmp_tmk::DsmConfig;
use nowmp_util::Clock;

/// Tolerance on speedup values. The four measured speedups sit 0.1-4.4%
/// off their targets (Jacobi S(4), the widest, repeats to four digits).
const TOL: f64 = 0.05;

/// The paper's wire and host models with `kernel`'s compute charged, on
/// a fresh virtual clock, under the shipped (current-generation) DSM.
fn costed_cfg(kernel: &dyn Kernel, procs: usize) -> ClusterConfig {
    ClusterConfig::test(procs, procs)
        .with_net_model(NetModel::paper_1999())
        .with_cost_model(with_kernel_costs(CostModel::paper_1999(), kernel))
        .with_dsm(DsmConfig::default_4k())
        .with_clock(Clock::new_virtual())
}

fn simulated_secs(kernel: &dyn Kernel, procs: usize, iters: usize) -> f64 {
    // The 1999 system under reproduction used the flat fork
    // broadcast with flat write-notice payloads and strict demand
    // paging; the targets below calibrate against exactly those
    // wire sizes and fault round-trips. The tree/RLE and overlap
    // redesigns are measured separately (whatif_scale --broadcast /
    // --dataplane).
    let cfg = costed_cfg(kernel, procs).generation_1999();
    measure(kernel, cfg, iters, true, |_, _| {}, false).secs
}

fn assert_speedup(app: &str, procs: usize, measured: f64, target: f64) {
    let rel = (measured - target).abs() / target;
    println!(
        "{app} S({procs}) = {measured:.3} (target {target:.2}, delta {:.1}%)",
        rel * 100.0
    );
    assert!(
        rel <= TOL,
        "{app} speedup at {procs} procs: measured {measured:.3}, target {target:.2} \
         (off by {:.1}% > {:.0}%)",
        rel * 100.0,
        TOL * 100.0
    );
}

#[test]
fn jacobi_reproduces_table1_speedups() {
    let k = Jacobi::new(1536);
    let iters = 4;
    let t1 = simulated_secs(&k, 1, iters);
    let t4 = simulated_secs(&k, 4, iters);
    let t8 = simulated_secs(&k, 8, iters);
    println!("Jacobi 1536²: T1={t1:.3}s T4={t4:.3}s T8={t8:.3}s");
    assert_speedup("Jacobi", 4, t1 / t4, 3.4);
    assert_speedup("Jacobi", 8, t1 / t8, 5.2);
}

#[test]
fn nbf_reproduces_table1_speedups() {
    let k = Nbf::new(4096, 64);
    let iters = 2;
    let t1 = simulated_secs(&k, 1, iters);
    let t4 = simulated_secs(&k, 4, iters);
    let t8 = simulated_secs(&k, 8, iters);
    println!("NBF 4096x64: T1={t1:.3}s T4={t4:.3}s T8={t8:.3}s");
    assert_speedup("NBF", 4, t1 / t4, 3.0);
    assert_speedup("NBF", 8, t1 / t8, 4.5);
}

/// The CI `determinism` job's timeline gate: the Table 1 Jacobi instance
/// at 8 hosts, five runs per system generation, must repeat to within
/// 1.5% (measured: 0.0-0.4%; what is left is the order in which senders
/// that reach a link at the same tick are served — docs/TIME.md).
/// Ignored in the default suite only for its cost: ten 8-process
/// 1536² runs take most of a minute in a debug build.
#[test]
#[ignore = "run in release by the CI determinism job"]
fn jacobi_8_host_timeline_repeats_within_band() {
    let k = Jacobi::new(1536);
    let paper = |_| simulated_secs(&k, 8, 4);
    let current = |_| measure(&k, costed_cfg(&k, 8), 4, true, |_, _| {}, false).secs;
    for (generation, runs) in [
        ("1999", (0..5).map(paper).collect::<Vec<f64>>()),
        ("current", (0..5).map(current).collect()),
    ] {
        let lo = runs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = runs.iter().copied().fold(0.0, f64::max);
        let spread = (hi - lo) / lo;
        println!("{generation}: {runs:?} spread {:.2}%", spread * 100.0);
        assert!(
            spread <= 0.015,
            "{generation} generation: RunResult.secs spreads {:.2}% over 5 runs: {runs:?}",
            spread * 100.0
        );
    }
}
