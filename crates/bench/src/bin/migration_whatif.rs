//! **§5.3 what-if** — "The cost of adaptation by migration alone is
//! substantially higher."
//!
//! > "Two components determine the direct cost of migration: (i) the
//! > cost to create a new process on the new host (approximately 0.6 to
//! > 0.8 seconds), and (ii) the cost to move the process's image (at a
//! > rate of approx. 8.1 MByte/s). For Jacobi, this cost is about 6.7
//! > seconds, for 3D-FFT 6.13 seconds, for Gauss 6.9 seconds, and for
//! > NBF 7.66 seconds."
//!
//! For each kernel we run a few iterations on 8 processes, then force
//! an urgent leave and measure the actual migration stall, comparing it
//! against the spawn + image/8.1 MB/s model and against the cost of a
//! normal leave of the same process.

use nowmp_apps::Kernel;
use nowmp_bench::{bench_cfg, bench_cost_model, measure, print_table, BenchApps};
use nowmp_core::{EventKind, LeaveSel};

fn main() {
    nowmp_bench::smoke_from_args();
    let apps: Vec<(Box<dyn Kernel>, usize)> = vec![
        (Box::new(BenchApps::jacobi()), BenchApps::jacobi_iters()),
        (Box::new(BenchApps::gauss()), BenchApps::gauss_iters()),
        (Box::new(BenchApps::fft()), BenchApps::fft_iters()),
        (Box::new(BenchApps::nbf()), BenchApps::nbf_iters()),
    ];
    let cost = bench_cost_model();

    let mut rows = Vec::new();
    for (app, iters) in &apps {
        let mid = iters / 2;
        // Urgent leave (migration) run.
        let urgent = measure(
            app.as_ref(),
            bench_cfg(8, 8),
            *iters,
            true,
            |sys, it| {
                if it == mid {
                    let g = sys.adapt().leave(LeaveSel::Pid(7), None).unwrap();
                    assert!(sys.shared().force_urgent(g));
                }
            },
            true,
        );
        assert_eq!(urgent.err, 0.0);
        let (mig_bytes, mig_secs) = urgent
            .log
            .iter()
            .find_map(|e| match e.kind {
                EventKind::UrgentMigrationStart { image_bytes, .. } => Some(image_bytes),
                _ => None,
            })
            .zip(urgent.log.iter().find_map(|e| match e.kind {
                EventKind::UrgentMigrationDone { took, .. } => Some(took.as_secs_f64()),
                _ => None,
            }))
            .expect("urgent migration must be logged");
        let modeled =
            cost.spawn_time().as_secs_f64() + cost.migration_time(mig_bytes).as_secs_f64();

        // Normal leave of the same pid for comparison.
        let normal = measure(
            app.as_ref(),
            bench_cfg(8, 8),
            *iters,
            true,
            |sys, it| {
                if it == mid {
                    sys.adapt()
                        .leave(LeaveSel::Pid(7), None)
                        .expect("normal leave request");
                }
            },
            true,
        );
        assert_eq!(normal.err, 0.0);
        let normal_adapt = normal
            .log
            .iter()
            .find_map(|e| match e.kind {
                EventKind::Adaptation { took, .. } => Some(took.as_secs_f64()),
                _ => None,
            })
            .expect("the normal leave must commit at an adaptation point");

        rows.push(vec![
            app.name().to_string(),
            nowmp_util::fmt_bytes(mig_bytes as u64),
            format!("{modeled:.2}"),
            format!("{mig_secs:.2}"),
            format!("{normal_adapt:.3}"),
            format!("{:.1}x", mig_secs / normal_adapt.max(1e-9)),
        ]);
    }

    print_table(
        "§5.3 what-if: urgent-leave migration vs normal leave",
        &[
            "App",
            "Image",
            "Model spawn+xfer(s)",
            "Measured migration(s)",
            "Normal leave(s)",
            "Urgent/Normal",
        ],
        &rows,
    );
    println!(
        "\nPaper shape check: migration alone costs several times a normal leave\n\
         (paper: 6-8 s migration vs 1-9 s normal adaptations on full-size problems),\n\
         and the measured stall matches spawn + image/8.1MB/s. On top of the stall,\n\
         multiplexing idles the team until the next adaptation point (Figure 2c)."
    );
}
