//! Where a cold start's simulated time goes: NBF (2 048 atoms × 16
//! partners, the `nbf16_current` size) on 16 hosts of the current
//! generation, paper models, adaptive off. Prints each step's
//! simulated time, step 0's split by process from the virtual clock's
//! ledger, and what each host sent in step 0, from the network's
//! per-link counters (docs/DATAPLANE.md, "Cold pages"). Panics unless
//! NBF verifies.
//!
//! `cargo run --release -p nowmp-bench --example cold_steps`

use nowmp_apps::nbf::Nbf;
use nowmp_bench::{bench_cfg_for, measure, Table};
use nowmp_tmk::DsmConfig;
use nowmp_util::Cause;

fn main() {
    let (hosts, iters) = (16, 4);
    let kernel = Nbf::new(2048, 16);
    let cfg = bench_cfg_for(&kernel, DsmConfig::default_4k(), hosts, hosts);
    let mut net = Vec::new();
    let run = measure(
        &kernel,
        cfg.with_adaptive(false),
        iters,
        false,
        |sys, _| net.push(sys.net_stats()),
        true,
    );
    assert_eq!(run.err, 0.0, "NBF verifies");
    let steps = run
        .steps
        .iter()
        .enumerate()
        .map(|(i, (secs, _))| vec![i.to_string(), format!("{:.2}", secs * 1e3)])
        .collect();
    println!(
        "{}",
        Table::new("Simulated time per step", "Step | ms", steps)
    );
    let ms = |ns: u64| format!("{:.2}", ns as f64 / 1e6);
    let causes = [
        Cause::Fetch,
        Cause::Push,
        Cause::Join,
        Cause::Region,
        Cause::Transmit,
        Cause::Compute,
        Cause::Other,
    ];
    let rows = run.ledger[0]
        .iter()
        .enumerate()
        .map(|(rank, p)| {
            let mut row = vec![rank.to_string()];
            row.extend(causes.iter().map(|&c| ms(p.app(c))));
            row.push(ms(p.svc(Cause::Transmit)));
            row
        })
        .collect();
    let names: Vec<&str> = causes.iter().map(|c| c.name()).collect();
    println!(
        "{}",
        Table::new(
            "Step 0 by rank: application thread ms per cause, then service thread ms on its link",
            &format!("Rank | {} | svc transmit", names.join(" | ")),
            rows,
        )
    );
    let step0 = net[1].since(&net[0]);
    let rows = step0
        .links
        .iter()
        .enumerate()
        .map(|(host, l)| {
            let kb = format!("{:.1}", l.bytes_out as f64 / 1e3);
            vec![host.to_string(), kb, l.msgs_out.to_string()]
        })
        .collect();
    println!(
        "{}",
        Table::new(
            "Step 0 by host: what its link sent",
            "Host | KB out | msgs out",
            rows,
        )
    );
}
