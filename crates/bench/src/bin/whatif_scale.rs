//! **What-if scaling sweep** — scenarios no 1999 machine room could
//! run.
//!
//! The paper's testbed was eight homogeneous 300 MHz Pentium IIs. With
//! the `CostModel` charging calibrated compute to the virtual clock,
//! the same application binaries can be "run" on NOWs that never
//! existed, in seconds of wall time:
//!
//! * **scale-out** — 2..32 workstations (the paper stopped at 8);
//! * **heterogeneous** — every odd-numbered workstation at half speed
//!   (a mixed-generation machine room). Static schedules stretch to
//!   the stragglers: the measured curve shows exactly the flattening
//!   the paper's §7 future work anticipates;
//! * **loaded host** — one workstation with a competing background
//!   process (load 1.0 ⇒ effective speed ½): the classic "someone sat
//!   down at their workstation" scenario from §1, *without* the owner
//!   asking the process to leave.
//!
//! **`--broadcast {flat,tree}`** A/Bs the fork *dissemination*:
//! `flat` is the 1999 system (master-serialized fork sends, flat
//! write-notice payloads), `tree` relays down the fork shape the cost
//! models give (the greedy LogP schedule; binomial when hops are free).
//! **`--reduce {flat,tree}`** A/Bs the *collection* side: `flat` has
//! every slave send its `JoinArrive` (and barrier arrival) straight to
//! the master while `tree` aggregates up the reduce shape and relays
//! barrier releases down the fork shape (see `docs/BROADCAST.md`).
//! **`--dataplane {demand,overlap}`** A/Bs the *data plane*: `demand`
//! is faithful 1999 demand paging (every fault a blocking sequential
//! round-trip), `overlap` is the current plane — pipelined
//! multi-creator faults, the writer push a region's faults subscribe
//! to, and a fixed 1 KB of piggybacked hot diffs, all on together (see
//! `docs/DATAPLANE.md`). The default sweeps the four system
//! generations: `flat/flat/demand` (1999), `tree/flat/demand` (fork
//! redesign), `tree/tree/demand` (both collectives treed),
//! `tree/tree/overlap` (the full overlapped system); passing flags
//! pins lanes.
//!
//! The data plane binds on *irregular* access patterns, so after the
//! Jacobi generation sweep the run A/Bs demand vs overlap on **NBF**
//! (the paper's irregular kernel: every atom reads 80 scattered
//! partner positions, so its pages are multi-writer and every rank
//! re-faults the whole position array each iteration). On regular
//! nearest-neighbour Jacobi the collectives dominate at this scale and
//! overlap is ≈ neutral; on NBF it is the headline win this sweep
//! gates.
//!
//! The run doubles as the **CI scaling gate**: it fails if the
//! tree/tree 16-host homogeneous speedup, the tree/tree-over-flat/flat
//! advantage at 32 hosts, the tree/tree 32-host speedup, the
//! tree-reduce-over-flat-reduce ratio at 32 hosts, the NBF
//! overlapped-data-plane 32-host speedup, or the NBF overlap-over-
//! demand ratio at 32 hosts drops below the floors pinned in
//! `crates/bench/baselines.toml`. (Host counts past 32 are the task
//! engine's: the harness's `task1024_engine` workload.)
//!
//! Every run uses the virtual clock regardless of `NOWMP_CLOCK`; the
//! sweep completes in well under two minutes of wall time (`--smoke`
//! in CI).

use nowmp_apps::{jacobi::Jacobi, nbf::Nbf, with_kernel_costs, Kernel};
use nowmp_bench::{load_baselines, measure, whatif_json, Scale, Table, WhatifLane};
use nowmp_core::ClusterConfig;
use nowmp_net::{CostModel, HostId, NetModel};
use nowmp_tmk::DataPlaneConfig::{self, Demand, Overlap};
use nowmp_tmk::{Broadcast, CollectiveConfig, DsmConfig};
use nowmp_util::Clock;
use std::time::Instant;

/// Scenario family: how the pool's hosts differ from the reference.
#[derive(Clone, Copy, PartialEq)]
enum Scenario {
    Homogeneous,
    /// Odd-numbered hosts run at half speed.
    Heterogeneous,
    /// Host 1 carries one competing background process.
    LoadedHost,
}

impl Scenario {
    fn name(&self) -> &'static str {
        match self {
            Scenario::Homogeneous => "homogeneous",
            Scenario::Heterogeneous => "heterogeneous",
            Scenario::LoadedHost => "loaded-host",
        }
    }

    fn apply(&self, mut cost: CostModel, hosts: usize) -> CostModel {
        match self {
            Scenario::Homogeneous => {}
            Scenario::Heterogeneous => {
                for h in (1..hosts).step_by(2) {
                    cost = cost.with_host_speed(HostId(h as u16), 0.5);
                }
            }
            Scenario::LoadedHost => {
                if hosts > 1 {
                    cost = cost.with_host_load(HostId(1), 1.0);
                }
            }
        }
        cost
    }
}

/// One lane of the sweep: fork dissemination × join/barrier collection
/// × data plane.
#[derive(Clone, Copy, PartialEq)]
struct Mode {
    fork: Broadcast,
    reduce: Broadcast,
    dataplane: DataPlaneConfig,
}

impl Mode {
    fn collectives(&self) -> CollectiveConfig {
        CollectiveConfig::default()
            .with_fork(self.fork)
            .with_join_reduce(self.reduce)
    }
}

fn bname(b: Broadcast) -> &'static str {
    match b {
        Broadcast::Flat => "flat",
        Broadcast::Tree => "tree",
    }
}

fn dname(d: DataPlaneConfig) -> &'static str {
    match d {
        Demand => "demand",
        Overlap => "overlap",
    }
}

fn cfg(kernel: &dyn Kernel, scenario: Scenario, procs: usize, mode: Mode) -> ClusterConfig {
    let cost = scenario.apply(with_kernel_costs(CostModel::paper_1999(), kernel), procs);
    ClusterConfig::test(procs, procs)
        .with_net_model(NetModel::paper_1999())
        .with_cost_model(cost)
        .with_dsm(DsmConfig::default_4k())
        .with_collectives(mode.collectives())
        .with_dataplane(mode.dataplane)
        .with_clock(Clock::new_virtual())
}

/// The value of `flag`, parsed as the one of `values` whose label
/// (`name`) it spells.
fn lane_from_args<T: Copy>(flag: &str, values: [T; 2], name: fn(T) -> &'static str) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    let given = args.get(args.iter().position(|a| a == flag)? + 1);
    let parsed = values
        .into_iter()
        .find(|&v| given.map(String::as_str) == Some(name(v)));
    assert!(
        parsed.is_some(),
        "{flag} expects {}|{}, got {given:?}",
        name(values[0]),
        name(values[1])
    );
    parsed
}

/// `--broadcast` / `--reduce` / `--dataplane` pin one lane each; with
/// none given the sweep A/Bs the four system generations.
fn modes_from_args() -> Vec<Mode> {
    let shapes = [Broadcast::Flat, Broadcast::Tree];
    let fork = lane_from_args("--broadcast", shapes, bname);
    let reduce = lane_from_args("--reduce", shapes, bname);
    let dataplane = lane_from_args("--dataplane", [Demand, Overlap], dname);
    if fork.is_none() && reduce.is_none() && dataplane.is_none() {
        // The four generations, newest first.
        return vec![
            Mode {
                fork: Broadcast::Tree,
                reduce: Broadcast::Tree,
                dataplane: Overlap,
            },
            Mode {
                fork: Broadcast::Tree,
                reduce: Broadcast::Tree,
                dataplane: Demand,
            },
            Mode {
                fork: Broadcast::Tree,
                reduce: Broadcast::Flat,
                dataplane: Demand,
            },
            Mode {
                fork: Broadcast::Flat,
                reduce: Broadcast::Flat,
                dataplane: Demand,
            },
        ];
    }
    // Any pinned flag narrows its axis; unpinned collective axes keep
    // their A/B pairs so the pinned lane still has a comparison.
    let forks = fork.map(|f| vec![f]).unwrap_or(vec![Broadcast::Tree]);
    let reduces = reduce
        .map(|r| vec![r])
        .unwrap_or(vec![Broadcast::Tree, Broadcast::Flat]);
    let dataplanes = dataplane.map(|d| vec![d]).unwrap_or(vec![Overlap, Demand]);
    let mut out = Vec::new();
    for &f in &forks {
        for &r in &reduces {
            for &d in &dataplanes {
                out.push(Mode {
                    fork: f,
                    reduce: r,
                    dataplane: d,
                });
            }
        }
    }
    out
}

/// Node counts for one (scenario, mode) lane. Smoke trims the
/// off-diagonal lanes so the sweep stays CI-sized while keeping every
/// column the scaling gates and the A/B ratios need.
fn scales(scale: Scale, scenario: Scenario, mode: Mode) -> &'static [usize] {
    if scale == Scale::Full {
        return &[2, 4, 8, 16, 32];
    }
    match (scenario, mode.fork, mode.reduce, mode.dataplane) {
        // The gate lanes: tree/tree homogeneous needs the full curve
        // for both data planes (16-host floor, 32-host floors, every
        // A/B numerator and denominator).
        (Scenario::Homogeneous, Broadcast::Tree, Broadcast::Tree, _) => &[2, 4, 8, 16, 32],
        // A/B baselines at the ceiling end: tree/flat isolates the
        // collection side, flat/flat is the 1999 system.
        (Scenario::Homogeneous, _, _, _) => &[8, 16, 32],
        // What-if color rides the newest lane only; the demand lanes
        // exist for the gates and A/Bs above.
        (_, _, Broadcast::Tree, Overlap) => &[2, 8, 32],
        (_, _, Broadcast::Tree, Demand) => &[32],
        (_, _, _, _) => &[8, 32],
    }
}

/// Print the data-plane counters of `kernel`'s 32-host overlap lane —
/// what writers pushed and how much of it a fault actually claimed —
/// and hold the push ledger to "no silent waste": nothing is wasted,
/// or hit, that was not sent first.
fn print_dataplane_ledger(kernel: &str, d: &nowmp_tmk::DsmSnapshot) {
    let pct = |part: u64, whole: u64| 100.0 * part as f64 / whole.max(1) as f64;
    println!(
        "\nData plane, {kernel} at 32 homogeneous hosts (overlap): pushed {} diffs ({} bytes), \
         hit {} ({:.0}%), wasted {}; piggybacked {} diff bytes",
        d.push_sent,
        d.push_bytes,
        d.push_hits,
        pct(d.push_hits, d.push_sent),
        d.push_wasted,
        d.piggyback_bytes,
    );
    assert!(
        d.push_hits + d.push_wasted <= d.push_sent,
        "no silent waste: every pushed diff a reader applied or dropped must have been \
         sent (hit {} + wasted {} > sent {})",
        d.push_hits,
        d.push_wasted,
        d.push_sent
    );
}

fn main() {
    let scale = Scale::from_args();
    let modes = modes_from_args();
    let wall = Instant::now();
    // Big enough that compute dominates at small node counts (the
    // scaling story needs a compute-bound regime to roll over from),
    // small enough that the real work behind the virtual charge stays
    // cheap.
    let (jacobi, iters) = scale.pick((Jacobi::new(384), 2usize), (Jacobi::new(1024), 4));

    // Serial baseline on one reference workstation (scenarios only
    // differ in hosts the serial run never touches; a 1-process run
    // exchanges nothing, so the mode is irrelevant too).
    let t1 = measure(
        &jacobi,
        cfg(
            &jacobi,
            Scenario::Homogeneous,
            1,
            Mode {
                fork: Broadcast::Tree,
                reduce: Broadcast::Tree,
                dataplane: Demand,
            },
        ),
        iters,
        false,
        |_, _| {},
        false,
    )
    .secs;

    // One measurement per (scenario, mode, nprocs), kept once per row
    // and once per lane; the table, the JSON and the gates all read
    // these, so they can never disagree.
    let mut results: Vec<(Scenario, Mode, usize, f64)> = Vec::new();
    let mut lanes: Vec<WhatifLane> = Vec::new();
    let mut overlap32: Option<nowmp_tmk::DsmSnapshot> = None;
    for &scenario in &[
        Scenario::Homogeneous,
        Scenario::Heterogeneous,
        Scenario::LoadedHost,
    ] {
        for &mode in &modes {
            let mut samples = Vec::new();
            for &procs in scales(scale, scenario, mode) {
                let run = measure(
                    &jacobi,
                    cfg(&jacobi, scenario, procs, mode),
                    iters,
                    false,
                    |_, _| {},
                    false,
                );
                if scenario == Scenario::Homogeneous && mode.dataplane == Overlap && procs == 32 {
                    overlap32 = Some(run.dsm);
                }
                results.push((scenario, mode, procs, run.secs));
                samples.push((procs, run.secs));
            }
            lanes.push(WhatifLane {
                scenario: scenario.name().into(),
                broadcast: bname(mode.fork).into(),
                reduce: bname(mode.reduce).into(),
                dataplane: dname(mode.dataplane).into(),
                t1,
                samples,
            });
        }
    }
    let speedup = |secs: f64| t1 / secs.max(1e-12);

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|&(scenario, mode, procs, secs)| {
            vec![
                scenario.name().to_string(),
                bname(mode.fork).to_string(),
                bname(mode.reduce).to_string(),
                dname(mode.dataplane).to_string(),
                procs.to_string(),
                format!("{secs:.3}"),
                format!("{:.2}", speedup(secs)),
                format!("{:.0}%", 100.0 * speedup(secs) / procs as f64),
            ]
        })
        .collect();

    let title = format!(
        "What-if scaling sweep: Jacobi {n}x{n}, {iters} iters, virtual clock (T1 = {t1:.3}s)",
        n = jacobi.n
    );
    let table = Table::new(
        title,
        "Scenario | Broadcast | Reduce | Dataplane | Nodes | Sim(s) | Speedup | Efficiency",
        rows,
    );
    println!("\n{table}");

    // Data-plane counters at the Jacobi headline point (32 homogeneous
    // hosts, overlap lane): how much the writers pushed and how much of
    // it was actually claimed by a fault.
    if let Some(d) = &overlap32 {
        print_dataplane_ledger("Jacobi", d);
    }

    // --- Data-plane A/B on the irregular kernel --------------------------
    // Jacobi's nearest-neighbour faults are few, single-creator, and
    // dwarfed by the collectives at this scale, so the sweep above
    // shows overlap ≈ demand. NBF is where the data plane binds: the
    // position array is read scattered by every rank and multi-written
    // every iteration, so demand paging pays thousands of sequential
    // round-trips that pipeline + push take off the critical path.
    // This section always runs both planes — it *is* the A/B the gate
    // below pins (the lane flags only narrow the Jacobi sweep).
    let (nbf, nbf_iters) = scale.pick((Nbf::new(2048, 16), 4usize), (Nbf::new(4096, 64), 6));
    let ttd = Mode {
        fork: Broadcast::Tree,
        reduce: Broadcast::Tree,
        dataplane: Demand,
    };
    let tto = Mode {
        fork: Broadcast::Tree,
        reduce: Broadcast::Tree,
        dataplane: Overlap,
    };
    let nbf_t1 = measure(
        &nbf,
        cfg(&nbf, Scenario::Homogeneous, 1, ttd),
        nbf_iters,
        false,
        |_, _| {},
        false,
    )
    .secs;
    let nbf_scales: &[usize] = scale.pick(&[8, 32][..], &[2, 8, 32]);
    let mut nbf_results: Vec<(DataPlaneConfig, usize, f64)> = Vec::new();
    let mut nbf_overlap32: Option<nowmp_tmk::DsmSnapshot> = None;
    for &mode in &[ttd, tto] {
        let mut samples = Vec::new();
        for &procs in nbf_scales {
            let run = measure(
                &nbf,
                cfg(&nbf, Scenario::Homogeneous, procs, mode),
                nbf_iters,
                false,
                |_, _| {},
                false,
            );
            if mode.dataplane == Overlap && procs == 32 {
                nbf_overlap32 = Some(run.dsm);
            }
            nbf_results.push((mode.dataplane, procs, run.secs));
            samples.push((procs, run.secs));
        }
        lanes.push(WhatifLane {
            scenario: "nbf-homogeneous".into(),
            broadcast: "tree".into(),
            reduce: "tree".into(),
            dataplane: dname(mode.dataplane).into(),
            t1: nbf_t1,
            samples,
        });
    }
    let nbf_speedup = |dp: DataPlaneConfig, procs: usize| {
        nbf_results
            .iter()
            .find(|&&(d, p, _)| d == dp && p == procs)
            .map(|&(_, _, secs)| nbf_t1 / secs.max(1e-12))
    };
    let nbf_rows: Vec<Vec<String>> = nbf_results
        .iter()
        .map(|&(dp, procs, secs)| {
            vec![
                dname(dp).to_string(),
                procs.to_string(),
                format!("{secs:.3}"),
                format!("{:.2}", nbf_t1 / secs.max(1e-12)),
            ]
        })
        .collect();
    let nbf_table = Table::new(
        format!(
            "Data-plane A/B: NBF {a} atoms x {p} partners, {nbf_iters} iters, tree \
             collectives, homogeneous (T1 = {nbf_t1:.3}s)",
            a = nbf.atoms,
            p = nbf.partners
        ),
        "Dataplane | Nodes | Sim(s) | Speedup",
        nbf_rows,
    );
    println!("\n{nbf_table}");
    if let Some(d) = &nbf_overlap32 {
        print_dataplane_ledger("NBF", d);
    }
    if let (Some(ov32), Some(dm32)) = (nbf_speedup(Overlap, 32), nbf_speedup(Demand, 32)) {
        println!(
            "Dataplane A/B, NBF at 32 homogeneous hosts: overlap {ov32:.2}x vs demand \
             {dm32:.2}x ({:.2}x improvement)",
            ov32 / dm32
        );
    }

    let json = whatif_json(scale, t1, &lanes).render();
    std::fs::write("BENCH_whatif.json", &json).expect("write BENCH_whatif.json");
    println!("\nwrote BENCH_whatif.json ({} bytes)", json.len());

    let speedup_of = |s: Scenario, m: Mode, procs: usize| {
        results
            .iter()
            .find(|&&(ls, lm, lp, _)| ls == s && lm == m && lp == procs)
            .map(|&(_, _, _, secs)| speedup(secs))
    };
    let tfd = Mode {
        fork: Broadcast::Tree,
        reduce: Broadcast::Flat,
        dataplane: Demand,
    };
    let ffd = Mode {
        fork: Broadcast::Flat,
        reduce: Broadcast::Flat,
        dataplane: Demand,
    };

    // The A/B headlines at the ceiling end: what the fork tree bought
    // (ISSUE 5), what treeing the collection side buys on top (ISSUE
    // 6), and what overlapping the data plane buys on top of both
    // (ISSUE 7).
    if let (Some(tree32), Some(flat32)) = (
        speedup_of(Scenario::Homogeneous, ttd, 32),
        speedup_of(Scenario::Homogeneous, ffd, 32),
    ) {
        println!(
            "\nCollective A/B at 32 homogeneous hosts: tree/tree {tree32:.2}x vs \
             flat/flat {flat32:.2}x ({:.2}x improvement)",
            tree32 / flat32
        );
    }
    if let (Some(tt32), Some(tf32)) = (
        speedup_of(Scenario::Homogeneous, ttd, 32),
        speedup_of(Scenario::Homogeneous, tfd, 32),
    ) {
        println!(
            "Reduce A/B at 32 homogeneous hosts (tree fork both): tree reduce {tt32:.2}x vs \
             flat reduce {tf32:.2}x ({:.2}x improvement)",
            tt32 / tf32
        );
    }
    if let (Some(ov32), Some(dm32)) = (
        speedup_of(Scenario::Homogeneous, tto, 32),
        speedup_of(Scenario::Homogeneous, ttd, 32),
    ) {
        println!(
            "Dataplane A/B, Jacobi at 32 homogeneous hosts (tree collectives both): \
             overlap {ov32:.2}x vs demand {dm32:.2}x ({:.2}x) — regular nearest-neighbour \
             faults are collective-bound at this scale; see the NBF table for where the \
             data plane binds",
            ov32 / dm32
        );
    }

    // --- CI scaling gate -------------------------------------------------
    // Floors live in crates/bench/baselines.toml; a regression in the
    // broadcast, collection, or data-plane path fails the build here
    // instead of silently flattening the curve.
    let floors = load_baselines();
    if scale == Scale::Smoke {
        let homogeneous = |mode, procs| speedup_of(Scenario::Homogeneous, mode, procs);
        let ratio = |a: Option<f64>, b: Option<f64>| Some(a? / b?);
        let gates = [
            (
                "tree/tree homogeneous S(16)",
                homogeneous(ttd, 16),
                "tree_homogeneous_16_min_speedup",
            ),
            (
                "tree/tree homogeneous S(32)",
                homogeneous(ttd, 32),
                "tree_reduce_homogeneous_32_min_speedup",
            ),
            (
                "tree/flat ratio at 32 hosts",
                ratio(homogeneous(ttd, 32), homogeneous(ffd, 32)),
                "tree_over_flat_32_min_ratio",
            ),
            (
                "tree/flat reduce ratio at 32 hosts",
                ratio(homogeneous(ttd, 32), homogeneous(tfd, 32)),
                "tree_reduce_over_flat_reduce_32_min_ratio",
            ),
            (
                "NBF overlap homogeneous S(32)",
                nbf_speedup(Overlap, 32),
                "overlap_homogeneous_32_min_speedup",
            ),
            (
                "NBF overlap/demand ratio at 32 hosts",
                ratio(nbf_speedup(Overlap, 32), nbf_speedup(Demand, 32)),
                "overlap_over_demand_32_min_ratio",
            ),
        ];
        for (what, value, key) in gates {
            let Some(value) = value else { continue };
            let floor = floors[key];
            println!("gate: {what} = {value:.2} (floor {floor:.2})");
            assert!(
                value >= floor,
                "CI scaling gate: {what} = {value:.2} fell below the pinned floor {floor:.2} \
                 (`{key}` in crates/bench/baselines.toml)"
            );
        }
    }

    println!(
        "\nShape check: homogeneous speedup grows with nodes until the fixed\n\
         per-fork communication dominates the shrinking block — under flat\n\
         collectives that rollover is the master's serialized fork sends plus\n\
         the n-1 join streams converging on its inbound wire; trees shaped\n\
         by the cost model on both sides push it past 32 nodes, and the overlapped\n\
         data plane (pipelined faults, the writer push a region's faults\n\
         subscribe to, 1 KB of piggybacked hot diffs — one switch) takes the\n\
         remaining per-fault round-trips off the critical path.\n\
         Heterogeneous flattens hard (static schedules stretch to the\n\
         half-speed stragglers); loaded-host tracks homogeneous minus one\n\
         effective node. Wall time: {:.1}s for {} virtual runs.",
        wall.elapsed().as_secs_f64(),
        table.rows.len() + nbf_table.rows.len() + 2
    );
    assert!(
        wall.elapsed().as_secs_f64() < 120.0 || scale == Scale::Full,
        "smoke sweep must finish under two minutes of wall time"
    );
}
