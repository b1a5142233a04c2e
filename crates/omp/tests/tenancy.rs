//! Multi-tenant scheduler integration tests: preemption through the
//! adaptation machinery, per-job DSM isolation, and report accounting.

use nowmp_core::ClusterConfig;
use nowmp_net::CostModel;
use nowmp_omp::{JobSpec, OmpProgram, OmpSystem};
use std::time::Duration;

const N: u64 = 8;

/// A program whose one region fills the shared array with `sentinel`.
fn fill_program(sentinel: f64) -> OmpProgram {
    OmpProgram::new().region("fill", move |ctx| {
        let data = ctx.f64vec("data");
        let n = data.len();
        ctx.for_static(0..n as u64, |c, i| {
            data.set(c.dsm(), i as usize, sentinel);
        });
    })
}

fn fill_spec(name: &str, sentinel: f64, steps: u64) -> JobSpec {
    JobSpec::new(name, fill_program(sentinel))
        .with_setup(|sys| sys.alloc_f64("data", N))
        .with_steps(steps, |sys, _| sys.parallel("fill", &[]))
}

/// Pool config: homogeneous hosts, 10 ms per "fill" iteration of
/// modeled compute, everything else free.
fn pool(hosts: usize) -> ClusterConfig {
    ClusterConfig::test(hosts, 1)
        .with_cost_model(CostModel::disabled().with_region_cost("fill", Duration::from_millis(10)))
}

/// The acceptance pin: a higher-priority arrival shrinks the running
/// team via the grace-leave path, and the freed hosts land in the new
/// job within one adaptation point (one victim step).
#[test]
fn preemption_frees_hosts_within_one_adaptation_point() {
    let mut sched = nowmp_omp::jobs::Scheduler::new(pool(4));
    // `low` fills the pool: 8 iters x 10 ms / 4 procs = 20 ms per step.
    let low = sched.submit(fill_spec("low", 1.0, 40).with_procs(1, 4));
    // `hi` arrives mid-run, between low's steps, and needs 2 hosts.
    let hi = sched.submit(
        fill_spec("hi", 2.0, 3)
            .with_procs(2, 2)
            .with_priority(5)
            .arriving_at(Duration::from_millis(105)),
    );
    let report = sched.run();

    let low_stats = &report.jobs[low.id().0 as usize];
    let hi_stats = &report.jobs[hi.id().0 as usize];
    assert_eq!(low_stats.preemptions, 1, "low was shrunk exactly once");
    assert!(
        hi_stats.wait > Duration::ZERO,
        "hi queued while low shed procs"
    );
    // One adaptation point: low's next step (20 ms at 4 procs) commits
    // the shrink; hi must start by then, not a step later.
    assert!(
        hi_stats.wait <= Duration::from_millis(21),
        "freed hosts must land within one adaptation point, waited {:?}",
        hi_stats.wait
    );
    let timeline = report.log.render_timeline();
    assert!(
        timeline.contains("[job0] preempted: shedding 2 procs"),
        "timeline should show the preemption directive:\n{timeline}"
    );
    assert!(
        timeline.contains("[job1] STARTED on 2 hosts"),
        "timeline should show hi taking the freed hosts:\n{timeline}"
    );
    // When hi completes, the victim re-grows to its max.
    assert!(
        timeline.contains("[job0] grown by 2 hosts"),
        "timeline should show low re-growing:\n{timeline}"
    );
    assert!(report.makespan >= hi_stats.turnaround);
}

/// Two concurrent tenants write different sentinels to the *same-named*
/// shared array. Each job's checkpoint image must contain only its own
/// bytes: each tenant's own `DsmSystem` page space is byte-level isolated.
#[test]
fn concurrent_jobs_have_isolated_page_spaces() {
    let dir = std::env::temp_dir().join(format!("nowmp-tenancy-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("tenant.ckpt");

    const S_A: f64 = 1111.5;
    const S_B: f64 = 2222.5;
    let mut sched = nowmp_omp::jobs::Scheduler::new(pool(2).with_ckpt_path(ckpt.clone()));
    let spec = |name, sentinel| {
        JobSpec::new(name, fill_program(sentinel))
            .with_procs(1, 1)
            .with_setup(|sys| sys.alloc_f64("data", N))
            .with_steps(2, move |sys: &mut OmpSystem, iter| {
                sys.parallel("fill", &[]);
                if iter == 1 {
                    // Read back through the DSM before checkpointing:
                    // the neighbour tenant has been writing its own
                    // sentinel to "data" all along.
                    sys.seq(|ctx| {
                        let data = ctx.f64vec("data");
                        for i in 0..N as usize {
                            assert_eq!(data.get(ctx.dsm(), i), sentinel);
                        }
                    });
                    sys.checkpoint_now();
                }
            })
    };
    let a = sched.submit(spec("tenant-a", S_A));
    let b = sched.submit(spec("tenant-b", S_B));
    let report = sched.run();
    assert_eq!(report.max_concurrency, 2, "both tenants ran concurrently");

    let img_a = std::fs::read(dir.join(format!("tenant.ckpt.job{}", a.id().0))).unwrap();
    let img_b = std::fs::read(dir.join(format!("tenant.ckpt.job{}", b.id().0))).unwrap();
    let contains = |img: &[u8], v: f64| {
        let pat = v.to_le_bytes();
        img.windows(8).any(|w| w == pat)
    };
    assert!(contains(&img_a, S_A), "a's image holds a's sentinel");
    assert!(contains(&img_b, S_B), "b's image holds b's sentinel");
    assert!(
        !contains(&img_a, S_B),
        "a's image must not hold a single byte-aligned word of b's data"
    );
    assert!(
        !contains(&img_b, S_A),
        "b's image must not hold a single byte-aligned word of a's data"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Report accounting sanity over a small mixed trace.
#[test]
fn report_accounts_waits_utilization_and_traffic() {
    let mut sched = nowmp_omp::jobs::Scheduler::new(pool(2)).with_net_contention(0.5);
    sched.submit(fill_spec("first", 1.0, 4).with_procs(2, 2));
    sched.submit(
        fill_spec("second", 2.0, 2)
            .with_procs(2, 2)
            .arriving_at(Duration::from_millis(1)),
    );
    let report = sched.run();
    assert_eq!(report.jobs.len(), 2);
    // Both want the whole pool: second queues until first finishes.
    assert_eq!(report.jobs[0].wait, Duration::ZERO);
    assert!(report.jobs[1].wait > Duration::ZERO);
    assert!(report.p99_wait() >= report.wait_percentile(0.5));
    assert!(report.utilization > 0.0 && report.utilization <= 1.0);
    assert!(report.makespan > Duration::ZERO);
    assert!(report.mean_turnaround() > Duration::ZERO);
    for j in &report.jobs {
        assert_eq!(j.traffic.job, j.id.0, "traffic is attributed per job");
        assert!(j.traffic.msgs > 0, "a DSM job talks on the wire");
    }
}

/// A seeded 24-job trace on 32 hosts (the shape of the benchmark's
/// `tenancy32_trace`: rigid interactive jobs over elastic batch teams,
/// few long steps, arrivals inside two simulated seconds).
fn trace24() -> nowmp_omp::jobs::Scheduler {
    const PER_ITER: Duration = Duration::from_millis(200);
    let work = || {
        OmpProgram::new().region("work", |ctx| {
            let n = ctx.f64vec("data").len() as u64;
            ctx.for_static(0..n, |_, _| {});
        })
    };
    let base = ClusterConfig::test(32, 1)
        .with_cost_model(CostModel::disabled().with_region_cost("work", PER_ITER));
    let mut sched = nowmp_omp::jobs::Scheduler::new(base).with_net_contention(0.02);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut draw = |below: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % below
    };
    for i in 0..24u64 {
        let interactive = i % 5 == 0;
        let (min, max) = if interactive {
            (4, 4)
        } else {
            [(1, 2), (2, 4), (4, 8)][draw(3) as usize]
        };
        let iters = 4 * max as u64;
        sched.submit(
            JobSpec::new(format!("job{i}"), work())
                .with_procs(min, max)
                .with_priority(if interactive { 5 } else { 1 })
                .arriving_at(Duration::from_millis(i * 80 + draw(40)))
                .with_setup(move |sys| sys.alloc_f64("data", iters))
                .with_steps(1 + draw(3), |sys, _| sys.parallel("work", &[])),
        );
    }
    sched
}

/// The scheduler's timeline is a function of the trace alone: five
/// replays in one process — the first one cold, with every thread
/// stack and allocator arena still to be faulted in — agree bit for
/// bit, and none of them meets the clock's stall watchdog (which
/// would panic this debug build).
#[test]
fn trace_replays_bit_identically_including_the_cold_run() {
    let replay = || {
        let report = trace24().run();
        assert_eq!(report.jobs.len(), 24);
        assert!(report.max_concurrency >= 8, "the trace loads the pool");
        // The scheduler's two floors. The replay is bit-identical
        // (utilization 0.8209, p99 wait 2.152 s), so the margins are
        // thin: stranded granted hosts pull the first down, a backed-up
        // queue pushes the second up.
        assert!(report.utilization >= 0.80, "{}", report.utilization);
        assert!(
            report.p99_wait() <= Duration::from_millis(2200),
            "{:?}",
            report.p99_wait()
        );
        let turnarounds: Vec<Duration> = report.jobs.iter().map(|j| j.turnaround).collect();
        (report.makespan, report.utilization.to_bits(), turnarounds)
    };
    let cold = replay();
    for rep in 1..5 {
        assert_eq!(replay(), cold, "replay {rep} diverged from the cold run");
    }
}
