//! The benchmark's contract with itself: workloads, end-to-end metrics
//! with their regression bounds, and per-layer metrics, all by name.
//! `BENCHMARK.json` at the repository root restates these tables; a test
//! keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// Frozen sizes, for the result file.
    pub sizes: &'static str,
    /// One sentence: which layers do the work, and why that matters.
    pub why: &'static str,
    /// Is it one of the workloads `BENCHMARK.json` gives an external
    /// driver? The two whose host time is processor-bound are not: on a
    /// shared host their `wall_s` moves by 15 to 30 % with what the
    /// machine's other tenants do, for minutes at a time, and no
    /// statistic over a run of seconds takes that out. `all` runs them
    /// all the same.
    pub driver: bool,
}

/// The seven workloads, in run order.
pub const WORKLOADS: [WorkloadSpec; 7] = [
    WorkloadSpec {
        name: "jacobi32_current",
        sizes: "Jacobi 384x384, 8 iterations, 32 hosts, current generation, adaptive off, \
                2 timed sections per bring-up, plus one 1-process run",
        why: "few neighbour faults, so at 32 hosts omp fork-join, tmk collectives and net \
              receiver admission bind and the data plane does little",
        driver: true,
    },
    WorkloadSpec {
        name: "nbf16_current",
        sizes: "NBF 2048 atoms x 16 partners, 4 iterations, 16 hosts, current generation, \
                adaptive off, plus one 1-process run",
        why: "every rank re-faults the scattered multi-writer position array, so tmk \
              fault/diff/prefetch and net bandwidth bind and the collectives do little",
        driver: true,
    },
    WorkloadSpec {
        name: "table1_paper1999",
        sizes: "Jacobi 1536x1536 x 4 iterations and NBF 4096 x 64 x 2 iterations at 1 and 8 \
                processes, flat collectives, demand paging, adaptive on, 4 timed sections per \
                bring-up",
        why: "the same tmk/net layers on the faithful 1999 generation against the only \
              external reference, so a gain bought at the reproduction's cost shows here",
        driver: true,
    },
    WorkloadSpec {
        name: "adapt_churn8",
        sizes: "Jacobi 192x192, 24 iterations, 8 processes on 10 hosts, six events 3 \
                iterations apart: join, middle leave, checkpoint + recover, urgent leave, \
                join, end leave",
        why: "core's adaptation point (GC, re-home, reassign, commit), tmk::gc and ckpt do \
              the work and the steady-state protocol does little",
        driver: true,
    },
    WorkloadSpec {
        name: "tenancy32_trace",
        sizes: "24 jobs (12/s under a one-day diurnal curve, bounded-Pareto steps 1..3, 5 rigid \
                priority-5 jobs, batch teams 1-2/2-4/4-8, 0.8 s steps at full width) on 32 \
                hosts, contention 0.02, open loop in sim time, one frozen trace shape",
        why: "core::sched policy and the omp::jobs executor do the work, and the \
              simulator's host cost per simulated event is at its worst",
        driver: true,
    },
    WorkloadSpec {
        name: "task1024_engine",
        sizes: "TaskJacobi 1026x1026 x 8 iterations and TaskNbf 2048 x 16 x 8 iterations on \
                1024 hosts, pool = cores, plus 1-host runs",
        why: "util::TaskScheduler, tmk::engine and core::engine do all the work and the \
              protocol-accurate tmk/net path none, so a thread-engine change must not move it",
        driver: false,
    },
    WorkloadSpec {
        name: "hotpath_real2",
        sizes: "real clock, no net model, 2 processes on one CPU: 400 rounds of 64 seeded words \
                in each of 256 pages written, joined and read back, then 4000 empty regions; \
                4 of the rounds again under the 1999 models on a virtual clock",
        why: "the only workload where host CPU in util::wire/zrle, tmk::diff/table and the \
              channel shim is the result itself",
        driver: false,
    },
];

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name; it carries its clock.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median by which the metric may get worse
    /// before `compare` calls it a regression.
    pub bound: f64,
    /// Workloads that report it; empty = all of them.
    pub workloads: &'static [&'static str],
    /// What it measures.
    pub meaning: &'static str,
}

const SPEEDUP_ON: &[&str] = &["jacobi32_current", "nbf16_current", "task1024_engine"];
const TENANCY: &[&str] = &["tenancy32_trace"];
const HOTPATH: &[&str] = &["hotpath_real2"];

/// The thirteen end-to-end metrics.
pub const END_TO_END: [EndToEnd; 13] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        workloads: &[],
        meaning: "wall: bring-up to the first timed step (system construction + kernel set-up)",
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        workloads: &[],
        meaning: "wall: host seconds of the timed section, put together from the median of \
                  each of its steps over the run",
    },
    EndToEnd {
        name: "sim_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
        workloads: &[],
        meaning: "sim: simulated seconds of a timed section (tenancy: makespan; adapt_churn8: \
                  the steps; hotpath_real2: 4 of its rounds under the 1999 models)",
    },
    EndToEnd {
        name: "sim_speedup",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.10,
        workloads: SPEEDUP_ON,
        meaning: "sim: sim_s of the 1-process run of the same input / sim_s",
    },
    EndToEnd {
        name: "table1_err_pct",
        unit: "%",
        better: Better::Lower,
        bound: 0.25,
        workloads: &["table1_paper1999"],
        meaning: "sim: max relative error of the 8-process speedups against the targets \
                  pinned in crates/bench/tests/table1_virtual.rs (Jacobi 5.2, NBF 4.5)",
    },
    EndToEnd {
        name: "adapt_sim_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.15,
        workloads: &["adapt_churn8"],
        meaning: "sim: mean `took` over the run's adaptation points",
    },
    EndToEnd {
        name: "util",
        unit: "fraction",
        better: Better::Higher,
        bound: 0.05,
        workloads: TENANCY,
        meaning: "sim: busy host-seconds over available host-seconds",
    },
    EndToEnd {
        name: "wait_mean_sim_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.05,
        workloads: TENANCY,
        meaning: "sim: mean queueing wait over the 24 jobs",
    },
    EndToEnd {
        name: "turnaround_p50_sim_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.05,
        workloads: TENANCY,
        meaning: "sim: median turnaround (24 samples: the highest percentile with ten beyond)",
    },
    EndToEnd {
        name: "pages_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        workloads: HOTPATH,
        meaning: "real: pages through write, release, fault, diff fetch and apply per second",
    },
    EndToEnd {
        name: "region_rtt_us_p50",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        workloads: HOTPATH,
        meaning: "real: median empty-region fork/join round trip over 2000 samples per rep",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        workloads: &[],
        meaning: "host: VmHWM of the workload's process after its first rep",
    },
    EndToEnd {
        name: "fail_ratio",
        unit: "fraction",
        better: Better::Lower,
        bound: 0.0,
        workloads: &[],
        meaning: "failed checks / checks attempted",
    },
];

impl EndToEnd {
    /// Does `workload` report this metric?
    pub fn on(&self, workload: &str) -> bool {
        self.workloads.is_empty() || self.workloads.contains(&workload)
    }
}

/// The end-to-end metrics every workload reports and none of which is
/// ever 0: what `BENCHMARK.json` lists under `end_to_end`. The others
/// are workload-specific (or, `fail_ratio`, 0 when all is well); the
/// external driver wants every listed metric from every workload, so
/// they ride in its `per_layer` list and keep their bounds here, where
/// `compare` applies them.
pub const DRIVER_END_TO_END: [&str; 4] = ["setup_s", "wall_s", "sim_s", "peak_rss_mb"];

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// A micro lane of `layers` (fixed operation count, median of reps).
    Lane,
    /// Read per workload from the traced run's spans and counters; 0 on
    /// a workload where the event does not occur.
    Run,
}

/// One per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `<crate>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Lane or per-run.
    pub source: Source,
}

const fn lane(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source: Source::Lane,
    }
}

const fn per_run(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source: Source::Run,
    }
}

use Better::{Higher, Lower};

/// The 88 per-layer metrics; the layer is the crate before the dot.
pub const PER_LAYER: [PerLayer; 88] = [
    // util: codec, compression, checksum, locks, the channel shim.
    lane("util.wire_put_words_ns_4k", "ns", Lower),
    lane("util.wire_get_words_ns_4k", "ns", Lower),
    lane("util.wire_varu32_ns", "ns", Lower),
    lane("util.zrle_compress_ns_sparse4k", "ns", Lower),
    lane("util.zrle_decompress_ns_sparse4k", "ns", Lower),
    lane("util.zrle_compress_ns_dense4k", "ns", Lower),
    lane("util.crc32_ns_4k", "ns", Lower),
    lane("util.spinlock_ns", "ns", Lower),
    lane("util.spinlock_2t_ops_per_s", "1/s", Higher),
    lane("util.chan_burst_ns_per_msg", "ns", Lower),
    lane("util.chan_pingpong_ns", "ns", Lower),
    // util: the two time engines.
    lane("util.vclock_sleep_wall_us", "us", Lower),
    lane("util.vclock_handoff_wall_us", "us", Lower),
    lane("util.tasksched_events_per_s", "1/s", Higher),
    // net.
    lane("net.send_recv_ns", "ns", Lower),
    lane("net.call_rtt_us", "us", Lower),
    lane("net.admission_sim_us_per_msg_n31", "us", Lower),
    lane("net.admission_msgs_per_wall_s", "1/s", Higher),
    per_run("net.msgs", "count", Lower),
    per_run("net.bytes", "B", Lower),
    per_run("net.max_link_bytes", "B", Lower),
    per_run("net.host_us_per_msg", "us", Lower),
    // tmk: lanes.
    lane("tmk.diff_create_ns_64w", "ns", Lower),
    lane("tmk.diff_apply_ns_64w", "ns", Lower),
    lane("tmk.diff_wire_ns_64w", "ns", Lower),
    lane("tmk.diff_create_ns_512w", "ns", Lower),
    lane("tmk.diff_apply_ns_512w", "ns", Lower),
    lane("tmk.twin_snapshot_ns", "ns", Lower),
    lane("tmk.records_enc_ns_n32", "ns", Lower),
    lane("tmk.records_dec_ns_n32", "ns", Lower),
    lane("tmk.records_bytes_n32", "B", Lower),
    lane("tmk.vc_merge_ns_n32", "ns", Lower),
    lane("tmk.pagetable_guard_ns", "ns", Lower),
    lane("tmk.pagetable_2t_ops_per_s", "1/s", Higher),
    lane("tmk.forkjoin_us_2p", "us", Lower),
    lane("tmk.barrier_us_2p", "us", Lower),
    lane("tmk.lock_us_2p", "us", Lower),
    per_run("tmk.region_rtt_us_p99", "us", Lower),
    lane("tmk.engine_step_ns", "ns", Lower),
    // tmk: protocol counters of the timed section.
    per_run("tmk.pages_fetched", "count", Lower),
    per_run("tmk.diffs_fetched", "count", Lower),
    per_run("tmk.diff_words", "count", Lower),
    per_run("tmk.read_faults", "count", Lower),
    per_run("tmk.write_faults", "count", Lower),
    per_run("tmk.prefetch_hit_ratio", "fraction", Higher),
    per_run("tmk.prefetch_wasted", "count", Lower),
    per_run("tmk.piggyback_bytes", "B", Lower),
    per_run("tmk.relays", "count", Lower),
    per_run("tmk.gcs", "count", Lower),
    per_run("tmk.gc_fetch_pages", "count", Lower),
    per_run("tmk.leave_pages_moved", "count", Lower),
    // ckpt.
    lane("ckpt.to_bytes_mb_per_s", "MB/s", Higher),
    lane("ckpt.from_bytes_mb_per_s", "MB/s", Higher),
    lane("ckpt.write_file_mb_per_s", "MB/s", Higher),
    lane("ckpt.read_file_mb_per_s", "MB/s", Higher),
    lane("ckpt.ratio", "ratio", Higher),
    // core.
    per_run("core.system_new_wall_s", "s", Lower),
    per_run("core.shutdown_wall_s", "s", Lower),
    per_run("core.adapt_sim_ms_join", "ms", Lower),
    per_run("core.adapt_sim_ms_leave", "ms", Lower),
    per_run("core.adapt_sim_ms_urgent", "ms", Lower),
    per_run("core.adapt_wall_ms", "ms", Lower),
    per_run("core.adapt_bytes_moved", "B", Lower),
    per_run("core.adapt_max_link_bytes", "B", Lower),
    lane("core.adapt_sim_ms_n4", "ms", Lower),
    lane("core.adapt_sim_ms_n8", "ms", Lower),
    lane("core.adapt_sim_ms_n16", "ms", Lower),
    lane("core.reassign_ns_n32", "ns", Lower),
    lane("core.sched_decisions_per_s", "1/s", Higher),
    per_run("core.task_host_steps_per_wall_s", "1/s", Higher),
    per_run("core.task_peak_workers", "count", Lower),
    // omp.
    lane("omp.empty_region_sim_us_n2", "us", Lower),
    lane("omp.empty_region_sim_us_n8", "us", Lower),
    lane("omp.empty_region_sim_us_n32", "us", Lower),
    lane("omp.empty_region_wall_us_n32", "us", Lower),
    lane("omp.dispatch_ns_per_iter_static", "ns", Lower),
    lane("omp.dispatch_ns_per_iter_dynamic", "ns", Lower),
    lane("omp.dispatch_ns_per_iter_guided", "ns", Lower),
    lane("omp.partition_ns", "ns", Lower),
    per_run("omp.jobs_wall_ms_per_step", "ms", Lower),
    per_run("omp.jobs_preemptions", "count", Lower),
    per_run("omp.jobs_peak_tenancy", "count", Higher),
    // apps.
    per_run("apps.kernel_setup_wall_s", "s", Lower),
    per_run("apps.kernel_setup_sim_s", "s", Lower),
    per_run("apps.verify_wall_s", "s", Lower),
    lane("apps.step_wall_ms_1p_jacobi", "ms", Lower),
    lane("apps.step_wall_ms_1p_nbf", "ms", Lower),
    // The harness itself.
    per_run("bench.trace_overhead_pct", "%", Lower),
];

/// The workload named `name`.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The end-to-end metric named `name`.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}
