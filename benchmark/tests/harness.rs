//! Tests of the harness itself: its JSON, its statistics, its trace
//! arithmetic, its seeded inputs, its A/B verdicts and the agreement of
//! its tables with `BENCHMARK.json`. None of them runs a workload.

use nowmp_benchmark::compare::{self, judge, Verdict};
use nowmp_benchmark::json::{obj, Json};
use nowmp_benchmark::report;
use nowmp_benchmark::spec::{Better, DRIVER_END_TO_END, END_TO_END, PER_LAYER, WORKLOADS};
use nowmp_benchmark::stats::{percentile, percentile_sorted, quartiles_sorted, Summary};
use nowmp_benchmark::trace::Recorder;
use nowmp_benchmark::workloads::{
    churn, host_loads, hotpath, tenancy, Checks, Parts, WorkloadResult,
};
use std::collections::BTreeMap;

fn sample_result() -> WorkloadResult {
    let samples: BTreeMap<&'static str, Vec<f64>> = [
        ("setup_s", vec![0.5, 0.25, 0.75]),
        ("wall_s", vec![1.5, f64::NAN, f64::INFINITY]),
        ("sim_s", vec![0.066970760]),
        ("peak_rss_mb", vec![13.90625]),
        ("fail_ratio", vec![0.0]),
    ]
    .into();
    WorkloadResult {
        name: "jacobi32_current".to_owned(),
        reps: 3,
        wall_samples: 24,
        wall_parts: String::new(),
        checks: Checks {
            attempted: 7,
            failed: 1,
            notes: vec!["a \"quoted\"\nnote".to_owned()],
        },
        samples,
        layer: [("net.msgs", 12.0)].into(),
    }
}

#[test]
fn json_writer_emits_valid_json_without_nan_or_inf() {
    let r = sample_result();
    let lanes = [("util.crc32_ns_4k", f64::NAN)].into();
    let doc = report::result_file(7, vec![report::workload_json(&r, &r.layer, &[])], &lanes);
    for text in [doc.to_line(), doc.to_pretty()] {
        assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
        let back = Json::parse(&text).expect("the writer's output parses");
        assert_eq!(back, Json::parse(&doc.to_line()).unwrap());
        let w = &back.get("workloads").unwrap().as_arr().unwrap()[0];
        assert_eq!(w.get("ops").unwrap().as_f64(), Some(7.0));
        assert_eq!(
            w.get("failures").unwrap().as_arr().unwrap()[0].as_str(),
            Some("a \"quoted\"\nnote")
        );
        // Non-finite samples became null, finite ones kept every digit.
        let wall = w.get("end_to_end").unwrap().get("wall_s").unwrap();
        assert_eq!(
            wall.get("samples").unwrap().as_arr().unwrap(),
            &[Json::Num(1.5), Json::Null, Json::Null]
        );
        let sim = w.get("end_to_end").unwrap().get("sim_s").unwrap();
        assert_eq!(sim.get("median").unwrap().as_f64(), Some(0.066970760));
    }
    // The machine block names what a comparison needs.
    let machine = doc.get("machine").unwrap();
    for key in [
        "nproc",
        "available_parallelism",
        "rustc",
        "git_revision",
        "build_profile",
        "seed",
        "pool_width",
    ] {
        assert!(machine.get(key).is_some(), "machine block lacks {key}");
    }
}

#[test]
fn json_parser_rejects_what_is_not_json() {
    for bad in ["", "{", "[1,]", "{\"a\" 1}", "NaN", "1 2", "\"open"] {
        assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
    }
    let v = Json::parse(" {\"a\": [1, -2.5e3, true, null, \"x\\u0041\\n\"]} ").unwrap();
    assert_eq!(
        v,
        obj([(
            "a",
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-2500.0),
                Json::Bool(true),
                Json::Null,
                Json::Str("xA\n".to_owned()),
            ])
        )])
    );
}

#[test]
fn driver_line_has_exactly_the_contract_keys() {
    let r = sample_result();
    let untraced = report::driver_line(&r, None);
    let keys: Vec<_> = untraced
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(untraced.get("correct"), Some(&Json::Bool(false)));
    let names: Vec<_> = untraced
        .get("metrics")
        .unwrap()
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(names, DRIVER_END_TO_END);

    let lanes = BTreeMap::new();
    let traced = report::driver_line(&r, Some((&r.layer, &lanes)));
    let metrics = traced.get("metrics").unwrap().as_obj().unwrap();
    // Every per-layer metric plus every end-to-end one the untraced line
    // does not carry; a value the workload lacks reads 0.
    assert_eq!(
        metrics.len(),
        PER_LAYER.len() + END_TO_END.len() - DRIVER_END_TO_END.len()
    );
    let value = |name: &str| {
        traced
            .get("metrics")
            .unwrap()
            .get(name)
            .unwrap()
            .get("value")
    };
    assert_eq!(value("net.msgs"), Some(&Json::Num(12.0)));
    assert_eq!(value("tmk.gcs"), Some(&Json::Num(0.0)));
}

#[test]
fn percentile_matches_a_sorted_reference() {
    let mut rng = nowmp_benchmark::rng::Rng::new(42, 0);
    for n in [1usize, 2, 3, 10, 24, 101, 2000] {
        let values: Vec<f64> = (0..n).map(|_| rng.next_f64() * 100.0).collect();
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        for p in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            // Reference: the smallest value with at least p*n values at
            // or below it, found by counting.
            let want = sorted
                .iter()
                .copied()
                .find(|&v| sorted.iter().filter(|&&w| w <= v).count() as f64 >= p * n as f64)
                .unwrap();
            assert_eq!(percentile(&values, p), want, "n={n} p={p}");
            assert_eq!(percentile_sorted(&sorted, p), want);
        }
    }
    assert!(percentile(&[], 0.5).is_nan());
}

#[test]
fn quartiles_are_pythons_exclusive_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles_sorted(&ten), [2.75, 5.5, 8.25]);
    // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
    assert_eq!(quartiles_sorted(&[1.0, 2.0, 4.0]), [1.0, 2.0, 4.0]);
    // statistics.quantiles([3, 9], n=4) == [1.5, 6.0, 10.5]
    assert_eq!(quartiles_sorted(&[3.0, 9.0]), [1.5, 6.0, 10.5]);
    assert_eq!(quartiles_sorted(&[7.0]), [7.0; 3]);
    let s = Summary::of(&[10.0, 1.0, 4.0, 7.0, 3.0, 2.0, 9.0, 8.0, 6.0, 5.0]);
    assert_eq!((s.n, s.median, s.min, s.max), (10, 5.5, 1.0, 10.0));
    assert!((s.spread() - 1.0).abs() < 1e-12);
}

#[test]
fn wall_s_is_put_together_from_the_quiet_quarter_of_each_part() {
    let mut parts = Parts::default();
    // A kernel whose timed section holds 8 iterations: 16 timings over
    // the run, 10 of them in a slow stretch.
    for i in 0..16 {
        parts.add("Jacobi", 0, 8.0, if i < 6 { 0.1 } else { 0.35 });
    }
    // Two steps told apart by position, five reps, a 250 ms stall in
    // one step of one rep.
    for rep in 0..5 {
        let stall = if rep == 3 { 0.25 } else { 0.0 };
        parts.add("step", 0, 1.0, 0.05 + stall);
        parts.add("step", 1, 1.0, 0.07);
    }
    assert!((parts.total() - (8.0 * 0.1 + 0.05 + 0.07)).abs() < 1e-12);
    assert_eq!(parts.samples(), 26);
    assert_eq!(parts.describe().lines().count(), 2);
    // One timing is its own lower quartile; two give the faster one,
    // never a value extrapolated below it.
    let mut one = Parts::default();
    one.add("replay", 0, 1.0, 11.5);
    assert_eq!(one.total(), 11.5);
    one.add("replay", 0, 1.0, 11.7);
    assert_eq!(one.total(), 11.5);
}

#[test]
fn trace_self_times_close_to_the_span_total() {
    let mut rec = Recorder::new(true);
    for run in 0..2 {
        rec.set_run(run);
        let root = rec.begin("run", "bench", 0.0);
        let new = rec.begin("OmpSystem::new", "core", 0.0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.end(new, 0.25);
        let step = rec.begin("Kernel::step", "apps", 0.25);
        std::thread::sleep(std::time::Duration::from_millis(3));
        rec.end(step, 1.25);
        // Two synthesised children that overlap each other and stick
        // out of the parent: both get clamped, neither counts twice.
        rec.synth(step, "Cluster::adaptation_point", "core", (0.5, 0.75), 0);
        rec.synth(step, "Cluster::checkpoint", "ckpt", (0.7, 2.0), 0);
        // A concurrent-track span never enters the table.
        let job = rec.synth(step, "job", "omp", (0.25, 1.25), 3);
        rec.counter(job, "wait_sim_s", 0.5);
        rec.end(root, 1.5);
    }
    let rows = rec.breakdown();
    let (wall, sim) = rec.total();
    let (row_wall, row_sim) = rows
        .iter()
        .fold((0.0, 0.0), |(w, s), r| (w + r.wall_self, s + r.sim_self));
    assert!(
        (row_wall - wall).abs() <= 0.01 * wall,
        "{row_wall} vs {wall}"
    );
    assert!((row_sim - sim).abs() <= 0.01 * sim, "{row_sim} vs {sim}");
    assert!(
        (sim - 3.0).abs() < 1e-9,
        "two runs of 1.5 simulated seconds"
    );
    assert!(rows
        .iter()
        .all(|r| r.wall_self >= 0.0 && r.sim_self >= -1e-12));
    assert!(rows.iter().all(|r| r.name != "job"));
    let adapt = rows
        .iter()
        .find(|r| r.name == "Cluster::adaptation_point")
        .unwrap();
    assert!((adapt.sim_self - 0.5).abs() < 1e-9 && adapt.count == 2);
    let ckpt = rows
        .iter()
        .find(|r| r.name == "Cluster::checkpoint")
        .unwrap();
    assert!(
        (ckpt.sim_self - 1.0).abs() < 1e-9,
        "clamped to [0.75, 1.25]"
    );
    assert!(rec.breakdown_text().contains("sum of rows / run total"));

    // The Chrome trace is valid JSON with one complete event per clock
    // for a real span and the simulated clock only for a synthesised one.
    let trace = Json::parse(&rec.chrome_trace().to_line()).unwrap();
    let events = trace.get("traceEvents").unwrap().as_arr().unwrap();
    let named = |n: &str| {
        events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some(n))
            .count()
    };
    assert_eq!(named("Kernel::step"), 4);
    assert_eq!(named("Cluster::checkpoint"), 2);
    assert!(events.iter().all(|e| {
        e.get("ph").and_then(Json::as_str) == Some("M")
            || e.get("dur")
                .and_then(Json::as_f64)
                .is_some_and(|d| d >= 0.0)
    }));

    // A disabled recorder records nothing.
    let mut off = Recorder::new(false);
    let s = off.begin("x", "bench", 0.0);
    off.end(s, 1.0);
    off.synth(s, "y", "core", (0.0, 1.0), 0);
    assert!(off.spans().is_empty());
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    assert_eq!(tenancy::draw_trace(11), tenancy::draw_trace(11));
    assert_ne!(tenancy::draw_trace(11), tenancy::draw_trace(12));
    assert_eq!(churn::script(11), churn::script(11));
    assert_ne!(churn::script(11), churn::script(12));
    assert_eq!(hotpath::dirty_set(11), hotpath::dirty_set(11));
    assert_ne!(hotpath::dirty_set(11), hotpath::dirty_set(12));
    assert_eq!(host_loads(11, 32), host_loads(11, 32));
    assert_ne!(host_loads(11, 32), host_loads(12, 32));
}

#[test]
fn seeded_inputs_keep_their_frozen_shape() {
    let steps = |seed| {
        tenancy::draw_trace(seed)
            .iter()
            .map(|j| j.steps)
            .sum::<u64>()
    };
    for seed in 0..50 {
        let trace = tenancy::draw_trace(seed);
        assert_eq!(trace.len(), tenancy::JOBS);
        assert!(trace.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(trace.iter().all(|j| {
            (1..=3).contains(&j.steps)
                && j.min_procs >= 1
                && j.min_procs <= j.max_procs
                && j.max_procs <= 8
        }));
        assert_eq!(trace.iter().filter(|j| j.priority == 5).count(), 5);
        assert_eq!(steps(seed), steps(0), "every seed offers the same work");

        let (events, _) = churn::script(seed);
        assert_eq!(events.len(), 6);
        assert!(
            events.windows(2).all(|w| w[0].0 < w[1].0),
            "distinct iterations"
        );
        let count = |e| events.iter().filter(|(_, k)| *k == e).count();
        assert_eq!(count(churn::Event::Join), 2);
        assert_eq!(count(churn::Event::Checkpoint), 1);

        let dirty = hotpath::dirty_set(seed);
        assert_eq!(dirty.len(), hotpath::PAGES * hotpath::WORDS_PER_PAGE);
        assert!(
            dirty.windows(2).all(|w| w[0] < w[1]),
            "ascending and distinct"
        );
        assert!(host_loads(seed, 1024)
            .iter()
            .all(|&l| (0.0..=0.005).contains(&l)));
    }
}

fn well_named(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[test]
fn names_and_counts_fit_the_limits() {
    assert!(WORKLOADS.len() <= 8 && END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    let mut seen = std::collections::BTreeSet::new();
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    for name in names {
        assert!(well_named(name), "{name:?}");
        assert!(seen.insert(name), "{name:?} is used twice");
    }
    for w in WORKLOADS.iter() {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        assert!(END_TO_END.iter().filter(|m| m.on(w.name)).count() >= 6);
    }
    for m in END_TO_END.iter() {
        assert!((0.0..=0.25).contains(&m.bound), "{}", m.name);
        assert!(m
            .workloads
            .iter()
            .all(|w| WORKLOADS.iter().any(|s| s.name == *w)));
    }
    // The layer of a per-layer metric is a crate of the repository.
    for m in PER_LAYER.iter() {
        let layer = m.name.split('.').next().unwrap();
        assert!(
            ["util", "net", "tmk", "ckpt", "core", "omp", "apps", "bench"].contains(&layer),
            "{}",
            m.name
        );
    }
    for name in DRIVER_END_TO_END {
        let m = END_TO_END.iter().find(|m| m.name == name).unwrap();
        assert!(
            m.workloads.is_empty(),
            "{name} must be reported by every workload"
        );
    }
}

#[test]
fn benchmark_json_restates_the_spec() {
    let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let keys: Vec<_> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let list = |key: &str| doc.get(key).unwrap().as_arr().unwrap().to_vec();
    let text = |j: &Json, key: &str| j.get(key).unwrap().as_str().unwrap().to_owned();

    // The driver's workloads: the ones whose host time a shared machine
    // can repeat.
    let workloads = list("workloads");
    let driven: Vec<_> = WORKLOADS.iter().filter(|w| w.driver).collect();
    assert_eq!(workloads.len(), driven.len());
    assert!((2..=8).contains(&workloads.len()));
    for (j, w) in workloads.iter().zip(driven) {
        assert_eq!(text(j, "name"), w.name);
        assert_eq!(
            text(j, "why"),
            w.why.split_whitespace().collect::<Vec<_>>().join(" ")
        );
    }

    let e2e = list("end_to_end");
    assert_eq!(e2e.len(), DRIVER_END_TO_END.len());
    for (j, name) in e2e.iter().zip(DRIVER_END_TO_END) {
        let m = END_TO_END.iter().find(|m| m.name == name).unwrap();
        assert_eq!(text(j, "name"), m.name);
        assert_eq!(text(j, "unit"), m.unit);
        assert_eq!(text(j, "better"), m.better.as_str());
        assert_eq!(j.get("bound").unwrap().as_f64(), Some(m.bound));
    }
    assert!(e2e
        .iter()
        .any(|j| text(j, "name") == "setup_s" && text(j, "unit") == "s"));

    // per_layer: the per-layer table, then the end-to-end metrics the
    // driver's own list cannot hold.
    let specific = END_TO_END
        .iter()
        .filter(|m| !DRIVER_END_TO_END.contains(&m.name))
        .map(|m| (m.name, m.unit, m.better));
    let want: Vec<_> = PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .chain(specific)
        .collect();
    let per_layer = list("per_layer");
    assert_eq!(per_layer.len(), want.len());
    assert!(per_layer.len() <= 128);
    for (j, (name, unit, better)) in per_layer.iter().zip(want) {
        assert_eq!(text(j, "name"), name);
        assert_eq!(text(j, "unit"), unit);
        assert_eq!(text(j, "better"), better.as_str());
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        );
    }
    assert_eq!(list("paths"), [Json::Str("benchmark".to_owned())]);
}

#[test]
fn compare_judges_worse_unresolved_and_ok() {
    let tight = |m: f64| Summary::of(&[m * 0.99, m, m * 1.01]);
    let wide = |m: f64| Summary::of(&[m * 0.6, m, m * 1.4]);
    // Lower is better, 10 % bound.
    assert_eq!(
        judge(Better::Lower, 0.1, &tight(1.0), &tight(1.05)),
        Verdict::Ok
    );
    assert_eq!(
        judge(Better::Lower, 0.1, &tight(1.0), &tight(1.2)),
        Verdict::Worse
    );
    assert_eq!(
        judge(Better::Lower, 0.1, &tight(1.0), &tight(0.5)),
        Verdict::Ok
    );
    assert_eq!(
        judge(Better::Lower, 0.1, &tight(1.0), &wide(1.0)),
        Verdict::Unresolved
    );
    // Higher is better: the direction flips.
    assert_eq!(
        judge(Better::Higher, 0.1, &tight(1.0), &tight(0.8)),
        Verdict::Worse
    );
    assert_eq!(
        judge(Better::Higher, 0.1, &tight(1.0), &tight(1.5)),
        Verdict::Ok
    );
    // A zero bound on a zero base: any failure at all is worse.
    let zero = Summary::of(&[0.0]);
    assert_eq!(judge(Better::Lower, 0.0, &zero, &zero), Verdict::Ok);
    assert_eq!(
        judge(Better::Lower, 0.0, &zero, &Summary::of(&[0.1])),
        Verdict::Worse
    );
}

#[test]
fn compare_reads_result_files() {
    let r = sample_result();
    let file = |scale: f64| {
        let mut r = r.clone();
        for v in r.samples.get_mut("setup_s").unwrap() {
            *v *= scale;
        }
        report::result_file(
            1,
            vec![report::workload_json(&r, &r.layer, &[])],
            &BTreeMap::new(),
        )
        .to_pretty()
    };
    // One file per side: the per-rep samples are the samples.
    let a = compare::side_from(&[file(1.0)]).unwrap();
    assert_eq!(a["jacobi32_current"]["setup_s"], [0.5, 0.25, 0.75]);
    let same = compare::compare(&a, &a);
    assert!(same.iter().all(|r| r.verdict != Verdict::Worse));
    let slow = compare::side_from(&[file(2.0)]).unwrap();
    let rows = compare::compare(&a, &slow);
    let setup = rows.iter().find(|r| r.metric == "setup_s").unwrap();
    assert_eq!((setup.verdict, setup.ratio), (Verdict::Worse, 2.0));
    assert!(compare::table(&rows).contains("worse"));
    // Several files per side: one median per file.
    let many = compare::side_from(&[file(1.0), file(1.0), file(2.0)]).unwrap();
    assert_eq!(many["jacobi32_current"]["setup_s"], [0.5, 0.5, 1.0]);
    assert!(compare::side_from(&["{}".to_owned()]).is_err());
}
