//! The harness command line.
//!
//! ```text
//! nowmp-benchmark all     --seed <u64> [--seconds <n>] [--out <file>]
//! nowmp-benchmark run     --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1|file>]
//!                         [--out <file>]
//! nowmp-benchmark layers  [--seed <u64>]
//! nowmp-benchmark compare <a.json[,a2.json...]> <b.json[,b2.json...]>
//! nowmp-benchmark list
//! ```
//!
//! `run` ends with one JSON line on standard output for an external
//! driver; everything meant for people goes to standard error.

use nowmp_benchmark::json::Json;
use nowmp_benchmark::report::{self, LayerValues};
use nowmp_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use nowmp_benchmark::stats::median;
use nowmp_benchmark::trace::Recorder;
use nowmp_benchmark::workloads::{run_workload, WorkloadResult};
use nowmp_benchmark::{compare, env, lanes};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: nowmp-benchmark <all|run|layers|compare|list> [options]
  all     --seed <u64> [--seconds <n>] [--out <file>]      every workload, traces, lanes
  run     --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1|file>] [--out <file>]
  layers  [--seed <u64>]                                   the per-layer lanes
  compare <a.json[,a2.json...]> <b.json[,b2.json...]>      A/B two result sets
  list                                                     workloads and metrics";

/// `--key value` options after the subcommand, plus bare operands.
struct Args {
    options: HashMap<String, String>,
    operands: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let (mut options, mut operands) = (HashMap::new(), Vec::new());
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(key) => {
                    let value = it.next().ok_or(format!("--{key} needs a value"))?;
                    options.insert(key.to_owned(), value.clone());
                }
                None => operands.push(a.clone()),
            }
        }
        Ok(Args { options, operands })
    }

    fn seed(&self) -> Result<u64, String> {
        match self.options.get("seed") {
            None => Ok(1),
            Some(s) => s.parse().map_err(|_| format!("--seed {s:?} is not a u64")),
        }
    }

    fn seconds(&self) -> Result<f64, String> {
        match self.options.get("seconds") {
            None => Ok(20.0),
            Some(s) => s
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or(format!("--seconds {s:?} is not a non-negative number")),
        }
    }
}

/// What `run` measured: the untraced pass (the end-to-end numbers) and,
/// when tracing was asked for, the traced rep's per-layer values (with
/// the tracing overhead added) and the trace files written.
struct Measured {
    plain: WorkloadResult,
    layer: LayerValues,
    trace_files: Vec<String>,
}

/// Untraced pass for `seconds`, then — with `trace_path` — one traced
/// rep: enough for the breakdown and the counters, and tracing never
/// touches the end-to-end numbers. `None` for an unknown workload.
fn measure(name: &str, seed: u64, seconds: f64, trace_path: Option<&Path>) -> Option<Measured> {
    let mut plain = run_workload(name, seed, seconds, &mut Recorder::new(false))?;
    eprint!("{}", report::e2e_text(&plain));
    let Some(trace_path) = trace_path else {
        return Some(Measured {
            plain,
            layer: LayerValues::new(),
            trace_files: Vec::new(),
        });
    };
    let mut rec = Recorder::new(true);
    let traced = run_workload(name, seed, 0.0, &mut rec)?;
    let mut layer = traced.layer.clone();
    let wall = |r: &WorkloadResult| r.summary("wall_s").map_or(f64::NAN, |s| s.median);
    let (w0, w1) = (wall(&plain), wall(&traced));
    layer.insert("bench.trace_overhead_pct", 100.0 * (w1 - w0) / w0);

    let breakdown = trace_path.with_extension("breakdown.txt");
    let files = [
        (trace_path.to_path_buf(), rec.chrome_trace().to_line()),
        (breakdown, rec.breakdown_text()),
    ];
    let mut trace_files = Vec::new();
    for (path, text) in files {
        match std::fs::write(&path, text) {
            Ok(()) => trace_files.push(path.display().to_string()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    eprintln!("  traced rep: where the time went");
    eprint!("{}", rec.breakdown_text());
    eprint!("{}", report::layer_text(&layer));
    // A check that fails only under tracing is still a failed check.
    plain.checks.attempted += traced.checks.attempted;
    plain.checks.failed += traced.checks.failed;
    plain.checks.notes.extend(traced.checks.notes);
    Some(Measured {
        plain,
        layer,
        trace_files,
    })
}

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let name = args.options.get("workload").ok_or("run needs --workload")?;
    let (seed, seconds) = (args.seed()?, args.seconds()?);
    let trace_path = match args.options.get("trace").map_or("0", String::as_str) {
        "0" => None,
        "1" => Some(env::out_dir().join(format!("trace-{name}-{seed}.json"))),
        file => Some(PathBuf::from(file)),
    };
    let m = measure(name, seed, seconds, trace_path.as_deref())
        .ok_or_else(|| format!("unknown workload {name:?}; try `list`"))?;
    // The lanes ride along with a traced run: one rep each.
    let lane_values = if trace_path.is_some() {
        let values = lanes::run_all(seed, 1);
        eprint!("{}", report::layer_text(&values));
        values
    } else {
        LayerValues::new()
    };
    if let Some(out) = args.options.get("out") {
        let block = report::workload_json(&m.plain, &m.layer, &m.trace_files);
        let doc = report::result_file(seed, vec![block], &lane_values);
        std::fs::write(out, doc.to_pretty()).map_err(|e| format!("cannot write {out}: {e}"))?;
    }
    let traced = trace_path.is_some().then_some((&m.layer, &lane_values));
    println!("{}", report::driver_line(&m.plain, traced).to_line());
    Ok(ExitCode::SUCCESS)
}

/// Every workload, each in a process of its own — so `setup_s` starts
/// from a fresh process, `peak_rss_mb` is that workload's own and a
/// crash takes nothing else down — then one result file: the workload
/// blocks in order, each lane the median of the seven traced runs.
fn cmd_all(args: &Args) -> Result<ExitCode, String> {
    let (seed, seconds) = (args.seed()?, args.seconds()?);
    let out = env::out_dir();
    let result_path = args
        .options
        .get("out")
        .map_or_else(|| out.join(format!("result-{seed}.json")), PathBuf::from);
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let (mut blocks, mut failed, mut crashed) = (Vec::new(), 0u64, Vec::new());
    let mut lane_samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for w in WORKLOADS.iter() {
        let part = out.join(format!("part-{}-{seed}.json", w.name));
        // The child's tables (its standard error) join this output.
        let status = Command::new(&exe)
            .args(["run", "--workload", w.name, "--trace", "1"])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .arg("--out")
            .arg(&part)
            .stdout(Stdio::null())
            .stderr(Stdio::from(std::io::stdout()))
            .status()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let doc = std::fs::read_to_string(&part)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text));
        std::fs::remove_file(&part).ok();
        let (true, Ok(doc)) = (status.success(), doc) else {
            println!("{}: the run did not finish ({status})", w.name);
            crashed.push(w.name);
            continue;
        };
        let block = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .and_then(|a| a.first())
            .ok_or("a part file without its workload")?;
        failed += block.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        blocks.push(block.clone());
        for (name, lane) in doc.get("lanes").and_then(Json::as_obj).unwrap_or(&[]) {
            if let Some(v) = lane.get("value").and_then(Json::as_f64) {
                lane_samples.entry(name.clone()).or_default().push(v);
            }
        }
    }
    let lane_values: LayerValues = PER_LAYER
        .iter()
        .filter_map(|m| Some((m.name, median(lane_samples.get(m.name)?))))
        .collect();
    println!("lanes (median of {} runs):", blocks.len());
    print!("{}", report::layer_text(&lane_values));
    let doc = report::result_file(seed, blocks, &lane_values);
    std::fs::write(&result_path, doc.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", result_path.display()))?;
    println!("wrote {}", result_path.display());
    Ok(if failed == 0 && crashed.is_empty() {
        ExitCode::SUCCESS
    } else {
        println!("{failed} checks failed; did not finish: {crashed:?}");
        ExitCode::FAILURE
    })
}

fn cmd_layers(args: &Args) -> Result<ExitCode, String> {
    print!("{}", report::layer_text(&lanes::run_all(args.seed()?, 5)));
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.operands.as_slice() else {
        return Err("compare needs exactly two result sets".to_owned());
    };
    let read_side = |list: &String| -> Result<compare::Side, String> {
        let texts = list
            .split(',')
            .map(|f| std::fs::read_to_string(f).map_err(|e| format!("cannot read {f}: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        compare::side_from(&texts)
    };
    let rows = compare::compare(&read_side(a)?, &read_side(b)?);
    print!("{}", compare::table(&rows));
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    let (worse, unresolved) = (
        count(compare::Verdict::Worse),
        count(compare::Verdict::Unresolved),
    );
    println!(
        "{} rows: {worse} worse, {unresolved} unresolved (base: A = {a})",
        rows.len()
    );
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_list() -> ExitCode {
    println!("workloads:");
    for w in WORKLOADS.iter() {
        let driven = if w.driver {
            ""
        } else {
            " (not in BENCHMARK.json)"
        };
        println!(
            "  {:<18} {}{driven}\n  {:<18} why: {}",
            w.name, w.sizes, "", w.why
        );
    }
    println!("end-to-end metrics:");
    for m in END_TO_END.iter() {
        println!(
            "  {:<22} {:<9} {:<6} bound {:<5} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.meaning
        );
    }
    println!("per-layer metrics:");
    for m in PER_LAYER.iter() {
        println!(
            "  {:<36} {:<9} {:<6} {:?}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.source
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    env::sanitize();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    // Unoptimised timings are not measurements of this repository.
    if cfg!(debug_assertions) && !matches!(command.as_str(), "compare" | "list") {
        eprintln!("nowmp-benchmark refuses to measure a debug build: use `cargo run --release`");
        return ExitCode::from(2);
    }
    let result = Args::parse(rest).and_then(|args| match command.as_str() {
        "all" => cmd_all(&args),
        "run" => cmd_run(&args),
        "layers" => cmd_layers(&args),
        "compare" => cmd_compare(&args),
        "list" => Ok(cmd_list()),
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    });
    result.unwrap_or_else(|e| {
        eprintln!("nowmp-benchmark: {e}");
        ExitCode::from(2)
    })
}
