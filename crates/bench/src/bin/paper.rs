//! `paper <claim|all> [--smoke]` — the paper's evaluation, claim by
//! claim (`nowmp_bench::paper`), on the 1999 generation and on the
//! current one (`paper::generations`; the `scale` sweep, whose lanes
//! are the generations, runs once).
//!
//! Prints each claim's tables and verdicts, then compares them with the
//! claim's golden file under `crates/bench/golden/` (`paper::golden_path`)
//! and exits non-zero on any difference (printing the run's projection,
//! the form a golden file pins lines of) or on a missing golden file. A
//! verdict that fails is a reading, not an error: only a departure from
//! what a golden file pins fails the run. Every table and verdict is
//! also written to `BENCH_paper.json`.

#![forbid(unsafe_code)]

use nowmp_bench::paper::{claims_from_args, generations, golden_diff, golden_path, CLAIMS};
use nowmp_bench::Json;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((scale, claims)) = claims_from_args(&args) else {
        let names: Vec<&str> = CLAIMS.iter().map(|c| c.0).collect();
        eprintln!("usage: paper <{}|all> [--smoke]", names.join("|"));
        return ExitCode::from(2);
    };
    let mut differences = 0;
    let mut records = Vec::new();
    for (name, run) in claims {
        for (generation, dsm) in generations(name) {
            println!(
                "\n##### {name} — {generation} generation — {} #####",
                scale.name()
            );
            let claim = run(scale, dsm);
            print!("{claim}");
            let path = golden_path(name, generation, scale);
            let diff = match std::fs::read_to_string(&path) {
                Err(e) => vec![format!("cannot read the golden file: {e}")],
                Ok(text) => golden_diff(&claim, &text),
            };
            for d in &diff {
                println!("GOLDEN DIFFERS: {d}");
            }
            differences += diff.len();
            let golden = if diff.is_empty() {
                "matches"
            } else {
                // What to copy into the golden file if the change is
                // meant.
                print!("the run's projection:\n{}", claim.projection());
                "differs"
            };
            println!("golden {}: {golden}", path.display());
            records.push(Json::obj([
                ("claim", Json::str(name)),
                ("generation", Json::str(generation)),
                ("golden", Json::str(golden)),
                ("result", claim.json()),
            ]));
        }
    }
    let json = Json::obj([
        ("scale", Json::str(scale.name())),
        ("claims", Json::Arr(records)),
    ])
    .render();
    std::fs::write("BENCH_paper.json", &json).expect("write BENCH_paper.json");
    println!("\nwrote BENCH_paper.json ({} bytes)", json.len());
    if differences > 0 {
        eprintln!("paper: {differences} departure(s) from the golden files");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
