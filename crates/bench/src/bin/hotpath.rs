//! `hotpath` — real-clock throughput of the DSM data-plane hot path,
//! with a CI floor (see `docs/HOTPATH.md`).
//!
//! One lane family, **pipeline**: single-thread pages/sec through the
//! full consistency pipeline one page takes on a diff fetch:
//! twin/current compare (`Diff::create_from_words`), wire encode, wire
//! decode, apply into a `PageBuf`, plus the checkpoint-style zero-run
//! encode (`zrle`) of the same page. This is the path the wide-scan
//! rewrite accelerated; the floor fails a regression that the benchmark
//! harness's per-layer lanes would only report.
//!
//! Emits a human table plus `BENCH_hotpath.json`; with `--smoke` the
//! floor `PIPELINE_MIN_PAGES_PER_SEC` is enforced and a violation exits
//! nonzero.

#![forbid(unsafe_code)]

use nowmp_bench::{Json, Scale};
use nowmp_tmk::diff::Diff;
use nowmp_tmk::page::PageBuf;
use nowmp_util::wire::Wire;
use nowmp_util::zrle;
use std::time::Instant;

/// 4 KB pages, like the protocol default.
const SLOTS: usize = 512;

/// Pages/sec through create → wire → decode → apply → zrle.
fn pipeline_lane(pages: usize) -> f64 {
    let twin: Vec<u64> = (0..SLOTS as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
        .collect();
    let mut cur = twin.clone();
    for k in 0..64usize {
        // 64 scattered dirty words — the hot diff shape (every 8th).
        cur[k * 8] ^= 0xDEAD_BEEF ^ k as u64;
    }
    // A sparse page for the checkpoint-style encode: zeros plus the
    // 64 dirty values (what an early-run scientific array looks like).
    let mut sparse = vec![0u64; SLOTS];
    for k in 0..64usize {
        sparse[k * 8] = cur[k * 8];
    }
    let target = PageBuf::from_words(&twin);
    let mut sink = 0u64;
    let t0 = Instant::now();
    for _ in 0..pages {
        let diff = Diff::create_from_words(&twin, &cur, 0);
        let bytes = diff.to_wire();
        let got = Diff::from_wire(&bytes).expect("diff round-trips");
        got.apply(&target);
        let z = zrle::compress(&sparse);
        sink = sink.wrapping_add(bytes.len() as u64 + z.len() as u64);
    }
    let secs = t0.elapsed().as_secs_f64();
    assert!(sink != 0, "work not elided");
    assert_eq!(target.load(8), cur[8], "apply really landed");
    pages as f64 / secs
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = match Scale::from_args(&args) {
        Some((scale, operands)) if operands.is_empty() => scale,
        _ => {
            eprintln!("usage: hotpath [--smoke]");
            std::process::exit(2);
        }
    };
    let pipe_pages = scale.pick(20_000, 200_000);

    println!(
        "hotpath: DSM data-plane throughput (real clock, {} mode)\n",
        scale.name()
    );

    let pipeline = pipeline_lane(pipe_pages);
    println!(
        "pipeline  create->wire->decode->apply->zrle  {:>10.0} pages/s  ({} pages, 4 KB, 64 dirty words)",
        pipeline, pipe_pages
    );

    let out = Json::obj([
        ("quick", Json::Bool(scale == Scale::Smoke)),
        ("pipeline_pages_per_sec", Json::num(pipeline, 1)),
    ])
    .render();
    std::fs::write("BENCH_hotpath.json", &out).expect("write BENCH_hotpath.json");
    println!("\nwrote BENCH_hotpath.json ({} bytes)", out.len());

    // --- CI floor (enforced in the --smoke configuration CI runs) -----
    if scale == Scale::Smoke {
        // Single-thread pages/sec through diff-create -> wire -> decode
        // -> apply -> zrle on 4 KB pages with 64 dirty words. Measured
        // ~250-280k pages/s in release on the CI runner; pinned well
        // under that so shared-runner noise passes while a big pipeline
        // regression fails.
        const PIPELINE_MIN_PAGES_PER_SEC: f64 = 15000.0;
        println!("gate: pipeline = {pipeline:.0} pages/s (floor {PIPELINE_MIN_PAGES_PER_SEC:.0})");
        assert!(
            pipeline >= PIPELINE_MIN_PAGES_PER_SEC,
            "CI hotpath gate: pipeline throughput {pipeline:.0} pages/s fell below \
             the pinned floor {PIPELINE_MIN_PAGES_PER_SEC:.0}"
        );
    }
}
