//! Result files and the lines the harness prints.
//!
//! A result file is one JSON object: the machine block, then per
//! workload its frozen sizes, its reason, `ops` / `failed`, every
//! end-to-end metric (median, quartiles, rep count, the per-rep samples)
//! and every per-layer value, then the lane metrics.

use crate::json::{obj, Json};
use crate::spec::{self, Source, DRIVER_END_TO_END, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::workloads::WorkloadResult;
use std::collections::BTreeMap;

/// Per-layer values by metric name.
pub type LayerValues = BTreeMap<&'static str, f64>;

fn summary_json(unit: &str, s: &Summary, samples: &[f64]) -> Json {
    obj([
        ("unit", Json::from(unit)),
        ("median", s.median.into()),
        ("q1", s.q1.into()),
        ("q3", s.q3.into()),
        ("n", s.n.into()),
        (
            "samples",
            Json::Arr(samples.iter().map(|&v| v.into()).collect()),
        ),
    ])
}

/// The result-file block of one workload: `r` is the untraced run,
/// `layer` the traced run's values (empty when none was made).
pub fn workload_json(r: &WorkloadResult, layer: &LayerValues, trace_files: &[String]) -> Json {
    let w = spec::workload(&r.name).expect("result of a known workload");
    let e2e = END_TO_END
        .iter()
        .filter_map(|m| {
            let s = r.summary(m.name)?;
            Some((m.name, summary_json(m.unit, &s, &r.samples[m.name])))
        })
        .collect::<Vec<_>>();
    obj([
        ("name", Json::from(w.name)),
        ("why", w.why.into()),
        ("sizes", w.sizes.into()),
        ("reps", r.reps.into()),
        ("wall_samples", r.wall_samples.into()),
        ("ops", r.checks.attempted.into()),
        ("failed", r.checks.failed.into()),
        (
            "failures",
            Json::Arr(r.checks.notes.iter().map(|n| n.as_str().into()).collect()),
        ),
        ("end_to_end", obj(e2e)),
        (
            "per_layer",
            obj(layer.iter().map(|(k, v)| (*k, Json::from(*v)))),
        ),
        (
            "trace_files",
            Json::Arr(trace_files.iter().map(|f| f.as_str().into()).collect()),
        ),
    ])
}

/// The whole result file.
pub fn result_file(seed: u64, workloads: Vec<Json>, lanes: &LayerValues) -> Json {
    let lane_units: BTreeMap<_, _> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    obj([
        ("schema", Json::from("nowmp-benchmark/1")),
        ("machine", crate::env::machine_info(seed)),
        ("workloads", Json::Arr(workloads)),
        (
            "lanes",
            obj(lanes.iter().map(|(k, v)| {
                (
                    *k,
                    obj([
                        ("unit", Json::from(lane_units.get(k).copied().unwrap_or(""))),
                        ("value", (*v).into()),
                    ]),
                )
            })),
        ),
    ])
}

fn metric(value: f64, unit: &str) -> Json {
    obj([("value", Json::from(value)), ("unit", unit.into())])
}

/// The one-line object an external driver reads from the last line of
/// standard output. Untraced: every driver end-to-end metric. Traced:
/// every per-layer metric (lanes, this workload's per-run values — 0
/// where the event does not occur on it — and the workload-specific
/// end-to-end metrics, which come from the untraced reps).
pub fn driver_line(r: &WorkloadResult, traced: Option<(&LayerValues, &LayerValues)>) -> Json {
    let metrics: Vec<(&str, Json)> = match traced {
        None => DRIVER_END_TO_END
            .iter()
            .map(|name| {
                let m = spec::end_to_end(name).expect("driver metric is in the spec");
                let s = r.summary(m.name).expect("every workload reports it");
                (m.name, metric(s.median, m.unit))
            })
            .collect(),
        Some((layer, lanes)) => {
            let per_layer = PER_LAYER.iter().map(|m| {
                let v = match m.source {
                    Source::Lane => lanes.get(m.name),
                    Source::Run => layer.get(m.name),
                };
                (m.name, metric(v.copied().unwrap_or(0.0), m.unit))
            });
            let specific = END_TO_END
                .iter()
                .filter(|m| !DRIVER_END_TO_END.contains(&m.name))
                .map(|m| {
                    let v = r.summary(m.name).map_or(0.0, |s| s.median);
                    (m.name, metric(v, m.unit))
                });
            per_layer.chain(specific).collect()
        }
    };
    obj([
        ("correct", Json::from(r.checks.failed == 0)),
        ("attempted", r.checks.attempted.max(1).into()),
        ("failed", r.checks.failed.into()),
        ("metrics", obj(metrics)),
    ])
}

/// Fixed-width table of one workload's end-to-end metrics.
pub fn e2e_text(r: &WorkloadResult) -> String {
    let mut out = format!(
        "{}: {} reps, wall_s from {} step timings, {} checks, {} failed\n",
        r.name, r.reps, r.wall_samples, r.checks.attempted, r.checks.failed
    );
    for note in &r.checks.notes {
        out.push_str(&format!("  FAILED {note}\n"));
    }
    out.push_str(&r.wall_parts);
    for m in END_TO_END.iter() {
        if let Some(s) = r.summary(m.name) {
            out.push_str(&format!(
                "  {:<22} {:>14.6} {:<9} q1 {:>12.6}  q3 {:>12.6}  n {:>3}  ({} is better)\n",
                m.name,
                s.median,
                m.unit,
                s.q1,
                s.q3,
                s.n,
                m.better.as_str()
            ));
        }
    }
    out
}

/// Fixed-width table of per-layer values, in spec order.
pub fn layer_text(values: &LayerValues) -> String {
    let mut out = String::new();
    for m in PER_LAYER.iter() {
        if let Some(v) = values.get(m.name) {
            out.push_str(&format!("  {:<36} {:>16.4} {}\n", m.name, v, m.unit));
        }
    }
    out
}
