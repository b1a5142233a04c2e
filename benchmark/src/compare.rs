//! `compare <a> <b>`: the A/B tool.
//!
//! Each side is one result file or a comma-separated list of them. With
//! one file a side's samples are that file's per-rep samples; with
//! several they are the files' medians, one per file. One row per
//! (workload, end-to-end metric) with both medians and quartiles, the
//! ratio with its base, and a verdict:
//!
//! * `worse` — B's median is worse than A's by more than the metric's
//!   bound;
//! * `unresolved` — not worse, but a side's interquartile spread is
//!   wider than the bound, so "unchanged" cannot be claimed;
//! * `ok` — neither.

use crate::json::Json;
use crate::spec::{Better, END_TO_END};
use crate::stats::Summary;
use std::collections::BTreeMap;

/// What a row concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within bound, spread within bound.
    Ok,
    /// Within bound, but the spread is wider than the bound.
    Unresolved,
    /// Worse by more than the bound.
    Worse,
}

impl Verdict {
    /// Lower-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Worse => "worse",
        }
    }
}

/// One (workload, metric) comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Side A (the base).
    pub a: Summary,
    /// Side B.
    pub b: Summary,
    /// `b.median / a.median`.
    pub ratio: f64,
    /// The conclusion.
    pub verdict: Verdict,
}

/// Samples of one side: workload -> metric -> values.
pub type Side = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Read one side from result-file texts (see the module docs for how
/// one file and several files differ).
pub fn side_from(texts: &[String]) -> Result<Side, String> {
    let mut side = Side::new();
    let single = texts.len() == 1;
    for text in texts {
        let doc = Json::parse(text)?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("result file has no `workloads` array")?;
        for w in workloads {
            let name = w
                .get("name")
                .and_then(Json::as_str)
                .ok_or("workload without a name")?;
            let metrics = w
                .get("end_to_end")
                .and_then(Json::as_obj)
                .ok_or("workload without `end_to_end`")?;
            for (metric, m) in metrics {
                let values: Vec<f64> = if single {
                    m.get("samples")
                        .and_then(Json::as_arr)
                        .map(|a| a.iter().filter_map(Json::as_f64).collect())
                        .unwrap_or_default()
                } else {
                    m.get("median").and_then(Json::as_f64).into_iter().collect()
                };
                side.entry(name.to_owned())
                    .or_default()
                    .entry(metric.clone())
                    .or_default()
                    .extend(values);
            }
        }
    }
    Ok(side)
}

/// The verdict for one metric given both sides' summaries.
pub fn judge(better: Better, bound: f64, a: &Summary, b: &Summary) -> Verdict {
    let worse_by = match better {
        Better::Lower => b.median - a.median,
        Better::Higher => a.median - b.median,
    };
    // A zero base has no share to speak of: any move the wrong way counts.
    let limit = bound * a.median.abs();
    if worse_by > limit {
        Verdict::Worse
    } else if a.spread().max(b.spread()) > bound && bound > 0.0 {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Compare side B against side A (the base), metric by metric, in spec
/// order. Pairs present on only one side are skipped.
pub fn compare(a: &Side, b: &Side) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, a_metrics) in a {
        let Some(b_metrics) = b.get(workload) else {
            continue;
        };
        for m in END_TO_END.iter() {
            let (Some(av), Some(bv)) = (a_metrics.get(m.name), b_metrics.get(m.name)) else {
                continue;
            };
            if av.is_empty() || bv.is_empty() {
                continue;
            }
            let (sa, sb) = (Summary::of(av), Summary::of(bv));
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name,
                a: sa,
                b: sb,
                ratio: sb.median / sa.median,
                verdict: judge(m.better, m.bound, &sa, &sb),
            });
        }
    }
    rows
}

/// The rows as a fixed-width table.
pub fn table(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<18} {:<22} {:>13} {:>13} {:>13} {:>13} {:>13} {:>13} {:>9}  {}\n",
        "workload",
        "metric",
        "A median",
        "A q1",
        "A q3",
        "B median",
        "B q1",
        "B q3",
        "B/A",
        "verdict"
    );
    for r in rows {
        // 0 / 0 (a fail ratio that stayed 0) has no ratio to show.
        let ratio = if r.ratio.is_finite() {
            format!("{:.4}", r.ratio)
        } else {
            "-".to_owned()
        };
        out.push_str(&format!(
            "{:<18} {:<22} {:>13.6} {:>13.6} {:>13.6} {:>13.6} {:>13.6} {:>13.6} {:>9}  {}\n",
            r.workload,
            r.metric,
            r.a.median,
            r.a.q1,
            r.a.q3,
            r.b.median,
            r.b.q1,
            r.b.q3,
            ratio,
            r.verdict.as_str()
        ));
    }
    out
}
